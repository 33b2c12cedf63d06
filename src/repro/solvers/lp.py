"""General linear-program model with pluggable backends.

:class:`LinearProgram` accepts the usual general form::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be -inf / +inf)

and can be solved either with the built-in two-phase simplex
(:mod:`repro.solvers.simplex`) after reduction to standard form, or with
SciPy's HiGHS implementation (``scipy.optimize.linprog``).  The SciPy backend
is the default because the RankHow pipelines solve thousands of small LPs and
HiGHS is substantially faster; the built-in simplex keeps the substrate fully
self-contained and is cross-checked against HiGHS in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.solvers.simplex import SimplexStatus, solve_standard_form

__all__ = ["LPStatus", "LPSolution", "LinearProgram", "PreparedStandardForm"]

_INF = float("inf")


class LPStatus(Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class LPSolution:
    """Result of solving a :class:`LinearProgram`.

    Attributes:
        status: Termination status.
        x: Primal solution vector (empty when not optimal).
        objective: Optimal objective value (``nan`` when not optimal).
        iterations: Backend iteration count when available.
        backend: Name of the backend that produced the solution.
    """

    status: LPStatus
    x: np.ndarray
    objective: float
    iterations: int = 0
    backend: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@dataclass
class _Constraint:
    coefficients: np.ndarray
    rhs: float
    sense: str  # "<=", ">=", "=="


@dataclass
class LinearProgram:
    """A small, explicit LP model builder.

    Example:
        >>> lp = LinearProgram(num_vars=2)
        >>> lp.set_objective([1.0, 2.0])
        >>> lp.add_constraint([1.0, 1.0], ">=", 1.0)
        >>> lp.set_bounds(0, lower=0.0, upper=1.0)
        >>> solution = lp.solve()
        >>> solution.is_optimal
        True
    """

    num_vars: int
    objective: np.ndarray = field(default=None)  # type: ignore[assignment]
    constraints: list[_Constraint] = field(default_factory=list)
    lower_bounds: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper_bounds: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_vars <= 0:
            raise ValueError("num_vars must be positive")
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(self.num_vars)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.num_vars, _INF)
        self._matrix_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- model construction -------------------------------------------------

    def set_objective(self, coefficients: np.ndarray | list[float]) -> None:
        """Set the minimization objective ``c``."""
        c = np.asarray(coefficients, dtype=float).ravel()
        if c.shape[0] != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        self.objective = c

    def set_bounds(
        self,
        index: int,
        lower: float | None = None,
        upper: float | None = None,
    ) -> None:
        """Set bounds of a single variable; ``None`` keeps the current value."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        if lower is not None:
            self.lower_bounds[index] = lower
        if upper is not None:
            self.upper_bounds[index] = upper

    def set_all_bounds(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Set bounds for every variable at once."""
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.shape[0] != self.num_vars or upper.shape[0] != self.num_vars:
            raise ValueError("bound arrays must have num_vars entries")
        self.lower_bounds = lower.copy()
        self.upper_bounds = upper.copy()

    def add_constraint(
        self,
        coefficients: np.ndarray | list[float],
        sense: str,
        rhs: float,
    ) -> int:
        """Add a linear constraint and return its row index.

        Args:
            coefficients: Row of the constraint matrix.
            sense: One of ``"<="``, ``">="``, ``"=="``.
            rhs: Right-hand side constant.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unsupported constraint sense: {sense!r}")
        row = np.asarray(coefficients, dtype=float).ravel()
        if row.shape[0] != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        self.constraints.append(_Constraint(row.copy(), float(rhs), sense))
        self._matrix_cache.clear()
        return len(self.constraints) - 1

    def copy(self) -> "LinearProgram":
        """Deep-copy the model (used by branch-and-bound node expansion)."""
        clone = LinearProgram(self.num_vars)
        clone.objective = self.objective.copy()
        clone.lower_bounds = self.lower_bounds.copy()
        clone.upper_bounds = self.upper_bounds.copy()
        clone.constraints = [
            _Constraint(c.coefficients.copy(), c.rhs, c.sense)
            for c in self.constraints
        ]
        return clone

    # -- matrix views --------------------------------------------------------

    def inequality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A_ub, b_ub)`` with all inequalities as ``<=`` rows.

        The stacked matrices are cached until the next :meth:`add_constraint`:
        branch-and-bound re-solves the same program once per node, and
        re-stacking hundreds of rows per node is pure overhead.
        """
        cached = self._matrix_cache.get("ub")
        if cached is not None:
            return cached
        rows, rhs = [], []
        for con in self.constraints:
            if con.sense == "<=":
                rows.append(con.coefficients)
                rhs.append(con.rhs)
            elif con.sense == ">=":
                rows.append(-con.coefficients)
                rhs.append(-con.rhs)
        if not rows:
            result = np.zeros((0, self.num_vars)), np.zeros(0)
        else:
            result = np.vstack(rows), np.asarray(rhs, dtype=float)
        self._matrix_cache["ub"] = result
        return result

    def equality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A_eq, b_eq)`` (cached, see :meth:`inequality_matrix`)."""
        cached = self._matrix_cache.get("eq")
        if cached is not None:
            return cached
        rows = [c.coefficients for c in self.constraints if c.sense == "=="]
        rhs = [c.rhs for c in self.constraints if c.sense == "=="]
        if not rows:
            result = np.zeros((0, self.num_vars)), np.zeros(0)
        else:
            result = np.vstack(rows), np.asarray(rhs, dtype=float)
        self._matrix_cache["eq"] = result
        return result

    # -- solving -------------------------------------------------------------

    def solve(self, method: str = "scipy") -> LPSolution:
        """Solve the LP.

        Args:
            method: ``"scipy"`` (HiGHS), ``"simplex"`` (built-in), or
                ``"auto"`` which tries SciPy and falls back to the built-in
                simplex when SciPy reports a numerical error.
        """
        if method == "auto":
            solution = self._solve_scipy()
            if solution.status is LPStatus.ERROR:
                return self._solve_simplex()
            return solution
        if method == "scipy":
            return self._solve_scipy()
        if method == "simplex":
            return self._solve_simplex()
        raise ValueError(f"unknown LP method: {method!r}")

    def _solve_scipy(self) -> LPSolution:
        from scipy.optimize import linprog

        a_ub, b_ub = self.inequality_matrix()
        a_eq, b_eq = self.equality_matrix()
        bounds = [
            (
                None if self.lower_bounds[i] == -_INF else self.lower_bounds[i],
                None if self.upper_bounds[i] == _INF else self.upper_bounds[i],
            )
            for i in range(self.num_vars)
        ]
        result = linprog(
            c=self.objective,
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if a_ub.shape[0] else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if a_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
        )
        if result.status == 0:
            return LPSolution(
                LPStatus.OPTIMAL,
                np.asarray(result.x, dtype=float),
                float(result.fun),
                iterations=int(getattr(result, "nit", 0) or 0),
                backend="scipy-highs",
            )
        if result.status == 2:
            return LPSolution(
                LPStatus.INFEASIBLE, np.zeros(0), float("nan"), backend="scipy-highs"
            )
        if result.status == 3:
            return LPSolution(
                LPStatus.UNBOUNDED, np.zeros(0), float("nan"), backend="scipy-highs"
            )
        return LPSolution(
            LPStatus.ERROR, np.zeros(0), float("nan"), backend="scipy-highs"
        )

    def _solve_simplex(self) -> LPSolution:
        c_std, a_std, b_std, recover = self._to_standard_form()
        result = solve_standard_form(c_std, a_std, b_std)
        if result.status is SimplexStatus.OPTIMAL:
            x = recover(result.x)
            return LPSolution(
                LPStatus.OPTIMAL,
                x,
                float(self.objective @ x),
                iterations=result.iterations,
                backend="simplex",
            )
        mapping = {
            SimplexStatus.INFEASIBLE: LPStatus.INFEASIBLE,
            SimplexStatus.UNBOUNDED: LPStatus.UNBOUNDED,
            SimplexStatus.ITERATION_LIMIT: LPStatus.ERROR,
        }
        return LPSolution(
            mapping[result.status],
            np.zeros(0),
            float("nan"),
            iterations=result.iterations,
            backend="simplex",
        )

    def _to_standard_form(self):
        """Reduce the general model to ``min c x : A x = b, x >= 0``.

        Returns the standard-form data plus a function mapping a standard-form
        solution back to the original variable space.
        """
        num = self.num_vars
        lower = self.lower_bounds
        upper = self.upper_bounds

        # Column bookkeeping: every original variable becomes either a single
        # shifted column (finite lower bound) or a pair of columns (free).
        col_of_var: list[tuple[str, int]] = []
        num_cols = 0
        shifts = np.zeros(num)
        for i in range(num):
            if lower[i] > -_INF:
                shifts[i] = lower[i]
                col_of_var.append(("shifted", num_cols))
                num_cols += 1
            elif upper[i] < _INF:
                # Only an upper bound: substitute x = upper - y with y >= 0.
                shifts[i] = upper[i]
                col_of_var.append(("flipped", num_cols))
                num_cols += 1
            else:
                col_of_var.append(("free", num_cols))
                num_cols += 2

        def expand_row(row: np.ndarray) -> tuple[np.ndarray, float]:
            """Rewrite a row over original vars as a row over standard cols."""
            out = np.zeros(num_cols)
            offset = 0.0
            for i in range(num):
                kind, col = col_of_var[i]
                coeff = row[i]
                if coeff == 0.0:
                    continue
                if kind == "shifted":
                    out[col] += coeff
                    offset += coeff * shifts[i]
                elif kind == "flipped":
                    out[col] -= coeff
                    offset += coeff * shifts[i]
                else:
                    out[col] += coeff
                    out[col + 1] -= coeff
            return out, offset

        rows: list[np.ndarray] = []
        rhs: list[float] = []
        slack_senses: list[str] = []
        for con in self.constraints:
            expanded, offset = expand_row(con.coefficients)
            rows.append(expanded)
            rhs.append(con.rhs - offset)
            slack_senses.append(con.sense)
        # Upper bounds of shifted variables become explicit rows.
        for i in range(num):
            kind, col = col_of_var[i]
            if kind == "shifted" and upper[i] < _INF:
                row = np.zeros(num_cols)
                row[col] = 1.0
                rows.append(row)
                rhs.append(upper[i] - lower[i])
                slack_senses.append("<=")
            elif kind == "flipped" and lower[i] > -_INF:  # pragma: no cover
                row = np.zeros(num_cols)
                row[col] = 1.0
                rows.append(row)
                rhs.append(upper[i] - lower[i])
                slack_senses.append("<=")

        n_rows = len(rows)
        n_slacks = sum(1 for s in slack_senses if s in ("<=", ">="))
        total_cols = num_cols + n_slacks
        a_std = np.zeros((n_rows, total_cols))
        b_std = np.asarray(rhs, dtype=float)
        slack_idx = num_cols
        for r, (row, sense) in enumerate(zip(rows, slack_senses)):
            a_std[r, :num_cols] = row
            if sense == "<=":
                a_std[r, slack_idx] = 1.0
                slack_idx += 1
            elif sense == ">=":
                a_std[r, slack_idx] = -1.0
                slack_idx += 1

        c_row, _ = expand_row(self.objective)
        c_std = np.zeros(total_cols)
        c_std[:num_cols] = c_row

        def recover(x_std: np.ndarray) -> np.ndarray:
            x = np.zeros(num)
            for i in range(num):
                kind, col = col_of_var[i]
                if kind == "shifted":
                    x[i] = x_std[col] + shifts[i]
                elif kind == "flipped":
                    x[i] = shifts[i] - x_std[col]
                else:
                    x[i] = x_std[col] - x_std[col + 1]
            return x

        return c_std, a_std, b_std, recover


class PreparedStandardForm:
    """Reusable standard-form image of a :class:`LinearProgram`.

    Branch-and-bound re-solves the same LP hundreds of times with nothing but
    per-node *bound* changes.  For programs where every variable has a finite
    lower bound (true of every MILP relaxation this package builds: weights,
    errors and binaries are all boxed), the standard-form constraint matrix
    and objective do not depend on the bound values at all -- only the
    right-hand side does.  This class builds the matrix once and recomputes
    just the right-hand side per solve.

    The column layout matches :meth:`LinearProgram._to_standard_form` for the
    all-finite-lower-bound case: one shifted column per variable, followed by
    one slack column per inequality row (constraints first, then the
    upper-bound rows in variable order).
    """

    def __init__(self, lp: LinearProgram) -> None:
        if np.any(lp.lower_bounds == -_INF):
            raise ValueError(
                "PreparedStandardForm requires a finite lower bound on every variable"
            )
        self.num_vars = lp.num_vars
        self.objective = lp.objective.copy()
        self._finite_upper = np.isfinite(lp.upper_bounds)
        self._ub_vars = np.where(self._finite_upper)[0]
        if lp.constraints:
            self._rows = np.vstack([c.coefficients for c in lp.constraints])
            self._rhs = np.asarray([c.rhs for c in lp.constraints], dtype=float)
        else:
            self._rows = np.zeros((0, self.num_vars))
            self._rhs = np.zeros(0)
        senses = [c.sense for c in lp.constraints]

        n_con = len(senses)
        n_ub = self._ub_vars.shape[0]
        n_rows = n_con + n_ub
        n_slacks = sum(1 for s in senses if s in ("<=", ">=")) + n_ub
        total_cols = self.num_vars + n_slacks
        a_std = np.zeros((n_rows, total_cols))
        a_std[:n_con, : self.num_vars] = self._rows
        slack = self.num_vars
        for r, sense in enumerate(senses):
            if sense == "<=":
                a_std[r, slack] = 1.0
                slack += 1
            elif sense == ">=":
                a_std[r, slack] = -1.0
                slack += 1
        for offset, var in enumerate(self._ub_vars):
            r = n_con + offset
            a_std[r, int(var)] = 1.0
            a_std[r, slack] = 1.0
            slack += 1
        self._a_std = a_std
        c_std = np.zeros(total_cols)
        c_std[: self.num_vars] = self.objective
        self._c_std = c_std

    def matches(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Whether the bound finiteness pattern still fits this structure."""
        return bool(
            np.all(lower > -_INF)
            and np.array_equal(np.isfinite(upper), self._finite_upper)
        )

    def solve(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        tol: float = 1e-9,
        max_iterations: int = 20000,
    ) -> LPSolution:
        """Solve under new bounds with the cold two-phase simplex."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if not self.matches(lower, upper):
            raise ValueError("bound pattern no longer matches the prepared structure")
        b_con = self._rhs - self._rows @ lower
        b_ub = upper[self._ub_vars] - lower[self._ub_vars]
        b_std = np.concatenate([b_con, b_ub])
        result = solve_standard_form(
            self._c_std,
            self._a_std,
            b_std,
            tol=tol,
            max_iterations=max_iterations,
        )
        if result.status is SimplexStatus.OPTIMAL:
            x = result.x[: self.num_vars] + lower
            return LPSolution(
                LPStatus.OPTIMAL,
                x,
                float(self.objective @ x),
                iterations=result.iterations,
                backend="simplex-prepared",
            )
        mapping = {
            SimplexStatus.INFEASIBLE: LPStatus.INFEASIBLE,
            SimplexStatus.UNBOUNDED: LPStatus.UNBOUNDED,
            SimplexStatus.ITERATION_LIMIT: LPStatus.ERROR,
        }
        return LPSolution(
            mapping[result.status],
            np.zeros(0),
            float("nan"),
            iterations=result.iterations,
            backend="simplex-prepared",
        )

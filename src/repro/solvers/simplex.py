"""Dense two-phase primal simplex for linear programs in standard form.

The solver handles problems of the form::

    minimize    c @ x
    subject to  A @ x == b
                x >= 0

which is the canonical standard form every general LP can be reduced to (the
reduction -- slack variables, bound shifting, free-variable splitting -- lives
in :mod:`repro.solvers.lp`).

The implementation is a classic tableau simplex with:

* Phase 1: minimize the sum of artificial variables to find a basic feasible
  solution (or prove infeasibility).
* Phase 2: optimize the true objective starting from that basis.
* Dantzig pricing by default with automatic fallback to Bland's rule after a
  configurable number of degenerate pivots, which guarantees termination.

The solver is intentionally straightforward: it is the reference backend used
to cross-check the SciPy HiGHS backend and to keep the whole reproduction
self-contained.  Problem sizes in RankHow's inner loops (a handful of weight
variables plus one error variable per top-k tuple) are tiny, so a dense
tableau is perfectly adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["SimplexStatus", "SimplexResult", "solve_standard_form"]


class SimplexStatus(Enum):
    """Termination status of a simplex solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class SimplexResult:
    """Outcome of a standard-form simplex solve.

    Attributes:
        status: Termination status.
        x: Primal solution (zeros when not optimal).
        objective: Objective value ``c @ x`` (``nan`` when not optimal).
        iterations: Total number of pivots across both phases.
    """

    status: SimplexStatus
    x: np.ndarray
    objective: float
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status is SimplexStatus.OPTIMAL


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Perform a pivot on ``tableau`` at (row, col), updating ``basis``."""
    pivot_value = tableau[row, col]
    tableau[row, :] /= pivot_value
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i, :] -= tableau[i, col] * tableau[row, :]
    basis[row] = col


def _choose_entering(
    reduced_costs: np.ndarray,
    eligible: np.ndarray,
    tol: float,
    use_bland: bool,
) -> int | None:
    """Select the entering column index, or ``None`` if optimal."""
    candidates = np.where(eligible & (reduced_costs < -tol))[0]
    if candidates.size == 0:
        return None
    if use_bland:
        return int(candidates[0])
    return int(candidates[np.argmin(reduced_costs[candidates])])


def _choose_leaving(
    tableau: np.ndarray, col: int, tol: float
) -> int | None:
    """Minimum-ratio test; returns the leaving row or ``None`` if unbounded."""
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    positive = column > tol
    if not np.any(positive):
        return None
    ratios = np.full(column.shape, np.inf)
    ratios[positive] = rhs[positive] / column[positive]
    best = np.min(ratios)
    # Tie-break on the smallest basis index to combat cycling.
    rows = np.where(np.isclose(ratios, best, rtol=0.0, atol=tol))[0]
    return int(rows[0])


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    tol: float,
    max_iterations: int,
    allow_cols: np.ndarray,
) -> tuple[SimplexStatus, int]:
    """Run simplex iterations on a tableau whose last row is the objective."""
    iterations = 0
    degenerate_streak = 0
    use_bland = False
    while iterations < max_iterations:
        reduced = tableau[-1, :n_cols]
        col = _choose_entering(reduced, allow_cols, tol, use_bland)
        if col is None:
            return SimplexStatus.OPTIMAL, iterations
        row = _choose_leaving(tableau, col, tol)
        if row is None:
            return SimplexStatus.UNBOUNDED, iterations
        rhs_before = tableau[row, -1]
        _pivot(tableau, basis, row, col)
        iterations += 1
        if abs(rhs_before) <= tol:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        # Switch to Bland's rule when the solve looks like it may be cycling.
        use_bland = degenerate_streak > 2 * n_cols
    return SimplexStatus.ITERATION_LIMIT, iterations


def _extract_solution(
    tableau: np.ndarray, basis: np.ndarray, n_vars: int, tol: float
) -> np.ndarray:
    """Read the structural solution out of a final tableau."""
    x = np.zeros(n_vars)
    for row in range(basis.shape[0]):
        if basis[row] < n_vars:
            x[basis[row]] = tableau[row, -1]
    # Clamp tiny negative noise introduced by floating-point pivots.
    x[np.abs(x) < tol] = np.maximum(x[np.abs(x) < tol], 0.0)
    return x


def solve_standard_form(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 20000,
) -> SimplexResult:
    """Solve ``min c @ x  s.t.  a_eq @ x == b_eq, x >= 0``.

    Args:
        c: Objective coefficients, shape ``(n,)``.
        a_eq: Equality constraint matrix, shape ``(m, n)``.
        b_eq: Right-hand side, shape ``(m,)``.
        tol: Numerical tolerance used for pricing and ratio tests.
        max_iterations: Pivot budget shared across both phases.

    Returns:
        A :class:`SimplexResult` with the solution and status.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("a_eq must be a 2-D matrix")
    n_rows, n_vars = a.shape
    if c.shape[0] != n_vars:
        raise ValueError("c and a_eq have inconsistent sizes")
    if b.shape[0] != n_rows:
        raise ValueError("b_eq and a_eq have inconsistent sizes")

    if n_rows == 0:
        # Without constraints every x >= 0 is feasible: the optimum is x = 0
        # unless some objective coefficient is negative, in which case the
        # problem is unbounded below.
        if np.any(c < -tol):
            return SimplexResult(SimplexStatus.UNBOUNDED, np.zeros(n_vars), float("nan"), 0)
        x = np.zeros(n_vars)
        return SimplexResult(SimplexStatus.OPTIMAL, x, float(c @ x), 0)

    # Make every right-hand side non-negative.
    a = a.copy()
    b = b.copy()
    negative = b < 0
    a[negative, :] *= -1.0
    b[negative] *= -1.0

    # --- Phase 1 -----------------------------------------------------------
    n_total = n_vars + n_rows
    tableau = np.zeros((n_rows + 1, n_total + 1))
    tableau[:-1, :n_vars] = a
    tableau[:-1, n_vars:n_total] = np.eye(n_rows)
    tableau[:-1, -1] = b
    basis = np.arange(n_vars, n_total)

    # Phase-1 objective: sum of artificials, expressed in reduced form.
    tableau[-1, :n_vars] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()

    allow_phase1 = np.ones(n_total, dtype=bool)
    status, it1 = _run_simplex(
        tableau, basis, n_total, tol, max_iterations, allow_phase1
    )
    if status is SimplexStatus.ITERATION_LIMIT:
        return SimplexResult(status, np.zeros(n_vars), float("nan"), it1)
    phase1_objective = -tableau[-1, -1]
    if phase1_objective > 1e-7:
        return SimplexResult(
            SimplexStatus.INFEASIBLE, np.zeros(n_vars), float("nan"), it1
        )

    # Drive any artificial variables still in the basis out of it (they must
    # carry value ~0 at this point).
    for row in range(n_rows):
        if basis[row] >= n_vars:
            pivot_cols = np.where(np.abs(tableau[row, :n_vars]) > tol)[0]
            if pivot_cols.size > 0:
                _pivot(tableau, basis, row, int(pivot_cols[0]))
            # If the whole row is ~0 over structural variables, the row is
            # redundant; leaving the artificial basic at value 0 is harmless
            # because we forbid artificial columns from re-entering below.

    # --- Phase 2 -----------------------------------------------------------
    tableau[-1, :] = 0.0
    tableau[-1, :n_vars] = c
    # Express the objective in terms of the non-basic variables.
    for row in range(n_rows):
        var = basis[row]
        coeff = tableau[-1, var]
        if var < n_vars and coeff != 0.0:
            tableau[-1, :] -= coeff * tableau[row, :]

    allow_phase2 = np.zeros(n_total, dtype=bool)
    allow_phase2[:n_vars] = True
    status, it2 = _run_simplex(
        tableau, basis, n_total, tol, max_iterations - it1, allow_phase2
    )
    iterations = it1 + it2
    if status is not SimplexStatus.OPTIMAL:
        return SimplexResult(status, np.zeros(n_vars), float("nan"), iterations)

    x = _extract_solution(tableau, basis, n_vars, tol)
    return SimplexResult(SimplexStatus.OPTIMAL, x, float(c @ x), iterations)

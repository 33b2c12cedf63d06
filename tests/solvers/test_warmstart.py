"""Branch-and-bound node speed-ups on the built-in simplex backend.

Covers the prepared standard form branch-and-bound re-solves per node (only
the right-hand side changes with the bounds) and per-node bound tightening;
neither may change what a solve computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.branch_and_bound import BranchAndBoundSolver, SolverOptions
from repro.solvers.lp import LinearProgram, PreparedStandardForm
from repro.solvers.milp import MILPModel
from repro.solvers.presolve import BoundTightener


class TestPreparedStandardForm:
    def _boxed_lp(self):
        lp = LinearProgram(num_vars=3)
        lp.set_objective([1.0, -2.0, 0.5])
        lp.add_constraint([1.0, 1.0, 1.0], "==", 1.0)
        lp.add_constraint([1.0, -1.0, 0.0], "<=", 0.5)
        lp.set_all_bounds(np.zeros(3), np.ones(3))
        return lp

    def test_matches_plain_simplex_backend(self):
        lp = self._boxed_lp()
        prepared = PreparedStandardForm(lp)
        direct = lp.solve(method="simplex")
        via_prepared = prepared.solve(lp.lower_bounds, lp.upper_bounds)
        assert via_prepared.is_optimal
        assert via_prepared.objective == pytest.approx(direct.objective)
        np.testing.assert_allclose(via_prepared.x, direct.x, atol=1e-9)

    def test_bound_change_with_warm_basis(self):
        # The right-hand side is recomputed from the new bounds on every
        # solve; the matrix prepared under the original bounds is reused.
        lp = self._boxed_lp()
        prepared = PreparedStandardForm(lp)
        assert prepared.solve(lp.lower_bounds, lp.upper_bounds).is_optimal
        lower = lp.lower_bounds.copy()
        upper = lp.upper_bounds.copy()
        lower[1] = upper[1] = 0.25  # fix a variable, branching-style
        child = prepared.solve(lower, upper)
        lp.set_bounds(1, lower=0.25, upper=0.25)
        reference = lp.solve(method="simplex")
        assert child.is_optimal
        assert child.objective == pytest.approx(reference.objective)

    def test_rejects_infinite_lower_bounds(self):
        lp = LinearProgram(num_vars=2)
        lp.set_bounds(0, lower=-np.inf)
        with pytest.raises(ValueError):
            PreparedStandardForm(lp)

    def test_rejects_changed_bound_pattern(self):
        lp = self._boxed_lp()
        prepared = PreparedStandardForm(lp)
        upper = lp.upper_bounds.copy()
        upper[2] = np.inf
        assert not prepared.matches(lp.lower_bounds, upper)
        with pytest.raises(ValueError):
            prepared.solve(lp.lower_bounds, upper)


class TestBoundTightener:
    def test_fixes_binary_from_row(self):
        # x0 + x1 <= 1 with x0 fixed to 1 forces the binary x1 to 0.
        rows = np.array([[1.0, 1.0]])
        tightener = BoundTightener(
            rows, ["<="], np.array([1.0]), candidates=np.array([1]), integral=True
        )
        lower = np.array([1.0, 0.0])
        upper = np.array([1.0, 1.0])
        lower, upper, feasible = tightener.tighten(lower, upper)
        assert feasible
        assert upper[1] == 0.0

    def test_detects_infeasible_box(self):
        rows = np.array([[1.0, 1.0]])
        tightener = BoundTightener(
            rows, [">="], np.array([3.0]), candidates=np.array([0, 1]), integral=True
        )
        lower = np.zeros(2)
        upper = np.ones(2)
        _, _, feasible = tightener.tighten(lower, upper)
        assert not feasible

    def test_objective_cutoff_prunes(self):
        rows = np.zeros((0, 2))
        tightener = BoundTightener(
            rows,
            [],
            np.zeros(0),
            candidates=np.array([0, 1]),
            integral=True,
            objective_row=np.array([1.0, 1.0]),
        )
        lower = np.array([1.0, 1.0])
        upper = np.array([1.0, 1.0])
        _, _, feasible = tightener.tighten(lower, upper, cutoff=1.5)
        assert not feasible
        lower = np.array([0.0, 0.0])
        upper = np.array([1.0, 1.0])
        lower, upper, feasible = tightener.tighten(lower, upper, cutoff=0.5)
        assert feasible
        assert np.all(upper == 0.0)  # integral rounding fixed both binaries


def _knapsack_model(seed: int = 0, items: int = 10) -> MILPModel:
    """A small min-cost covering knapsack with genuinely fractional LPs."""
    rng = np.random.default_rng(seed)
    model = MILPModel()
    costs = rng.uniform(1.0, 3.0, size=items)
    for i in range(items):
        model.add_binary(objective=float(costs[i]), name=f"b{i}")
    weights = rng.uniform(0.5, 2.0, size=items)
    model.add_constraint(
        {i: float(weights[i]) for i in range(items)}, ">=", float(weights.sum() / 3)
    )
    model.add_constraint({i: 1.0 for i in range(items)}, "<=", float(items // 2))
    return model


class TestBranchAndBoundWarmStart:
    def test_node_presolve_preserves_the_optimum(self):
        for seed in range(3):
            model = _knapsack_model(seed=seed)
            plain = BranchAndBoundSolver(
                SolverOptions(lp_method="simplex", node_presolve=False)
            ).solve(model)
            presolved = BranchAndBoundSolver(
                SolverOptions(lp_method="simplex", node_presolve=True)
            ).solve(model)
            assert plain.status == presolved.status
            assert presolved.objective == pytest.approx(plain.objective), seed

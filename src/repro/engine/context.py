"""Cross-solve artifacts for delta-aware incremental synthesis.

A :class:`SolveArtifacts` record is what one solve of an edit chain leaves
for the next: the batched :class:`~repro.core.cells.CellBoundEvaluator` of
the problem it solved.  Reusing it is **exact-parity safe** -- the
evaluator's incremental row updates are bit-identical to a rebuild -- so an
incremental solve never returns anything a cold solve would not.  The rest
of an edit chain's savings come from composed-fingerprint cache dedupe
(exact hits), which needs no artifact at all.

This module is an engine leaf: nothing here imports the rest of
:mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SolveArtifacts"]


@dataclass
class SolveArtifacts:
    """Reusable leftovers of one solve, keyed by the request they came from.

    Attributes:
        request_fingerprint: Fingerprint of the request that produced these
            artifacts (the engine's side-table key).
        problem_fingerprint: Fingerprint of the problem ``cell_evaluator``
            answers for.
        cell_evaluator: A :class:`~repro.core.cells.CellBoundEvaluator`
            built for the problem (reused or incrementally row-updated for
            tuple deltas by :meth:`evaluator_for`).
    """

    request_fingerprint: str = ""
    problem_fingerprint: str = ""
    cell_evaluator: object | None = None

    def evaluator_for(self, problem):
        """This record's cell evaluator carried over to ``problem``, if possible.

        Returns the evaluator verbatim when the problem fingerprint still
        matches, an incremental row update when only tolerances changed or
        unranked tuples were appended or dropped (see
        :meth:`CellBoundEvaluator.updated_for`), and ``None`` otherwise --
        the caller then builds a fresh one.
        """
        if self.cell_evaluator is None:
            return None
        if self.problem_fingerprint == problem.fingerprint():
            return self.cell_evaluator
        return self.cell_evaluator.updated_for(problem)

"""The benchmark's three seeded workloads and their correctness checks.

Each workload turns ``--seed`` into inputs (:meth:`setup`) and runs
*passes* over them (:meth:`run_pass`), returning one :class:`OpRecord` per
operation.  Records flagged ``core`` form a fixed, seed-determined set --
the first instances of every solver-workload pass, the first answer to each
distinct request in serve_mix -- so the answer-derived numbers
(``total_error``, ``optimal_share``, solver counters) repeat exactly for a
seed.  The solver workloads then keep drawing instances from their seeded
pool until the pass's time budget is spent, so timings rest on as many
instances as the run has time for.  An operation that recurs -- in a later
pass, or when a pool is cycled -- must get the same answer again.

Only work budgets bind: every method gets ``time_limit: None`` (for
``rankhow`` this also turns off the wall-clock budget of its SYM-GD warm
start, ``max(0.25 * time_limit, 1 s)`` under the registry default), so
answers cannot depend on host load.

Rankings are planted: a random linear scoring function ranks the data, then
one pair of ranked tuples is swapped so that the tuple placed higher is
*dominated* (lower in every attribute) by the one placed below it.  No
non-negative weights reproduce such a pair, so every instance carries error
that no answer avoids, of a size set by the construction rather than by the
seed; score noise instead made the error sums, and with them the solve
times, swing from seed to seed.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.cluster import ClusterOptions, ClusterRouter
from repro.core.delta import deltas_from_dicts
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.rankings import top_k_positions
from repro.data.relation import Relation
from repro.data.synthetic import generate_correlated_streaming
from repro.loadgen import QueryMixUser, SessionEditUser, answer_digest, build_plan
from repro.loadgen import run_closed_loop
from repro.loadgen.__main__ import FAST_PARAMS
from repro.scenarios.families import scenario_family

__all__ = ["WORKLOADS", "OpRecord", "PassResult", "warm_up"]

#: Attribute gap by which a swapped tuple is dominated (above the tie tolerance).
DOMINANCE_MARGIN = 1e-4


@dataclass
class OpRecord:
    """One operation of a pass, as the benchmark observed it."""

    kind: str  # "query" | "edit" | "open"
    latency: float
    key: tuple = ()  # identifies the operation across passes
    core: bool = True
    ok: bool = True
    solved: bool = True  # the answer needed a solver run (not a cache hit)
    error: int = 0
    optimal: bool = False
    digest: str = ""


@dataclass
class PassResult:
    records: list
    wall: float
    counters: dict = field(default_factory=dict)
    #: Answer checks, run by the caller once timing wrappers are removed
    #: (they call into the program and must not count as its work).
    verify: Callable[[], list] = list


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _check_answer(problem: RankingProblem, result, label: str) -> list:
    """The reported error is the weights' error, and the weights are feasible."""
    weights = np.asarray(result.weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        return [f"{label}: no weights returned"]
    failures = []
    recomputed = problem.error_of(weights)
    if recomputed != result.error:
        failures.append(
            f"{label}: reported error {result.error} but the weights score {recomputed}"
        )
    if not problem.weights_feasible(weights):
        failures.append(f"{label}: returned weights are infeasible")
    return failures


def _planted_ranking(rng, matrix: np.ndarray, k: int, distance: int):
    """Planted weights and their top-k ranking, with one dominated pair swapped.

    The swapped tuples sit ``distance`` positions apart in the planted
    ranking (``0`` swaps nothing).  Weights are redrawn up to 100 times
    until such a pair exists; ``None`` when it never does, and the caller
    draws new data.
    """
    for _ in range(100):
        planted = rng.dirichlet(np.ones(matrix.shape[1]))
        scores = matrix @ planted
        positions = top_k_positions(scores, k)
        if not distance:
            return planted, Ranking(positions)
        order = np.argsort(-scores, kind="stable")[:k]
        dominated = np.all(
            matrix[order[:-distance]] - matrix[order[distance:]] >= DOMINANCE_MARGIN, axis=1
        )
        if dominated.any():
            i = int(np.argmax(dominated))
            above, below = order[i], order[i + distance]
            positions[above], positions[below] = positions[below], positions[above]
            return planted, Ranking(positions)
    return None


def _uniform_instance(rng, rows: int, m: int, k: int, distance: int):
    """A uniform relation and a planted ranking of it (see :func:`_planted_ranking`)."""
    while True:
        matrix = rng.uniform(size=(rows, m))
        found = _planted_ranking(rng, matrix, k, distance)
        if found is not None:
            return matrix, found


def _problem(matrix: np.ndarray, ranking: Ranking) -> RankingProblem:
    names = [f"A{i + 1}" for i in range(matrix.shape[1])]
    return RankingProblem(Relation.from_matrix(matrix, names), ranking)


@scenario_family(
    "perfbench_planted", "uniform data, planted ranking with one dominated adjacent pair swapped"
)
def _planted_family(rng: np.random.Generator, index: int):
    matrix, (planted, ranking) = _uniform_instance(rng, 12 + index % 4, 4, 5, 1)
    return _problem(matrix, ranking), {"planted_weights": [float(w) for w in planted]}


def warm_up() -> None:
    """Load the solver stack's lazy imports before anything is timed."""
    matrix, (_, ranking) = _uniform_instance(_rng(0, 0, 0), 16, 3, 4, 1)
    problem = _problem(matrix, ranking)
    repro.get_method("rankhow").synthesize(problem, {"node_limit": 20, "time_limit": None})
    repro.get_method("symgd").synthesize(problem, {**FAST_PARAMS, "time_limit": None})


class _SolverWorkload:
    """Direct ``get_method(...).synthesize`` calls over a seeded instance pool."""

    method_name = ""
    OPTIONS: dict = {}
    CORE = 0  # instances every pass solves, whatever its budget
    POOL = 0

    def instance(self, seed: int, index: int):
        """``(problem factory arguments, planted weights)`` of one instance."""
        raise NotImplementedError

    def problem(self, inputs) -> RankingProblem:
        raise NotImplementedError

    def check(self, index: int, problem, result, planted) -> list:
        return _check_answer(problem, result, f"{self.name}[{index}]")

    def setup(self, seed: int) -> list:
        self.method = repro.get_method(self.method_name)
        return [self.instance(seed, index) for index in range(self.POOL)]

    def run_pass(self, pool: list, budget: float) -> PassResult:
        records, answers = [], []
        started = time.perf_counter()
        count = 0
        while count < self.CORE or time.perf_counter() - started < budget:
            index = count % len(pool)
            inputs, planted = pool[index]
            # A fresh problem object per call: nothing memoized on an
            # earlier call's instance may carry over.
            problem = self.problem(inputs)
            t0 = time.perf_counter()
            result = self.method.synthesize(problem, self.OPTIONS)
            latency = time.perf_counter() - t0
            records.append(
                OpRecord(
                    "query",
                    latency,
                    key=(index,),
                    core=count < self.CORE,
                    error=int(result.error),
                    optimal=bool(result.optimal),
                    digest=answer_digest(result),
                )
            )
            answers.append((index, problem, result, planted))
            count += 1
        wall = sum(record.latency for record in records)
        return PassResult(
            records, wall, verify=lambda: [f for answer in answers for f in self.check(*answer)]
        )


class ExactSolve(_SolverWorkload):
    """``rankhow`` through the registry on uniform relations, m=4, k=5.

    Why: the paper's headline exact solver, where ``repro.solvers`` does most
    of the work (LP solves, bound tightening, branch-and-bound) and the
    service, engine and cluster are bypassed.  Instances without a swapped
    pair prove optimality inside the node budget; those with one stop at it.
    """

    name = "exact_solve"
    method_name = "rankhow"
    M, K = 4, 5
    #: (rows, positions apart of the swapped dominated pair, or 0 for none),
    #: cycled through the pool; interleaved so any prefix has the same mix.
    SHAPES = ((40, 2), (44, 2), (30, 0), (36, 2), (48, 2), (40, 2), (60, 0), (44, 2), (36, 2))
    CORE = len(SHAPES)
    POOL = 3 * len(SHAPES)
    OPTIONS = {"node_limit": 300, "time_limit": None, "verify": True}

    def instance(self, seed: int, index: int):
        rows, distance = self.SHAPES[index % len(self.SHAPES)]
        matrix, (planted, ranking) = _uniform_instance(
            _rng(seed, 1, index), rows, self.M, self.K, distance
        )
        return (matrix, ranking), planted

    def problem(self, inputs) -> RankingProblem:
        return _problem(*inputs)

    def check(self, index: int, problem, result, planted) -> list:
        label = f"exact_solve[{index}]"
        failures = _check_answer(problem, result, label)
        planted_error = problem.error_of(planted)
        if result.optimal and result.error > planted_error:
            failures.append(
                f"{label}: optimal answer has error {result.error} but the "
                f"planted weights have {planted_error}"
            )
        node_limit = self.OPTIONS["node_limit"]
        if not result.optimal and result.nodes < node_limit:
            failures.append(
                f"{label}: not optimal after {result.nodes} < {node_limit} nodes "
                "(a budget other than the node limit bound)"
            )
        return failures


class SymGDScale(_SolverWorkload):
    """``symgd`` with dominance pruning on correlated relations of 10-14k rows, k=10.

    Why: many small cell-restricted MILPs whose indicators are mostly fixed
    by dominance, so formulation build and per-call fixed costs weigh more
    than LP size; prune and data-plane error evaluation run only here.  One
    descent step per call: left free, descents stop after one to four steps
    depending on the instance, and the median call time flips between those
    modes from seed to seed.
    """

    name = "symgd_scale"
    method_name = "symgd"
    M, K = 4, 10
    ROWS = (10_000, 12_000, 14_000)
    #: Positions apart of the one swapped dominated pair.
    SWAP_DISTANCE = 4
    CORE = POOL = 4 * len(ROWS)
    OPTIONS = {
        "cell_size": 0.1,
        "max_iterations": 1,
        "time_limit": None,
        "solver_options": {"node_limit": 200, "time_limit": None, "extra": {"prune": True}},
    }

    def instance(self, seed: int, index: int):
        rows = self.ROWS[index % len(self.ROWS)]
        rng = _rng(seed, 2, index)
        while True:
            # The streaming generator of the ``massive`` scenario family
            # (float32 memory-mapped columns in a temporary directory).
            relation = generate_correlated_streaming(rows, self.M, seed=rng, dtype=np.float32)
            matrix = np.asarray(relation.matrix(), dtype=float)
            found = _planted_ranking(rng, matrix, self.K, self.SWAP_DISTANCE)
            if found is not None:
                planted, ranking = found
                return (relation, ranking), planted

    def problem(self, inputs) -> RankingProblem:
        # ``check`` scores the answer on this full relation, not on the
        # pruned copy the descent worked on.
        return RankingProblem(*inputs)


class _RecordingTarget:
    """Pass-through to the router that keeps every answer for checking."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.answers: list = []  # (problem or (session, deltas), response)
        self.sessions: dict = {}

    async def submit(self, problem, method, params, **kwargs):
        response = await self.cluster.submit(problem, method, params, **kwargs)
        self.answers.append((problem, response))
        return response

    async def open_session(self, problem, method, params, **kwargs):
        session_id = await self.cluster.open_session(problem, method, params, **kwargs)
        self.sessions[session_id] = problem
        return session_id

    async def submit_session(self, session_id, deltas=None, **kwargs):
        response = await self.cluster.submit_session(session_id, deltas=deltas, **kwargs)
        self.answers.append(((session_id, list(deltas or [])), response))
        return response

    def checked_answers(self):
        """``(problem, result)`` pairs, session heads rebuilt from the edits."""
        heads = dict(self.sessions)
        for subject, response in self.answers:
            if isinstance(subject, tuple):
                session_id, deltas = subject
                heads[session_id] = heads[session_id].apply_delta(deltas_from_dicts(deltas))
                subject = heads[session_id]
            yield subject, response.result


class ServeMix:
    """A closed loop through ``ClusterRouter`` -> 2 inproc shards -> solver.

    Why: per operation the service, engine cache and router do most of the
    work.  Two callers (at most ``nproc``): a query lane drawing from a
    repeating problem pool (cached reads) and a session lane whose edits
    take the engine's incremental path (writes), so a change that helps one
    and slows the other shows.  The pool mixes four cheap scenario families
    with planted-swap problems, whose solves make the miss tail; each pass
    serves the whole plan on a fresh cluster, so every pass starts cold.
    Answer-derived numbers count each distinct request once.
    """

    name = "serve_mix"
    FAMILIES = (
        "degenerate",
        "near_infeasible_tolerance",
        "constrained",
        "duplicate_tuples",
        "perfbench_planted",
    )
    QUERIES, POOL, EDITS = 960, 96, 10
    SHARDS = 2

    def _users(self) -> list:
        params = {**FAST_PARAMS, "time_limit": None}
        return [
            QueryMixUser(
                "queries-0",
                families=self.FAMILIES,
                count=self.QUERIES,
                pool_size=self.POOL,
                params=params,
            ),
            SessionEditUser("editor-0", family="constrained", edits=self.EDITS, params=params),
        ]

    def _options(self) -> ClusterOptions:
        return ClusterOptions(num_shards=self.SHARDS, transport="inproc")

    async def _start_stop(self) -> None:
        async with ClusterRouter(self._options()):
            pass

    def setup(self, seed: int):
        plan = build_plan(self._users(), seed=seed)
        # Target start-up: a router with its shards, started and stopped.
        asyncio.run(self._start_stop())
        return plan

    async def _serve(self, plan):
        async with ClusterRouter(self._options()) as cluster:
            target = _RecordingTarget(cluster)
            results, wall = await run_closed_loop(target, plan)
            await cluster.drain()
            stats = await cluster.stats()
        target.cluster = None  # keep only the answers past the pass
        return results, wall, stats, target

    def run_pass(self, plan, budget: float) -> PassResult:
        results, wall, stats, target = asyncio.run(self._serve(plan))
        errors = {answer_digest(response.result): int(response.result.error)
                  for _, response in target.answers}
        records, seen = [], set()
        for op in results:
            kind = {"query": "query", "session_edit": "edit"}.get(op.kind, "open")
            solved = not op.cache_hit if kind == "query" else op.served in ("warm", "cold")
            first = op.fingerprint not in seen
            seen.add(op.fingerprint)
            records.append(
                OpRecord(
                    kind,
                    op.latency,
                    key=op.key,
                    core=first,
                    ok=op.ok,
                    solved=op.ok and solved,
                    error=errors.get(op.digest, 0),
                    digest=op.digest,
                )
            )
        totals = stats.totals
        hits, misses = totals.cache.get("hits", 0), totals.cache.get("misses", 0)
        routed = sum(stats.routed)
        counters = {
            "engine.cache_hits": hits,
            "engine.cache_misses": misses,
            # From the counts: the router's totals.cache["hit_rate"] sums
            # the per-shard ratios and is not a ratio.
            "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.solver_invocations": totals.solver_invocations,
            "engine.incremental_parent_hits": totals.incremental.get("parent_hits", 0),
            "engine.incremental_exact_hits": totals.incremental.get("exact_hits", 0),
            "engine.cold_solves": totals.incremental.get("cold_solves", 0),
            "service.batches": totals.batches,
            "service.coalesced": totals.coalesced,
            "cluster.routed": routed,
            "cluster.shed": sum(stats.shed),
            "cluster.peak_queue_depth": max(stats.peak_queue_depth, default=0),
            "cluster.max_shard_share": max(stats.routed) / routed if routed else 0.0,
            "loadgen.retries": sum(op.retries for op in results),
            "loadgen.backoff_s": sum(op.backoff_time for op in results),
        }

        def verify() -> list:
            failures = [
                failure
                for index, (problem, result) in enumerate(target.checked_answers())
                for failure in _check_answer(problem, result, f"serve_mix answer {index}")
            ]
            digests: dict = {}
            for op in results:
                if op.ok and op.fingerprint:
                    digests.setdefault(op.fingerprint, set()).add(op.digest)
            failures += [
                f"serve_mix: fingerprint {fingerprint[:12]} got {len(answers)} digests"
                for fingerprint, answers in digests.items()
                if len(answers) != 1
            ]
            return failures

        return PassResult(records, wall, counters=counters, verify=verify)


WORKLOADS = {cls.name: cls for cls in (ExactSolve, SymGDScale, ServeMix)}

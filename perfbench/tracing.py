"""Per-layer tracing for the benchmark, recorded from the benchmark's own code.

The program under test is not edited: :class:`LayerTracer` wraps the public
functions at each layer boundary (solver LP calls, bound tightening,
branch-and-bound, formulation build, prune, SYM-GD, RankHow, verification,
error evaluation, fingerprinting, the method registry, the engine, the query
server and the cluster router) for the duration of a ``with`` block and
restores the originals on exit.  Every wrapped call records a span -- name,
start, end and the span that caused it -- in memory; :meth:`fold` turns the
spans into per-layer self time (a span's duration minus the part of it that
its child spans cover) and call counts.

Causality follows the caller's ``contextvars`` context, which asyncio tasks
inherit.  The query server hands solves to an executor thread that does not
inherit it, so engine spans also carry the fingerprints they served and a
server span adopts as children the engine spans that served its fingerprint
inside its own interval: one request's spans share that identifier.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

__all__ = ["LayerTracer"]


class _Span:
    __slots__ = ("name", "parent", "start", "end", "keys")

    def __init__(self, name: str, parent, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.keys: frozenset = frozenset()


# Span names whose fingerprints link them, across the executor hop, under
# the server span that submitted the same fingerprint.
_LINK_PROVIDER = "engine.dispatch"
_LINK_CONSUMER = "service.submit"


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class LayerTracer:
    """Install timing wrappers on entry, restore the originals on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )
        self._restore: list = []
        self._pruned_outputs: dict = {}
        self.missing: list = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _open(self, name: str):
        span = _Span(name, self._current.get(), time.perf_counter())
        return span, self._current.set(span)

    def _close(self, span: _Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name: str, fn, hook):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if hook is not None:
                    hook(tracer, span, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, token)
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _install(self, module_name: str, qualname: str, name: str, hook) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if attr not in vars(owner):
            self.missing.append(f"{module_name}.{qualname}")
            return
        original = vars(owner)[attr]
        wrapper = self._wrap(name, original, hook)
        self._set(owner, attr, original, wrapper)
        if owner is module:
            # ``from module import fn`` copies the binding: rebind it in
            # every loaded module of the package so those callers are timed.
            for other in list(sys.modules.values()):
                if other is module or not getattr(other, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __enter__(self) -> "LayerTracer":
        for module_name, qualname, name, hook in _TARGETS:
            self._install(module_name, qualname, name, hook)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._pruned_outputs.clear()

    # -- folding --------------------------------------------------------------

    def fold(self) -> tuple[dict, dict]:
        """``({layer: self seconds}, {layer: span count})`` over all spans."""
        children: dict = defaultdict(list)
        providers: dict = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
            if span.name == _LINK_PROVIDER:
                for key in span.keys:
                    providers[key].append(span)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            intervals = list(children.get(id(span), ()))
            if span.name == _LINK_CONSUMER:
                for key in span.keys:
                    intervals.extend(
                        (linked.start, linked.end)
                        for linked in providers.get(key, ())
                        if linked.start >= span.start and linked.end <= span.end
                    )
            duration = span.end - span.start
            self_time[span.name] += duration - _covered(span.start, span.end, intervals)
            calls[span.name] += 1
        return dict(self_time), dict(calls)


# -- per-layer counters read from the wrapped calls' inputs and results ------


def _bnb_counts(tracer, span, args, solution) -> None:
    tracer.count("solvers.branch_and_bound.nodes", int(solution.nodes))
    tracer.count("solvers.branch_and_bound.lp_iterations", int(solution.lp_iterations))


def _formulation_counts(tracer, span, args, _result) -> None:
    formulation = args[0]
    tracer.count("core.formulation.indicators", formulation.num_indicator_variables)
    tracer.count("core.formulation.eliminated", formulation.num_eliminated_indicators)


def _prune_counts(tracer, span, args, info) -> None:
    # Re-pruning a prune's own output is a memoized no-op; counting its rows
    # would dilute the kept ratio, so only first-hand inputs count.
    problem = args[0]
    if id(problem) in tracer._pruned_outputs:
        return
    tracer._pruned_outputs[id(info.problem)] = info.problem
    tracer.count("core.prune.original_rows", int(info.original_n))
    tracer.count("core.prune.kept_rows", int(info.problem.num_tuples))


def _symgd_counts(tracer, span, args, result) -> None:
    tracer.count("core.symgd.iterations", int(result.iterations))


def _dispatch_keys(tracer, span, args, outcomes) -> None:
    if not isinstance(outcomes, list):
        outcomes = [outcomes]
    span.keys = frozenset(outcome.fingerprint for outcome in outcomes)


def _response_key(tracer, span, args, response) -> None:
    outcome = getattr(response, "outcome", None)
    if outcome is not None:
        span.keys = frozenset((outcome.fingerprint,))


_TARGETS = (
    ("repro.solvers.lp", "LinearProgram.solve", "solvers.lp", None),
    ("repro.solvers.lp", "PreparedStandardForm.solve", "solvers.lp", None),
    ("repro.solvers.presolve", "BoundTightener.tighten", "solvers.presolve.tighten", None),
    (
        "repro.solvers.branch_and_bound",
        "BranchAndBoundSolver.solve",
        "solvers.branch_and_bound",
        _bnb_counts,
    ),
    (
        "repro.core.formulation",
        "RankHowFormulation.__init__",
        "core.formulation.build",
        _formulation_counts,
    ),
    ("repro.core.prune", "prune_problem", "core.prune", _prune_counts),
    ("repro.core.symgd", "SymGD.solve", "core.symgd", _symgd_counts),
    ("repro.core.rankhow", "RankHow.solve", "core.rankhow", None),
    ("repro.core.precision", "verify_weights", "core.precision.verify", None),
    ("repro.core.problem", "RankingProblem.error_of", "core.problem.error_eval", None),
    ("repro.core.problem", "RankingProblem.errors_of_many", "core.problem.error_eval", None),
    ("repro.engine.fingerprint", "fingerprint", "engine.fingerprint", None),
    ("repro.engine.fingerprint", "compute_problem_digest", "engine.fingerprint", None),
    ("repro.api.registry", "SynthesisMethod.synthesize_resolved", "api.synthesize", None),
    ("repro.api.methods", "RankHowMethod.synthesize_resolved", "api.synthesize", None),
    ("repro.engine.engine", "SolveEngine.solve_batch", "engine.dispatch", _dispatch_keys),
    (
        "repro.engine.engine",
        "SolveEngine.solve_incremental",
        "engine.dispatch",
        _dispatch_keys,
    ),
    ("repro.service.server", "QueryServer.submit", "service.submit", _response_key),
    ("repro.service.server", "QueryServer.submit_session", "service.submit", _response_key),
    ("repro.service.server", "QueryServer.open_session", "service.submit", None),
    ("repro.cluster.router", "ClusterRouter.submit", "cluster.route", None),
    ("repro.cluster.router", "ClusterRouter.submit_session", "cluster.route", None),
    ("repro.cluster.router", "ClusterRouter.open_session", "cluster.route", None),
)

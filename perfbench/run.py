"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact_solve --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``exact_solve``, ``symgd_scale`` and ``serve_mix``.  The seed makes the
inputs; the program only sees the generated inputs.

With ``--trace 0`` the workload is set up several times (``setup_s`` is the
median), warmed up, and then run in passes until ``--seconds`` have passed,
with no timing wrappers installed.  The end-to-end metrics, printed for
every workload:

* ``solve_p50_s`` -- median wall time of an answer that needed a solve
  (every call on the solver workloads; cache misses and warm or cold
  session edits on serve_mix);
* ``problems_per_s`` / ``ops_per_s`` -- such answers / all answered
  operations per second of measured time;
* ``query_p50_ms`` -- median latency of a query (on the solver workloads
  every call is one);
* ``total_error`` -- sum of the position errors of the fixed, seed-determined
  answers of the first pass (see ``workloads.py``);
* ``setup_s`` -- input generation plus target start-up, timed apart;
* ``peak_rss_mb`` -- peak resident memory of the process.

With ``--trace 1`` untraced and traced passes alternate.  The per-layer
metrics come from the traced passes (see ``perfbench/tracing.py``): self
time per pass and counts per layer, every ratio next to its base, and the
tracing overhead (traced over untraced wall time, minus one).  The figures
that are zero on some workload -- ``query_p95_ms`` (zero with fewer than
200 queries), ``edit_p50_ms``, ``optimal_share`` and ``failed_share`` --
are reported there too, from the untraced passes, with their sample counts.

Every answer is checked (see ``workloads.py``) and every repeated operation
must repeat its answer.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it record the environment and all figures of the run.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def _git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(ROOT),
        "source_sha256": _source_digest(ROOT / "src"),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values, q: float) -> float:
    """Nearest-rank percentile, or 0 without enough samples beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(passes: list) -> dict:
    """The bounded end-to-end metrics plus the per-workload extras."""
    records = [record for result in passes for record in result.records]
    wall = sum(result.wall for result in passes)
    done = [r for r in records if r.ok and r.kind != "open"]
    solved = [r.latency for r in done if r.solved]
    queries = [r.latency for r in done if r.kind == "query"]
    edits = [r.latency for r in done if r.kind == "edit"]
    first = [r for r in passes[0].records if r.ok and r.kind != "open" and r.core]
    attempted = sum(1 for r in records if r.kind != "open")
    return {
        "solve_p50_s": _median(solved),
        "problems_per_s": len(solved) / wall,
        "ops_per_s": len(done) / wall,
        "query_p50_ms": 1e3 * _median(queries),
        "total_error": float(sum(r.error for r in first)),
        # Extras: zero where the workload has no such operations.
        "query_p95_ms": 1e3 * _tail(queries, 0.95),
        "query_samples": len(queries),
        "edit_p50_ms": 1e3 * _median(edits),
        "edit_samples": len(edits),
        "optimal_share": sum(r.optimal for r in first) / len(first) if first else 0.0,
        "core_answers": len(first),
        "failed_share": sum(1 for r in records if not r.ok) / attempted if attempted else 0.0,
        "passes": len(passes),
        "wall_s": wall,
    }


def _failures(passes: list) -> list:
    failures = [message for result in passes for message in result.verify()]
    digests: dict = {}
    for record in (r for result in passes for r in result.records):
        if digests.setdefault(record.key, record.digest) != record.digest:
            failures.append(f"operation {record.key} answered differently when repeated")
    return failures


def _attempts(passes: list) -> tuple[int, int]:
    ops = [r for result in passes for r in result.records if r.kind != "open"]
    return len(ops), sum(1 for r in ops if not r.ok)


UNITS = {
    "solve_p50_s": "s",
    "problems_per_s": "1/s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "total_error": "positions",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p95_ms": "ms",
    "edit_p50_ms": "ms",
    "optimal_share": "ratio",
    "failed_share": "ratio",
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, inputs, seconds: float, setup_s: float) -> tuple[dict, list]:
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(inputs, seconds - (time.perf_counter() - started)))
    figures = end_to_end(passes)
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"workload": workload.name, "end_to_end": figures}))
    names = ("solve_p50_s", "problems_per_s", "ops_per_s", "query_p50_ms",
             "total_error", "setup_s", "peak_rss_mb")
    return {name: _metric(figures[name], UNITS[name]) for name in names}, passes


def run_traced(workload, inputs, seconds: float) -> tuple[dict, list]:
    from tracing import LayerTracer

    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(workload.run_pass(inputs, 0.0))
        with LayerTracer() as tracer:
            traced.append(workload.run_pass(inputs, 0.0))
        layers.append((tracer.fold(), dict(tracer.counts), tracer.missing))
    if layers[0][2]:
        print(f"perfbench: not traced (absent): {layers[0][2]}", file=sys.stderr)
    untraced_figures, traced_figures = end_to_end(plain), end_to_end(traced)
    print(json.dumps({"workload": workload.name, "end_to_end_untraced": untraced_figures,
                      "end_to_end_traced": traced_figures}))

    def self_s(name: str) -> float:
        return statistics.fmean(fold[0][0].get(name, 0.0) for fold in layers)

    (_, calls), counts = layers[0][0], layers[0][1]
    counts = {**counts, **traced[0].counters}
    indicators = counts.get("core.formulation.indicators", 0)
    eliminated = counts.get("core.formulation.eliminated", 0)
    original_rows = counts.get("core.prune.original_rows", 0)
    metrics = {
        "solvers.lp.self_s": (self_s("solvers.lp"), "s"),
        "solvers.lp.calls": (calls.get("solvers.lp", 0), "count"),
        "solvers.presolve.tighten_self_s": (self_s("solvers.presolve.tighten"), "s"),
        "solvers.presolve.tighten_calls": (calls.get("solvers.presolve.tighten", 0), "count"),
        "solvers.branch_and_bound.self_s": (self_s("solvers.branch_and_bound"), "s"),
        "solvers.branch_and_bound.nodes": (counts.get("solvers.branch_and_bound.nodes", 0), "count"),
        "solvers.branch_and_bound.lp_iterations": (
            counts.get("solvers.branch_and_bound.lp_iterations", 0), "count"),
        "core.formulation.build_self_s": (self_s("core.formulation.build"), "s"),
        "core.formulation.indicators": (indicators, "count"),
        "core.formulation.eliminated": (eliminated, "count"),
        "core.formulation.eliminated_ratio": (
            eliminated / (indicators + eliminated) if indicators + eliminated else 0.0, "ratio"),
        "core.prune.self_s": (self_s("core.prune"), "s"),
        "core.prune.original_rows": (original_rows, "count"),
        "core.prune.kept_ratio": (
            counts.get("core.prune.kept_rows", 0) / original_rows if original_rows else 0.0,
            "ratio"),
        "core.symgd.self_s": (self_s("core.symgd"), "s"),
        "core.symgd.iterations": (counts.get("core.symgd.iterations", 0), "count"),
        "core.rankhow.self_s": (self_s("core.rankhow"), "s"),
        "core.precision.verify_self_s": (self_s("core.precision.verify"), "s"),
        "core.problem.error_eval_self_s": (self_s("core.problem.error_eval"), "s"),
        "api.synthesize_self_s": (self_s("api.synthesize"), "s"),
        "engine.fingerprint_self_s": (self_s("engine.fingerprint"), "s"),
        "engine.dispatch_self_s": (self_s("engine.dispatch"), "s"),
        "service.submit_self_s": (self_s("service.submit"), "s"),
        "cluster.route_self_s": (self_s("cluster.route"), "s"),
    }
    for name in _COUNTERS:
        unit = "ratio" if name.endswith(("_ratio", "_share")) else "s" if name.endswith("_s") else "count"
        metrics[name] = (counts.get(name, 0), unit)
    untraced_wall = sum(result.wall for result in plain)
    traced_wall = sum(result.wall for result in traced)
    metrics.update({
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (statistics.fmean(sum(fold[0][1].values()) for fold in layers), "count"),
    })
    for name in ("query_p95_ms", "edit_p50_ms", "optimal_share", "failed_share"):
        metrics[name] = (untraced_figures[name], UNITS[name])
    for name in ("query_samples", "edit_samples", "core_answers"):
        metrics[name] = (untraced_figures[name], "count")
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}, plain + traced


_COUNTERS = (
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.cache_hit_ratio",
    "engine.solver_invocations",
    "engine.incremental_parent_hits",
    "engine.incremental_exact_hits",
    "engine.cold_solves",
    "service.batches",
    "service.coalesced",
    "cluster.routed",
    "cluster.shed",
    "cluster.peak_queue_depth",
    "cluster.max_shard_share",
    "loadgen.retries",
    "loadgen.backoff_s",
)


def run(args) -> dict:
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[args.workload]()
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    warm_up()
    if args.trace:
        metrics, passes = run_traced(workload, inputs, args.seconds)
    else:
        metrics, passes = run_untraced(workload, inputs, args.seconds, _median(setups))
    failures = _failures(passes)
    for message in failures:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    attempted, failed = _attempts(passes)
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_solve", "symgd_scale", "serve_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    # Every file the run writes (memory-mapped relations, temporaries)
    # stays inside the checkout and is removed afterwards.
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    try:
        result = run(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

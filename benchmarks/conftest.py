"""Shared configuration for the per-figure benchmarks.

Each benchmark wraps one experiment from :mod:`repro.bench.experiments`.  The
default scale here is intentionally small so that the full
``pytest benchmarks/ --benchmark-only`` run completes in tens of minutes on a
laptop while preserving the paper's qualitative comparisons; export
``REPRO_BENCH_SCALE=paper`` (and expect very long runtimes) or edit
``BENCH_SCALE`` to enlarge the workloads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.harness import BenchmarkScale

REPO_ROOT = Path(__file__).resolve().parent.parent


def baseline_path(experiment: str) -> Path:
    """The committed ``BENCH_<experiment>.json`` file at the repository root."""
    return REPO_ROOT / f"BENCH_{experiment}.json"


def write_baseline(experiment: str, records, **extra) -> None:
    """Rewrite ``BENCH_<experiment>.json`` with ``records``.

    ``extra`` adds top-level keys next to ``schema``, ``experiment`` and
    ``records`` (for example a budget the records are judged against).
    """
    payload = {
        "schema": 1,
        "experiment": experiment,
        **extra,
        "records": [record.as_row() for record in records],
    }
    baseline_path(experiment).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def bench_scale() -> BenchmarkScale:
    """Scale used by the benchmark wrappers (env-var override supported)."""
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper":
        return BenchmarkScale.from_environment()
    return BenchmarkScale(
        name="bench",
        nba_tuples=200,
        csrankings_tuples=100,
        synthetic_tuples=1500,
        rankhow_time_limit=10.0,
        symgd_time_limit=8.0,
        tree_time_limit=10.0,
    )

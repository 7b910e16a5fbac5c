"""Performance engineering for the reproduction: ``repro.perf``.

Two concerns live here, both in service of running the paper's
experiments faster without changing a single measured number:

* The **parallel sweep executor** (:mod:`repro.perf.parallel`) —
  fork-based sharding of embarrassingly parallel sweep points with an
  ordered merge and deterministic per-shard seeding, so parallel runs
  are byte-identical to serial ones.
* The **benchmark trajectory** (:mod:`repro.perf.bench`) — ``repro
  bench`` medians recorded in ``BENCH_PERF.json`` and gated against
  both speedup floors and the committed baseline.

The vectorized engines themselves live beside the semantics they
implement: :mod:`repro.speculation.sparse` (pair counting, batched
``P*`` rows) and :mod:`repro.speculation.columnar` (whole-trace
replay).
"""

from .bench import (
    MAX_REGRESSION,
    PAIRED_SUFFIXES,
    SCALES,
    WALL_MAX_REGRESSION,
    BenchScale,
    build_report,
    enforce_gate,
    find_regressions,
    load_baseline,
    machine_fingerprint,
    merge_reports,
    run_scale,
    time_wall,
    write_baseline,
)
from .parallel import default_workers, fork_available, parallel_map, spawn_seeds

__all__ = [
    "MAX_REGRESSION",
    "PAIRED_SUFFIXES",
    "SCALES",
    "BenchScale",
    "WALL_MAX_REGRESSION",
    "build_report",
    "default_workers",
    "enforce_gate",
    "find_regressions",
    "fork_available",
    "load_baseline",
    "machine_fingerprint",
    "merge_reports",
    "parallel_map",
    "run_scale",
    "spawn_seeds",
    "time_wall",
    "write_baseline",
]

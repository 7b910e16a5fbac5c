"""Benchmark-trajectory layer: measure, record, and gate engine speed.

``repro bench`` times the engine's hot loops at a fixed reference
configuration — dependency estimation and the whole-universe closure
as absolute medians, and the full baseline+policy replay pair through
the general event loop versus the vectorized columnar engine.  The
medians land in ``BENCH_PERF.json`` together with a machine fingerprint
and the git revision, so the committed file is a performance
trajectory of the repository: every entry says *this revision ran this
fast on this machine*.

Two kinds of gate protect that trajectory:

* **Speedup floors** — where two implementations both stay in ``src/``
  (columnar replay over the general loop) the fast one must beat the
  other by a fixed factor.  Speedup is a *ratio of two measurements on
  the same machine in the same run*, so it is stable across hardware
  and is enforced unconditionally.  The floors live in :data:`SCALES`.
* **Absolute regression** — medians may not slow down against the
  committed baseline.  Wall-clock medians only compare across runs on
  the same machine, so this check applies only when the stored
  fingerprint matches the current one.  A median with an interleaved
  reference partner (see :data:`PAIRED_SUFFIXES`) is held to
  :data:`MAX_REGRESSION` after load-normalizing by the partner's drift,
  so shared-host noise does not read as a regression; the partner is
  recorded as the load reference, not gated: its drift *is* the noise
  measurement.  Every other median — ``estimation``, ``closure`` and
  the injected ``*_wall`` sections (:func:`time_wall`, e.g. the fleet
  smoke and the sharded loadtest handed down by the CLI) — has no
  partner and is gated strictly at the wider
  :data:`WALL_MAX_REGRESSION`.

Violations raise :class:`~repro.errors.PerfRegressionError`, which the
CLI maps to exit code 5.  The file records no timestamps — it changes
only when the measurements change, keeping diffs reviewable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config import BASELINE
from ..errors import PerfRegressionError
from ..speculation.caches import make_cache_factory
from ..speculation.dependency import DependencyModel
from ..speculation.policies import ThresholdPolicy
from ..speculation.simulator import SpeculativeServiceSimulator
from ..workload import GeneratorConfig, SyntheticTraceGenerator

#: Allowed slow-down of a partnered median versus the committed
#: baseline before the gate fails (same-machine comparisons only).
MAX_REGRESSION = 0.25

#: Allowed slow-down of a median with no interleaved reference partner
#: to normalize machine load away (``estimation``, ``closure``, the
#: injected ``*_wall`` sections): the comparison is strict but the
#: tolerance is wider.
WALL_MAX_REGRESSION = 0.5

#: Default location of the committed baseline, relative to the cwd.
DEFAULT_BASELINE = Path("BENCH_PERF.json")

#: Gated-median suffix → interleaved reference-partner suffix.  Each
#: pair is sampled by :func:`_paired_medians`, the left side is gated
#: against the baseline load-normalized by the right side's drift, and
#: the right side is recorded ungated as the load reference.
PAIRED_SUFFIXES: dict[str, str] = {
    "_columnar": "_general",
}


@dataclass(frozen=True)
class BenchScale:
    """One reference configuration the suite can run at.

    Attributes:
        workload: Synthetic-workload configuration measured against.
        repeats: Timing repetitions per benchmark (median is reported).
        speedup_floors: Minimum reference-over-optimized speedup per
            metric; enforced on every run, independent of any baseline.
    """

    workload: GeneratorConfig
    repeats: int
    speedup_floors: dict[str, float]


#: The reference scales.  ``full`` matches the committed baseline and
#: the acceptance floors; ``smoke`` is sized for CI (a few seconds).
SCALES: dict[str, BenchScale] = {
    "full": BenchScale(
        workload=GeneratorConfig(
            seed=77, n_pages=120, n_clients=150, n_sessions=1500, duration_days=30
        ),
        repeats=9,
        speedup_floors={"replay_columnar": 2.0},
    ),
    "smoke": BenchScale(
        workload=GeneratorConfig(
            seed=77, n_pages=100, n_clients=100, n_sessions=900, duration_days=18
        ),
        repeats=9,
        speedup_floors={"replay_columnar": 2.0},
    ),
}

#: The T_p used by the replay benchmarks (the paper's mid-sweep point).
REPLAY_THRESHOLD = 0.25


def machine_fingerprint() -> dict[str, Any]:
    """Identity of the measuring machine, for baseline comparability."""
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def git_revision() -> str:
    """The current git commit sha, or ``"unknown"`` outside a checkout."""
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if probe.returncode != 0:
        return "unknown"
    return probe.stdout.strip() or "unknown"


def _median_seconds(runner: Callable[[], Any], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``runner``."""
    samples: list[float] = []
    for _ in range(repeats):
        begin = time.perf_counter()
        runner()
        samples.append(time.perf_counter() - begin)
    samples.sort()
    return samples[repeats // 2]


def _paired_medians(
    reference_pass: Callable[[], Any],
    gated_pass: Callable[[], Any],
    repeats: int,
) -> tuple[float, float]:
    """Median wall-clock seconds of each pass, sampled interleaved.

    The two implementations alternate within every repeat so a burst of
    co-tenant load lands on both rather than blanketing one stage's
    whole timing window — which keeps the reference stage a valid load
    reference for its gated partner.
    """
    reference_samples: list[float] = []
    gated_samples: list[float] = []
    for _ in range(repeats):
        begin = time.perf_counter()
        reference_pass()
        split = time.perf_counter()
        gated_pass()
        reference_samples.append(split - begin)
        gated_samples.append(time.perf_counter() - split)
    reference_samples.sort()
    gated_samples.sort()
    middle = repeats // 2
    return reference_samples[middle], gated_samples[middle]


def run_scale(name: str, *, repeats: int | None = None) -> dict[str, Any]:
    """Run the benchmark suite at one scale.

    Args:
        name: A key of :data:`SCALES`.
        repeats: Override the scale's timing repetitions.

    Returns:
        The scale section for the report: the workload configuration,
        per-benchmark medians in seconds, and the columnar-over-general
        replay speedup.
    """
    if name not in SCALES:
        raise PerfRegressionError(
            f"unknown bench scale {name!r}; expected one of {sorted(SCALES)}"
        )
    scale = SCALES[name]
    reps = scale.repeats if repeats is None else max(1, repeats)
    trace = SyntheticTraceGenerator(scale.workload).generate()

    medians: dict[str, float] = {}
    medians["estimation"] = _median_seconds(
        lambda: DependencyModel.estimate(trace, window=5.0), reps
    )

    model = DependencyModel.estimate(trace, window=5.0)
    documents = sorted(model.occurrence_counts)

    def closure_pass() -> None:
        # A fresh model per pass so memoized rows never trivialize the
        # timing; closure_rows computes the whole universe in one call.
        fresh = DependencyModel.from_counts(
            model.pair_counts, model.occurrence_counts
        )
        fresh.closure_rows(documents)

    medians["closure"] = _median_seconds(closure_pass, reps)

    # The ratio-producing unit of work: one baseline run plus one policy
    # run on the same simulator, replayed through the general event loop
    # (an explicit cache_factory with the default semantics selects it)
    # versus the vectorized columnar engine (bit-identical results; see
    # tests/test_columnar_replay.py).
    policy = ThresholdPolicy(threshold=REPLAY_THRESHOLD)
    pair_sim = SpeculativeServiceSimulator(trace, BASELINE, model=model)
    general_caches = make_cache_factory(BASELINE.session_timeout)

    def replay_pair(cache_factory: Callable[[], Any] | None) -> None:
        pair_sim.run(cache_factory=cache_factory)
        pair_sim.run(policy, cache_factory=cache_factory)

    medians["replay_pair_general"], medians["replay_pair_columnar"] = (
        _paired_medians(
            lambda: replay_pair(general_caches),
            lambda: replay_pair(None),
            reps,
        )
    )

    speedups = {
        "replay_columnar": (
            medians["replay_pair_general"] / medians["replay_pair_columnar"]
        ),
    }
    return {
        "workload": {
            "seed": scale.workload.seed,
            "n_pages": scale.workload.n_pages,
            "n_clients": scale.workload.n_clients,
            "n_sessions": scale.workload.n_sessions,
            "duration_days": scale.workload.duration_days,
        },
        "repeats": reps,
        "medians_seconds": medians,
        "speedups": speedups,
    }


def time_wall(
    name: str, runner: Callable[[], Any], *, repeats: int = 3
) -> dict[str, Any]:
    """Time an injected end-to-end pass as a report section.

    Higher layers (the CLI, the api facade) hand verbs this package
    must not import — the fleet smoke, for instance — down as plain
    callables; the section slots into :func:`build_report` next to the
    engine scales.  The median lands under ``<name>_wall`` and is gated
    against the committed baseline at :data:`WALL_MAX_REGRESSION`.

    Args:
        name: Section benchmark name; ``_wall`` is appended.
        runner: Zero-argument callable to time.
        repeats: Timing repetitions (median is reported).

    Returns:
        A scale-shaped section: ``repeats`` plus ``medians_seconds``.
    """
    reps = max(1, repeats)
    return {
        "repeats": reps,
        "medians_seconds": {f"{name}_wall": _median_seconds(runner, reps)},
    }


def build_report(sections: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Assemble the report written to ``BENCH_PERF.json``."""
    return {
        "machine": machine_fingerprint(),
        "git_sha": git_revision(),
        "scales": sections,
    }


def merge_reports(
    existing: dict[str, Any] | None, report: dict[str, Any]
) -> dict[str, Any]:
    """Fold a new report into a baseline, keeping untouched scales.

    A smoke run must not discard the committed full-scale section, so
    only the scales actually re-measured are replaced.
    """
    if not existing:
        return report
    sections = dict(existing.get("scales", {}))
    sections.update(report["scales"])
    return {**report, "scales": sections}


def load_baseline(path: Path) -> dict[str, Any] | None:
    """Read a committed baseline; ``None`` when absent or unparseable."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


def write_baseline(path: Path, report: dict[str, Any]) -> None:
    """Write the report as the new committed baseline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_scale(
    bench_name: str, current: dict[str, float], committed: dict[str, float]
) -> float:
    """Machine-load normalization factor for one absolute comparison.

    The reference stages (``*_general``) time implementations the
    optimized engines never touch — so when *those* medians drift
    versus the committed baseline, the machine is busier (or idler),
    not the code slower.  An optimized stage is normalized by its
    paired reference stage (:data:`PAIRED_SUFFIXES`; sampled
    interleaved, so both see the same load), falling back to the median
    drift of all reference stages in the section.  The factor is
    clamped to at least 1.0: a uniform slow-down of both passes
    (shared-host noise) cancels out, while a *differential* slow-down
    of the optimized pass is still flagged.  Without reference anchors
    the factor is 1.0 and the comparison is strict.
    """
    for gated_suffix, reference_suffix in PAIRED_SUFFIXES.items():
        if bench_name.endswith(gated_suffix):
            partner = bench_name[: -len(gated_suffix)] + reference_suffix
            if partner in current and committed.get(partner, 0) > 0:
                return max(1.0, current[partner] / committed[partner])
            break
    drifts = sorted(
        current[name] / committed[name]
        for name in current
        if name.endswith(tuple(PAIRED_SUFFIXES.values()))
        and committed.get(name, 0) > 0
    )
    if not drifts:
        return 1.0
    return max(1.0, drifts[len(drifts) // 2])


def find_regressions(
    report: dict[str, Any],
    baseline: dict[str, Any] | None,
    *,
    max_regression: float = MAX_REGRESSION,
    compare_absolute: bool = True,
) -> list[str]:
    """Every gate violation in ``report``, as human-readable findings.

    Speedup floors (:data:`SCALES`) are checked unconditionally.
    Absolute medians are compared only when a baseline exists,
    ``compare_absolute`` is set, and its machine fingerprint matches
    the current machine.  Matching fingerprints still share the host
    with other tenants, so each partnered median
    (:data:`PAIRED_SUFFIXES` left-hand suffixes) is load-normalized by
    its reference-stage drift (:func:`_load_scale`); the reference
    medians themselves are the load reference and are not gated, and
    partnerless medians are compared strictly at the wider tolerance.
    """
    findings: list[str] = []
    for scale_name, section in report.get("scales", {}).items():
        floors = SCALES[scale_name].speedup_floors if scale_name in SCALES else {}
        speedups = section.get("speedups", {})
        for metric, floor in floors.items():
            achieved = speedups.get(metric)
            if achieved is None or achieved < floor:
                findings.append(
                    f"{scale_name}: {metric} speedup "
                    f"{achieved if achieved is None else f'{achieved:.2f}x'} "
                    f"below the {floor:.1f}x floor"
                )

    if baseline is None or not compare_absolute:
        return findings
    if baseline.get("machine") != report.get("machine"):
        return findings
    for scale_name, section in report.get("scales", {}).items():
        reference = baseline.get("scales", {}).get(scale_name)
        if reference is None:
            continue
        committed = reference.get("medians_seconds", {})
        current = section.get("medians_seconds", {})
        for bench_name, median in current.items():
            if bench_name.endswith(tuple(PAIRED_SUFFIXES)):
                limit = max_regression
                tolerance = (1.0 + limit) * _load_scale(
                    bench_name, current, committed
                )
            elif bench_name.endswith(tuple(PAIRED_SUFFIXES.values())):
                # Reference medians are the load reference, not a gated
                # surface: their drift *defines* machine weather here.
                continue
            else:
                # No reference partner to normalize by (estimation,
                # closure, the injected wall sections): strict
                # comparison at the wider tolerance.
                limit = WALL_MAX_REGRESSION
                tolerance = 1.0 + limit
            anchor = committed.get(bench_name)
            if anchor is None or anchor <= 0:
                continue
            if median > anchor * tolerance:
                findings.append(
                    f"{scale_name}: {bench_name} median {median * 1e3:.1f}ms "
                    f"regressed >{limit:.0%} versus the committed "
                    f"{anchor * 1e3:.1f}ms (load-normalized)"
                )
    return findings


def enforce_gate(
    report: dict[str, Any],
    baseline: dict[str, Any] | None,
    *,
    max_regression: float = MAX_REGRESSION,
    compare_absolute: bool = True,
) -> None:
    """Raise :class:`PerfRegressionError` if any gate is violated."""
    findings = find_regressions(
        report,
        baseline,
        max_regression=max_regression,
        compare_absolute=compare_absolute,
    )
    if findings:
        raise PerfRegressionError(
            "performance gate failed:\n" + "\n".join(f"  - {f}" for f in findings)
        )

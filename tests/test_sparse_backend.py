"""Bit-identity of the vectorized dependency engine with its oracle,
of the columnar replay with the general loop, and of the parallel sweep
executor — plus the ``repro bench`` gate logic.

The engine's whole contract is *exact* equality with the pure-Python
reference in ``tests/oracles/dependency_reference.py``: same pair
counts, same closure rows, same replay metrics, same four ratios, down
to the last float bit.  Every test here asserts with ``==``, never
``pytest.approx``.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BASELINE
from repro.core import Experiment, interpolate_at_traffic, evaluate_thresholds
from repro.errors import PerfRegressionError
from repro.perf import (
    enforce_gate,
    find_regressions,
    merge_reports,
    parallel_map,
    spawn_seeds,
    time_wall,
)
from repro.speculation.aging import AgingDependencyCounter
from repro.speculation.caches import make_cache_factory
from repro.speculation.dependency import DependencyModel
from repro.speculation.metrics import compare
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.simulator import SpeculativeServiceSimulator
from repro.speculation.user_profiles import UserProfile
from repro.trace.records import Request, Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

from .oracles.dependency_reference import (
    ReferenceModel,
    reference_closure_row,
    reference_pair_counts,
)


@pytest.fixture(scope="module")
def small_trace():
    config = GeneratorConfig(
        seed=11, n_pages=60, n_clients=50, n_sessions=400, duration_days=10
    )
    return SyntheticTraceGenerator(config).generate()


@pytest.fixture(scope="module")
def reference_trace():
    # The reference configuration `repro bench` times and gates.
    config = GeneratorConfig(
        seed=77, n_pages=120, n_clients=150, n_sessions=1500, duration_days=30
    )
    return SyntheticTraceGenerator(config).generate()


@functools.lru_cache(maxsize=8)
def _tiny_trace(seed: int):
    config = GeneratorConfig(
        seed=seed, n_pages=24, n_clients=12, n_sessions=80, duration_days=4
    )
    return SyntheticTraceGenerator(config).generate()


def _oracle_rows(model, documents, **pruning):
    pairs, occurrences = model.pair_counts, model.occurrence_counts
    return {
        doc: reference_closure_row(pairs, occurrences, doc, **pruning)
        for doc in documents
    }


# -- estimation and closure parity --------------------------------------------


@pytest.mark.parametrize(
    ("window", "stride_timeout"),
    [(5.0, None), (5.0, 5.0), (2.0, 10.0), (30.0, math.inf), (5.0, 0.0)],
)
def test_estimation_parity_exact(small_trace, window, stride_timeout):
    model = DependencyModel.estimate(
        small_trace, window=window, stride_timeout=stride_timeout
    )
    pairs, occurrences = reference_pair_counts(
        small_trace, window, window if stride_timeout is None else stride_timeout
    )
    assert model.pair_counts == pairs
    assert model.occurrence_counts == occurrences


@settings(max_examples=24, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5),
    window=st.sampled_from([1.0, 5.0, math.inf]),
    stride_timeout=st.sampled_from([0.0, 5.0, 8.0, math.inf]),
)
def test_estimation_matches_oracle_random(seed, window, stride_timeout):
    trace = _tiny_trace(seed)
    model = DependencyModel.estimate(
        trace, window=window, stride_timeout=stride_timeout
    )
    pairs, occurrences = reference_pair_counts(trace, window, stride_timeout)
    assert model.pair_counts == pairs
    assert model.occurrence_counts == occurrences


def test_closure_parity_exact_at_reference_scale(reference_trace):
    model = DependencyModel.estimate(reference_trace, window=5.0)
    documents = sorted(model.occurrence_counts)
    assert model.closure_rows(documents) == _oracle_rows(model, documents)


def test_fractional_counts_closure_matches_oracle(small_trace):
    # Aged counts are the one input whose counts are not whole numbers:
    # the first batch is decayed by 0.9 ** days before the second folds
    # in.  The engine divides the caller's own floats, so rows must
    # still equal the reference relaxation exactly.
    counter = AgingDependencyCounter(decay_per_day=0.9, window=5.0)
    middle = (small_trace.start_time + small_trace.end_time) / 2
    counter.observe(small_trace.window(small_trace.start_time, middle))
    counter.observe(small_trace.window(middle, small_trace.end_time + 1.0))
    model = counter.snapshot()
    assert any(
        count != int(count)
        for row in model.pair_counts.values()
        for count in row.values()
    )
    documents = sorted(model.occurrence_counts)
    for pruning in ({}, {"min_probability": 0.2, "max_hops": 3}):
        assert model.closure_rows(documents, **pruning) == _oracle_rows(
            model, documents, **pruning
        )


def test_user_profile_model_closure_matches_oracle(small_trace):
    visits = {}
    for request in small_trace:
        visits.setdefault(request.client, []).append(request)
    profile = UserProfile(window=30.0)
    for request in max(visits.values(), key=len):
        profile.observe(request.doc_id, request.timestamp)
    model = profile.as_model()
    documents = sorted(model.occurrence_counts)
    assert any(model.closure_rows(documents).values())
    assert model.closure_rows(documents) == _oracle_rows(model, documents)


# -- the headline pipeline: identical sweeps and interpolated numbers ---------


def _general_loop(simulator, policy, config):
    # An explicit cache_factory selects the general loop even when the
    # columnar preconditions hold.
    return simulator.run(
        policy, cache_factory=make_cache_factory(config.session_timeout)
    )


def _oracle_evaluate(experiment, policy):
    """``Experiment.evaluate`` with nothing shared but the general loop:
    reference counting, reference closure, event-by-event replay."""
    config = experiment.config
    model = ReferenceModel(
        experiment.train, config.stride_timeout, config.stride_timeout
    )
    simulator = SpeculativeServiceSimulator(experiment.test, config, model=model)
    run = _general_loop(simulator, policy, config)
    base = _general_loop(simulator, None, config)
    return compare(run.metrics, base.metrics), run


def test_headline_pipeline_parity(small_trace):
    grid = [0.95, 0.5, 0.25, 0.1]
    experiment = Experiment(small_trace, BASELINE, train_days=5.0)
    points = evaluate_thresholds(experiment, grid)
    oracle_points = [
        _oracle_evaluate(experiment, ThresholdPolicy(threshold=tp)) for tp in grid
    ]
    assert [(p.ratios, p.run) for p in points] == oracle_points
    oracle_sweep = [
        type(points[0])(parameter=tp, ratios=ratios, run=run)
        for tp, (ratios, run) in zip(grid, oracle_points)
    ]
    for level in (0.05, 0.10, 0.50, 1.00):
        assert interpolate_at_traffic(points, level) == interpolate_at_traffic(
            oracle_sweep, level
        )


# -- the columnar engine vs the general loop ----------------------------------


@pytest.mark.parametrize("session_timeout", [math.inf, 1800.0, 0.0])
def test_fast_path_matches_general_loop(small_trace, session_timeout):
    config = BASELINE.with_updates(session_timeout=session_timeout)
    model = DependencyModel.estimate(small_trace, window=config.stride_timeout)
    simulator = SpeculativeServiceSimulator(small_trace, config, model=model)
    embedding_only = ThresholdPolicy(threshold=0.95, use_closure=False)
    for policy in (None, ThresholdPolicy(threshold=0.25), embedding_only):
        fast = simulator.run(policy)
        reference = _general_loop(simulator, policy, config)
        assert fast.metrics == reference.metrics
        assert fast.cache_hits == reference.cache_hits
        assert fast.accesses == reference.accesses


def test_fast_path_four_ratio_parity(reference_trace):
    experiment = Experiment(reference_trace, BASELINE, train_days=15.0)
    policy = ThresholdPolicy(threshold=0.25)
    ratios, run = experiment.evaluate(policy)
    oracle_ratios, oracle_run = _oracle_evaluate(experiment, policy)
    assert ratios == oracle_ratios
    assert run == oracle_run


# -- incremental estimation: random observe/refresh interleavings -------------

_GAPS = [0.5, 2.0, 6.0, 12.0]


@settings(max_examples=25, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 4), st.integers(0, 9), st.integers(0, len(_GAPS) - 1)
        ),
        min_size=1,
        max_size=60,
    ),
    refresh_after=st.sets(st.integers(0, 59), max_size=5),
)
def test_incremental_parity_random(events, refresh_after):
    model = DependencyModel.incremental(window=5.0, stride_timeout=8.0)
    requests = []
    now = 0.0
    for index, (client, doc, gap) in enumerate(events):
        now += _GAPS[gap]
        model.observe(f"c{client}", f"d{doc}", now)
        requests.append(Request(now, f"c{client}", f"d{doc}", 100))
        if index in refresh_after:
            model.refresh_closure()
            documents = sorted(model.occurrence_counts)
            assert model.closure_rows(documents) == _oracle_rows(model, documents)
    pairs, occurrences = reference_pair_counts(Trace(requests), 5.0, 8.0)
    assert model.pair_counts == pairs
    assert model.occurrence_counts == occurrences
    documents = sorted(model.occurrence_counts)
    model.refresh_closure()
    assert model.closure_rows(documents) == _oracle_rows(model, documents)


def test_dirty_row_refresh_equals_full_recompute():
    model = DependencyModel.incremental(window=5.0, stride_timeout=8.0)
    now = 0.0
    for step in range(80):
        now += 1.5
        model.observe(f"c{step % 5}", f"d{step % 11}", now)
    # Populate the closure cache for the full universe, then dirty a
    # few source rows with more observations.
    model.refresh_closure()
    model.closure_rows(sorted(model.occurrence_counts))
    for step in range(20):
        now += 1.5
        model.observe(f"c{step % 3}", f"d{(step * 3) % 7}", now)
    model.refresh_closure()

    fresh = DependencyModel.from_counts(model.pair_counts, model.occurrence_counts)
    for doc in sorted(model.occurrence_counts):
        assert model.closure_row(doc) == fresh.closure_row(doc)
        assert model.closure_row(doc) == reference_closure_row(
            model.pair_counts, model.occurrence_counts, doc
        )


# -- the parallel sweep executor ----------------------------------------------


def _cube(value):
    return value**3


def test_parallel_map_is_ordered_and_identical():
    items = list(range(20))
    serial = parallel_map(_cube, items, workers=1)
    assert serial == [_cube(item) for item in items]
    assert parallel_map(_cube, items, workers=4) == serial


def test_parallel_map_accepts_closures():
    offset = 7
    assert parallel_map(lambda v: v + offset, [1, 2, 3], workers=2) == [8, 9, 10]


def test_spawn_seeds_deterministic():
    seeds = spawn_seeds(123, 6)
    assert seeds == spawn_seeds(123, 6)
    assert len(set(seeds)) == 6
    assert all(seed >= 0 for seed in seeds)
    assert spawn_seeds(124, 6) != seeds
    with pytest.raises(ValueError):
        spawn_seeds(123, -1)


def test_parallel_threshold_sweep_byte_identical(small_trace):
    experiment = Experiment(small_trace, BASELINE, train_days=5.0)
    grid = [0.9, 0.5, 0.25, 0.1]
    serial = evaluate_thresholds(experiment, grid)
    parallel = evaluate_thresholds(experiment, grid, workers=4)
    assert parallel == serial


# -- the bench gate -----------------------------------------------------------


def _section(speedups, medians):
    return {
        "repeats": 3,
        "medians_seconds": medians,
        "speedups": speedups,
    }


def _report(machine, **scales):
    return {"machine": machine, "git_sha": "deadbeef", "scales": scales}


_MACHINE = {"system": "Linux", "machine": "x86_64", "python": "3.12", "cpus": "8"}
_OTHER = {"system": "Linux", "machine": "aarch64", "python": "3.12", "cpus": "4"}
_GOOD = {"replay_columnar": 3.0}


def test_gate_passes_clean_report():
    report = _report(_MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.010}))
    baseline = _report(
        _MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.010})
    )
    assert find_regressions(report, baseline) == []
    enforce_gate(report, baseline)


def test_gate_enforces_speedup_floors():
    slow = dict(_GOOD, replay_columnar=1.5)
    report = _report(_MACHINE, full=_section(slow, {"replay_pair_columnar": 0.010}))
    findings = find_regressions(report, None)
    assert any(
        "replay_columnar" in finding and "floor" in finding for finding in findings
    )
    with pytest.raises(PerfRegressionError):
        enforce_gate(report, None)


def test_gate_flags_same_machine_median_regression():
    report = _report(_MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.020}))
    baseline = _report(
        _MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.010})
    )
    findings = find_regressions(report, baseline)
    assert any("replay_pair_columnar" in finding for finding in findings)
    # A 25%-or-less drift is within the gate's tolerance.
    mild = _report(_MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.012}))
    assert find_regressions(mild, baseline) == []


def test_gate_normalizes_uniform_machine_load_drift():
    # Every stage — including the untouched general-loop reference —
    # slowed by the same 60%: that is a busier machine, not a code
    # regression.
    committed = {"replay_pair_general": 0.010, "replay_pair_columnar": 0.003}
    drifted = {"replay_pair_general": 0.016, "replay_pair_columnar": 0.0048}
    report = _report(_MACHINE, full=_section(_GOOD, drifted))
    baseline = _report(_MACHINE, full=_section(_GOOD, committed))
    assert find_regressions(report, baseline) == []


def test_gate_still_flags_differential_regression():
    # The reference held steady, so a 60% columnar slow-down is real.
    committed = {"replay_pair_general": 0.010, "replay_pair_columnar": 0.003}
    drifted = {"replay_pair_general": 0.010, "replay_pair_columnar": 0.0048}
    report = _report(_MACHINE, full=_section(_GOOD, drifted))
    baseline = _report(_MACHINE, full=_section(_GOOD, committed))
    findings = find_regressions(report, baseline)
    assert any("replay_pair_columnar" in finding for finding in findings)


def test_gate_exempts_dict_reference_medians():
    # The reference stage (the general loop) is the load reference; its
    # drift is machine weather, not a regression — only its gated
    # partner is compared.
    committed = {"replay_pair_general": 0.010, "replay_pair_columnar": 0.003}
    drifted = dict(committed, replay_pair_general=0.020)
    report = _report(_MACHINE, full=_section(_GOOD, drifted))
    baseline = _report(_MACHINE, full=_section(_GOOD, committed))
    assert find_regressions(report, baseline) == []


def test_gate_flags_partnerless_median_regression():
    # estimation/closure have no interleaved partner: strict comparison
    # at the wider 50% tolerance, like the injected wall sections.
    committed = {"estimation": 0.008, "closure": 0.040}
    report = _report(
        _MACHINE, full=_section(_GOOD, {"estimation": 0.008, "closure": 0.070})
    )
    baseline = _report(_MACHINE, full=_section(_GOOD, committed))
    findings = find_regressions(report, baseline)
    assert any("closure" in finding for finding in findings)
    assert not any("estimation" in finding for finding in findings)
    mild = _report(
        _MACHINE, full=_section(_GOOD, {"estimation": 0.011, "closure": 0.055})
    )
    assert find_regressions(mild, baseline) == []


def test_gate_skips_absolute_comparison_across_machines():
    report = _report(_OTHER, full=_section(_GOOD, {"replay_pair_columnar": 0.050}))
    baseline = _report(
        _MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.010})
    )
    assert find_regressions(report, baseline) == []


def test_time_wall_builds_a_gateable_section():
    calls = []
    section = time_wall("fleet_smoke", lambda: calls.append(1), repeats=3)
    assert len(calls) == 3
    assert section["repeats"] == 3
    assert set(section["medians_seconds"]) == {"fleet_smoke_wall"}
    assert section["medians_seconds"]["fleet_smoke_wall"] >= 0.0


def test_gate_flags_wall_median_regression():
    # Injected wall sections have no reference partner: strict
    # comparison, but at the wider 50% tolerance.
    wall = {"fleet_smoke_wall": 2.0}
    report = _report(_MACHINE, **{"fleet-smoke": _section(_GOOD, wall)})
    baseline = _report(
        _MACHINE, **{"fleet-smoke": _section(_GOOD, {"fleet_smoke_wall": 1.0})}
    )
    findings = find_regressions(report, baseline)
    assert any("fleet_smoke_wall" in finding for finding in findings)
    mild = _report(
        _MACHINE, **{"fleet-smoke": _section(_GOOD, {"fleet_smoke_wall": 1.4})}
    )
    assert find_regressions(mild, baseline) == []


def test_merge_reports_keeps_untouched_scales():
    baseline = _report(
        _MACHINE, full=_section(_GOOD, {"replay_pair_columnar": 0.010})
    )
    smoke_only = _report(
        _MACHINE, smoke=_section(_GOOD, {"replay_pair_columnar": 0.002})
    )
    merged = merge_reports(baseline, smoke_only)
    assert set(merged["scales"]) == {"full", "smoke"}
    assert merged["scales"]["full"] == baseline["scales"]["full"]
    assert merge_reports(None, smoke_only) == smoke_only

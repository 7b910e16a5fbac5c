"""Bit-identity of the vectorized columnar replay engine, and the
input-driven choice between it and the general loop.

The columnar engine (:mod:`repro.speculation.columnar`) replays the
whole trace as numpy column passes; every run here is compared to the
general event loop with exact ``==`` — the engines must return
identical metrics, not merely close ones.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.speculation.columnar as columnar_module
import repro.speculation.simulator as simulator_module
from repro.config import BASELINE
from repro.core import Experiment, evaluate_thresholds
from repro.speculation.aging import RollingEstimator
from repro.speculation.caches import make_cache_factory
from repro.speculation.columnar import _push_tables, replay_columnar
from repro.speculation.dependency import DependencyModel
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.riders import RiderTable
from repro.speculation.prefetch import ClientPrefetcher
from repro.speculation.simulator import SpeculativeServiceSimulator
from repro.speculation.sparse import SparseDependencyEngine
from repro.trace import Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


@functools.lru_cache(maxsize=8)
def _trace(seed: int):
    config = GeneratorConfig(
        seed=seed, n_pages=24, n_clients=12, n_sessions=80, duration_days=4
    )
    return SyntheticTraceGenerator(config).generate()


@functools.lru_cache(maxsize=8)
def _model(seed: int) -> DependencyModel:
    return DependencyModel.estimate(_trace(seed), window=5.0)


def _policy(kind: str, parameter: float):
    if kind == "threshold":
        return ThresholdPolicy(threshold=parameter)
    if kind == "direct":
        return ThresholdPolicy(threshold=parameter, use_closure=False)
    if kind == "embedding":
        tolerance = min(parameter, 0.9)
        return ThresholdPolicy(threshold=1.0 - tolerance, use_closure=False)
    assert kind == "baseline"
    return None


def _general(sim, policy, **options):
    # An explicit cache_factory (same semantics as the default) is the
    # input that selects the general loop.
    return sim.run(
        policy,
        cache_factory=make_cache_factory(BASELINE.session_timeout),
        **options,
    )


class TestColumnarParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        kind=st.sampled_from(["baseline", "threshold", "direct", "embedding"]),
        parameter=st.floats(min_value=0.05, max_value=0.9),
    )
    def test_columnar_matches_event_and_general(self, seed, kind, parameter):
        policy = _policy(kind, parameter)
        sim = SpeculativeServiceSimulator(_trace(seed), BASELINE, model=_model(seed))
        columnar = replay_columnar(
            _trace(seed), BASELINE, model=_model(seed), policy=policy
        )
        general = _general(sim, policy)
        assert columnar.metrics == general.metrics
        assert columnar.accesses == general.accesses
        assert columnar.cache_hits == general.cache_hits

    @pytest.mark.parametrize(
        "policy, config",
        [
            (ThresholdPolicy(threshold=0.1, max_size=4_000), BASELINE),
            (
                ThresholdPolicy(threshold=0.1),
                dataclasses.replace(BASELINE, max_size=3_000),
            ),
            (
                ThresholdPolicy(threshold=0.1, max_size=6_000),
                dataclasses.replace(BASELINE, max_size=2_500),
            ),
            # Below min_probability: a ranked table of its own.
            (ThresholdPolicy(threshold=0.005), BASELINE),
            (ThresholdPolicy(threshold=0.1, use_closure=False), BASELINE),
            (ThresholdPolicy(threshold=0.1, max_hops=2), BASELINE),
        ],
        ids=[
            "policy-maxsize",
            "config-maxsize",
            "both-maxsize",
            "below-floor",
            "direct",
            "two-hops",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_threshold_cut_matches_general(self, policy, config, seed):
        sim = SpeculativeServiceSimulator(_trace(seed), config, model=_model(seed))
        assert sim.run(policy) == _general(sim, policy)

    def test_push_only_catalog_targets_match_general(self):
        # The replayed trace never requests a third of its catalog; the
        # model still pushes those documents, numbered after its own.
        full = _trace(0)
        unrequested = set(sorted(full.documents)[::3])
        replayed = Trace(
            [r for r in full if r.doc_id not in unrequested],
            full.documents.values(),
        )
        sim = SpeculativeServiceSimulator(replayed, BASELINE, model=_model(0))
        for threshold in (0.05, 0.5, 0.95):
            policy = ThresholdPolicy(threshold=threshold)
            assert sim.run(policy) == _general(sim, policy)

    @pytest.mark.parametrize("use_closure", [True, False])
    def test_one_trace_replayed_at_many_thresholds(self, use_closure):
        # Every T_p after the first cuts the ranked table the first built;
        # each cut holds the one-document rider rows, in their order.
        trace, model = _trace(2), _model(2)
        docs = sorted(
            {r.doc_id for r in trace}, key=trace.columns.doc_ids.index
        )
        sim = SpeculativeServiceSimulator(trace, BASELINE, model=model)
        for threshold in (0.95, 0.5, 0.25, 0.1, 0.05, 0.25, 0.005, 0.95):
            policy = ThresholdPolicy(threshold=threshold, use_closure=use_closure)
            assert sim.run(policy) == _general(sim, policy)
            cut = _push_tables(trace, docs, policy, model, BASELINE.max_size)
            table = RiderTable(policy, model, trace.documents, BASELINE.max_size)
            # Push-only riders are numbered after ``docs``: compare as None.
            coded = set(docs)
            for code, doc in enumerate(docs):
                span = slice(cut.indptr[code], cut.indptr[code + 1])
                rows = table.riders(doc)
                assert [
                    docs[target] if target < len(docs) else None
                    for target in cut.targets[span].tolist()
                ] == [rider if rider in coded else None for rider, _, _ in rows]
                sizes = cut.target_sizes[cut.targets[span]].tolist()
                assert sizes == [size for _, size, _ in rows]

    @pytest.mark.parametrize("refresh", [False, True])
    @pytest.mark.parametrize("use_closure", [True, False])
    def test_observe_between_replays_rebuilds_from_selects_rows(
        self, refresh, use_closure
    ):
        # observe() bumps the version; the rebuilt table must read the
        # rows select reads: live P, and memoized P* rows that stay
        # stale until refresh_closure().
        model = DependencyModel.estimate(_trace(0), window=5.0)
        sim = SpeculativeServiceSimulator(_trace(0), BASELINE, model=model)
        policy = ThresholdPolicy(threshold=0.2, use_closure=use_closure)
        before = sim.run(policy)
        assert before == _general(sim, policy)
        for request in list(_trace(1))[:400]:
            model.observe(request.client, request.doc_id, request.timestamp)
        if refresh:
            model.refresh_closure()
        after = sim.run(policy)
        assert after == _general(sim, policy)
        assert (after != before) == (refresh or not use_closure)

    def test_auto_dispatch_equals_forced_columnar(self):
        sim = SpeculativeServiceSimulator(_trace(0), BASELINE, model=_model(0))
        for policy in (ThresholdPolicy(threshold=0.25), None):
            dispatched = sim.run(policy)
            forced = replay_columnar(
                _trace(0), BASELINE, model=_model(0), policy=policy
            )
            assert dispatched.metrics == forced.metrics
            assert dispatched.accesses == forced.accesses
            assert dispatched.cache_hits == forced.cache_hits
            assert dispatched.prefetch_requests == 0


#: Session-block and lookup-window sizes far below the defaults, so a
#: replay spans many blocks — a client's sessions straddle them and its
#: pending pushes carry over — and many lookup windows (one cell budget
#: below ``key_base`` means one session per window).
_SMALL_BLOCKS = [(1, 1), (3, 1), (3, 1 << 18)]


#: Session timeouts for the block tests: one session per client, and
#: many — a client's pending pushes outlive its sessions.
_TIMEOUTS = [BASELINE.session_timeout, 1800.0]


def _assert_blocked_replays_match_general(trace, model, block, cells):
    with (
        mock.patch.object(columnar_module, "_SESSION_BLOCK", block),
        mock.patch.object(columnar_module, "_LOOKUP_CELLS", cells),
    ):
        for timeout in _TIMEOUTS:
            config = BASELINE.with_updates(session_timeout=timeout)
            sim = SpeculativeServiceSimulator(trace, config, model=model)
            for threshold in (0.95, 0.25, 0.05):
                policy = ThresholdPolicy(threshold=threshold)
                general = sim.run(
                    policy, cache_factory=make_cache_factory(timeout)
                )
                assert sim.run(policy) == general


@functools.lru_cache(maxsize=1)
def _paper_shaped() -> Experiment:
    """A reduced paper-shaped Figure-5 input: the test half of the trace
    and the model of its train half."""
    config = dataclasses.replace(
        GeneratorConfig.paper_scale(0), n_clients=300, n_sessions=3_000
    )
    trace = SyntheticTraceGenerator(config).generate()
    return Experiment(trace, BASELINE, train_days=60.0)


class TestSessionBlocks:
    @pytest.mark.parametrize("block, cells", _SMALL_BLOCKS)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_clients=st.integers(min_value=1, max_value=8),
        n_sessions=st.integers(min_value=1, max_value=60),
    )
    def test_small_blocks_match_general(
        self, block, cells, seed, n_clients, n_sessions
    ):
        config = GeneratorConfig(
            seed=seed,
            n_pages=24,
            n_clients=n_clients,
            n_sessions=n_sessions,
            duration_days=4,
        )
        trace = SyntheticTraceGenerator(config).generate()
        model = DependencyModel.estimate(trace, window=5.0)
        _assert_blocked_replays_match_general(trace, model, block, cells)

    @pytest.mark.parametrize("block, cells", _SMALL_BLOCKS)
    def test_paper_shaped_small_blocks_match_general(self, block, cells):
        experiment = _paper_shaped()
        _assert_blocked_replays_match_general(
            experiment.test, experiment.model, block, cells
        )


#: Traced peak of one ``T_p = 0.05`` policy replay at paper scale, seed
#: 0, when the hit/miss fixpoint kept a dense ``session × document`` map
#: per 4 096 sessions: the bound the replay must stay within.
_DENSE_MAP_REPLAY_PEAK = 23_730_066

_MEMORY_PROBE = """
    import gc, json, tracemalloc
    from repro.config import BASELINE
    from repro.core.experiment import train_test_split
    from repro.speculation import columnar
    from repro.speculation.dependency import DependencyModel
    from repro.speculation.policies import ThresholdPolicy
    from repro.speculation.simulator import SpeculativeServiceSimulator
    from repro.workload import GeneratorConfig, SyntheticTraceGenerator

    trace = SyntheticTraceGenerator(GeneratorConfig.paper_scale(0)).generate()
    train, test = train_test_split(trace, 60.0)
    model = DependencyModel.estimate(train, window=BASELINE.stride_timeout)
    policy = ThresholdPolicy(threshold=0.05)
    tables = columnar._session_tables(test, BASELINE.session_timeout)
    columnar._push_tables(test, tables.docs, policy, model, BASELINE.max_size)
    sim = SpeculativeServiceSimulator(test, BASELINE, model=model)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    run = sim.run(policy)
    gc.collect()
    after, peak = tracemalloc.get_traced_memory()
    print(json.dumps({"retained": after - before, "peak": peak - before}))
"""


def test_policy_replay_frees_what_it_allocates():
    # A fresh interpreter, so no earlier test's buffer hides a retained
    # one; the session and push tables are memoized before the replay.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_MEMORY_PROBE)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    traced = json.loads(completed.stdout.strip().splitlines()[-1])
    assert traced["retained"] < 64 * 1024
    assert traced["peak"] <= _DENSE_MAP_REPLAY_PEAK


#: The paper's Figure-5 T_p grid.
_FIGURE5_GRID = [0.95, 0.75, 0.5, 0.35, 0.25, 0.2, 0.15, 0.1, 0.08, 0.05]


@pytest.mark.parametrize(
    "grid, pruning_keys",
    [(_FIGURE5_GRID, 1), (_FIGURE5_GRID + [0.005, 0.002], 3)],
)
def test_threshold_sweep_selects_nothing_and_closes_once_per_pruning(
    monkeypatch, grid, pruning_keys
):
    # Every T_p >= min_probability shares the floor 0.01; each lower
    # T_p is its own floor, hence its own ranked table.
    calls = {"select": 0, "closure": 0}

    def counted(name, method):
        def spy(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return spy

    monkeypatch.setattr(
        ThresholdPolicy, "select", counted("select", ThresholdPolicy.select)
    )
    monkeypatch.setattr(
        SparseDependencyEngine,
        "closure_rows",
        counted("closure", SparseDependencyEngine.closure_rows),
    )
    points = evaluate_thresholds(Experiment(_trace(3), BASELINE, train_days=2.0), grid)
    assert calls == {"select": 0, "closure": pruning_keys}
    assert [point.parameter for point in points] == grid


@dataclass(frozen=True)
class _StatefulThreshold:
    """A policy other than ``ThresholdPolicy``: asked through ``select``."""

    inner: ThresholdPolicy = ThresholdPolicy(threshold=0.25)

    def select(self, requested, model, catalog):
        return self.inner.select(requested, model, catalog)


@dataclass
class _UnhashablePure:
    """A plain (eq, hence unhashable) dataclass policy."""

    inner: ThresholdPolicy = ThresholdPolicy(threshold=0.25)

    def select(self, requested, model, catalog):
        return self.inner.select(requested, model, catalog)


def test_unhashable_pure_policy_replays_uncached():
    # Only ``ThresholdPolicy`` enters the columnar engine; any other
    # policy replays through the general loop, unmemoized.
    sim = SpeculativeServiceSimulator(_trace(0), BASELINE, model=_model(0))
    policy = _UnhashablePure()
    assert sim.run(policy) == _general(sim, policy)
    assert sim.run(policy) == sim.run(policy.inner)


@pytest.fixture
def columnar_calls(monkeypatch):
    """Calls ``run()`` makes into the columnar engine (still executed)."""
    calls = []

    def spy(trace, config, *, model=None, policy=None):
        calls.append(policy)
        return replay_columnar(trace, config, model=model, policy=policy)

    monkeypatch.setattr(simulator_module, "replay_columnar", spy)
    return calls


def _rolling_sim():
    rolling = RollingEstimator(
        _trace(0), history_length_days=2.0, update_cycle_days=1.0, window=5.0
    )
    return SpeculativeServiceSimulator(_trace(0), BASELINE, rolling=rolling)


#: Each entry: id → (simulator factory, policy, run() options).  Every
#: one carries an input the columnar engine does not model.
_GENERAL_LOOP_INPUTS = {
    "cooperative": (None, ThresholdPolicy(threshold=0.25), {"cooperative": True}),
    "digest": (
        None,
        ThresholdPolicy(threshold=0.25),
        {"cooperative": True, "digest_fp_rate": 0.01},
    ),
    "prefetcher": (None, None, {"prefetcher": ClientPrefetcher()}),
    "rolling": (_rolling_sim, ThresholdPolicy(threshold=0.25), {}),
    "impure-policy": (None, _StatefulThreshold(), {}),
}


class TestReplaySelection:
    def test_default_inputs_enter_columnar(self, columnar_calls):
        sim = SpeculativeServiceSimulator(_trace(1), BASELINE, model=_model(1))
        policy = ThresholdPolicy(threshold=0.25)
        assert sim.run(policy) == _general(sim, policy)
        assert sim.run() == _general(sim, None)
        # The no-policy baseline reads no model, so it needs no fixed one.
        rolling = _rolling_sim()
        assert rolling.run() == _general(rolling, None)
        assert columnar_calls == [policy, None, None]

    def test_event_escape_hatch_never_enters_columnar(self, columnar_calls):
        # The escape hatch to the event-by-event loop is an input, not
        # an option: an explicit cache_factory.
        sim = SpeculativeServiceSimulator(_trace(1), BASELINE, model=_model(1))
        run = _general(sim, ThresholdPolicy(threshold=0.25))
        assert run.accesses > 0
        assert columnar_calls == []

    @pytest.mark.parametrize("case", sorted(_GENERAL_LOOP_INPUTS))
    def test_unmodelled_inputs_take_the_general_loop(self, case, columnar_calls):
        make_sim, policy, options = _GENERAL_LOOP_INPUTS[case]
        sim = (
            make_sim()
            if make_sim is not None
            else SpeculativeServiceSimulator(_trace(0), BASELINE, model=_model(0))
        )
        run = sim.run(policy, **options)
        assert columnar_calls == []
        assert run.accesses == len(_trace(0))
        assert run == _general(sim, policy, **options)

    def test_columnar_rejects_cooperative_mode(self, columnar_calls):
        # Cooperation changes the answer (no re-sent bytes), so routing
        # it to the columnar engine would be wrong, not merely slow.
        sim = SpeculativeServiceSimulator(_trace(0), BASELINE, model=_model(0))
        policy = ThresholdPolicy(threshold=0.25)
        cooperative = sim.run(policy, cooperative=True)
        assert columnar_calls == []
        plain = sim.run(policy)
        assert cooperative.metrics.wasted_bytes <= plain.metrics.wasted_bytes
        assert cooperative.metrics != plain.metrics

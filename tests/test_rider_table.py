"""The rider rule, checked against an oracle that shares no code with it.

Section 3 of the paper: ``D_j`` rides with ``D_i`` iff
``p*[i,j] >= T_p`` and ``size(D_j) <= MaxSize``.  The oracle below
restates that rule over ``tests/oracles``' reference counting and
closure, with a plain ``sorted``; :class:`RiderTable` must agree row
for row, and a learning model's table must always equal one built
fresh.  The live paths read their riders from tables alone, so a
loadtest and a fleet run call ``ThresholdPolicy.select`` zero times.
"""

from __future__ import annotations

import functools
import math

import pytest

from repro.fleet import execute_fleet_smoke
from repro.runtime import LiveSettings, execute_loadtest, smoke_workload
from repro.runtime.estimator import OnlineDependencyEstimator
from repro.speculation.dependency import DependencyModel
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.riders import RiderTable
from repro.trace import Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

from .oracles.dependency_reference import ReferenceModel

WINDOW = 5.0


@functools.lru_cache(maxsize=4)
def _trace(seed: int):
    config = GeneratorConfig(
        seed=seed, n_pages=24, n_clients=12, n_sessions=80, duration_days=4
    )
    return SyntheticTraceGenerator(config).generate()


@functools.lru_cache(maxsize=4)
def _models(seed: int) -> tuple[DependencyModel, ReferenceModel]:
    trace = _trace(seed)
    return (
        DependencyModel.estimate(trace, window=WINDOW, stride_timeout=WINDOW),
        ReferenceModel(trace, WINDOW, WINDOW),
    )


def _oracle_riders(reference, doc_id, policy, catalog, max_size):
    """The paper's rule, restated: rows, filter, sort — nothing shared."""
    if policy.use_closure:
        row = reference.closure_row(
            doc_id,
            min_probability=min(policy.min_probability, policy.threshold),
            max_hops=policy.max_hops,
        )
    else:
        row = reference.successors(doc_id)
    cap = min(policy.max_size, max_size)
    kept = [
        (target, catalog[target].size, p)
        for target, p in row.items()
        if p >= policy.threshold
        and target in catalog
        and catalog[target].size <= cap
    ]
    return sorted(kept, key=lambda rider: (-rider[2], rider[0]))


@pytest.mark.parametrize("config_max", [math.inf, 20_000])
@pytest.mark.parametrize("policy_max", [math.inf, 20_000])
@pytest.mark.parametrize("use_closure", [True, False])
@pytest.mark.parametrize("threshold", [0.05, 0.25, 0.95])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_row_matches_the_oracle(
    seed, threshold, use_closure, policy_max, config_max
):
    catalog = _trace(seed).documents
    assert any(doc.size > 20_000 for doc in catalog.values())
    model, reference = _models(seed)
    policy = ThresholdPolicy(
        threshold=threshold, max_size=policy_max, use_closure=use_closure
    )
    table = RiderTable(policy, model, catalog, config_max)
    # A model without ``version`` is never memoized, and still ranked.
    unversioned = RiderTable(policy, reference, catalog, config_max)
    nonempty = 0
    for doc_id in sorted(catalog):
        expected = _oracle_riders(reference, doc_id, policy, catalog, config_max)
        assert table.riders(doc_id) == expected, doc_id
        assert unversioned.riders(doc_id) == expected, doc_id
        nonempty += bool(expected)
    assert nonempty > 0


@pytest.mark.parametrize("refresh", [False, True])
@pytest.mark.parametrize("use_closure", [True, False])
def test_a_learning_table_equals_a_fresh_one_after_every_observe(
    refresh, use_closure
):
    trace = _trace(0)
    requests = list(trace)
    half = len(requests) // 2
    estimator = OnlineDependencyEstimator(
        window=WINDOW, stride_timeout=WINDOW, learn=True, refresh_interval=16
    )
    estimator.warm(Trace(requests[:half], trace.documents.values()))
    live = requests[half : half + 150]
    model = estimator.model
    catalog = trace.documents
    policy = ThresholdPolicy(threshold=0.2, use_closure=use_closure)
    table = RiderTable(policy, model, catalog)
    docs = sorted(catalog)

    def assert_fresh() -> None:
        fresh = RiderTable(policy, model, catalog)
        for doc_id in docs:
            assert table.riders(doc_id) == fresh.riders(doc_id), doc_id

    before = [table.riders(doc_id) for doc_id in docs]
    for request in live:
        estimator.observe(request.client, request.doc_id, request.timestamp)
        assert_fresh()
        if refresh:
            model.refresh_closure()
            assert_fresh()
    moved = sum(
        table.riders(doc_id) != row for doc_id, row in zip(docs, before)
    )
    assert moved > 0


@pytest.fixture
def select_calls(monkeypatch):
    """Counts ``ThresholdPolicy.select`` calls (still executed)."""
    calls = []
    original = ThresholdPolicy.select

    def spy(self, requested, model, catalog):
        calls.append(requested)
        return original(self, requested, model, catalog)

    monkeypatch.setattr(ThresholdPolicy, "select", spy)
    return calls


def test_live_paths_never_call_select(select_calls):
    # A smoke loadtest pair with its batch reference (a one-byte
    # dissemination budget, so misses reach the speculating origin),
    # then a fleet smoke with node-side speculation: every rider comes
    # from a RiderTable.
    report = execute_loadtest(
        smoke_workload(0), LiveSettings(seed=0, budget_bytes=1.0), verify_batch=True
    )
    report.require_convergence()
    assert report.speculative["counters"]["origin.speculated_documents"] > 0
    fleet = execute_fleet_smoke(0).fleet["counters"]
    assert any(
        name.endswith(".speculated_documents") and name.startswith("fleet.")
        and value > 0
        for name, value in fleet.items()
    )
    assert select_calls == []

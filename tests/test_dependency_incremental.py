"""Incremental DependencyModel API: observe() must equal batch estimate()."""

import math

import pytest

from repro.errors import DependencyModelError
from repro.speculation.dependency import DependencyModel
from repro.workload.generator import GeneratorConfig, SyntheticTraceGenerator


def replay(trace, **kwargs):
    model = DependencyModel.incremental(**kwargs)
    for request in trace:
        model.observe(request.client, request.doc_id, request.timestamp)
    return model


class TestBatchParity:
    """The satellite regression: batch fit == incremental fit, same trace."""

    @pytest.mark.parametrize(
        "window,stride_timeout",
        [(5.0, None), (5.0, 5.0), (2.0, 10.0), (30.0, math.inf)],
    )
    def test_identical_counts(self, window, stride_timeout):
        trace = SyntheticTraceGenerator(
            GeneratorConfig(
                seed=7, n_pages=60, n_clients=40, n_sessions=300, duration_days=10
            )
        ).generate()
        batch = DependencyModel.estimate(
            trace, window=window, stride_timeout=stride_timeout
        )
        incremental = replay(
            trace, window=window, stride_timeout=stride_timeout
        )
        assert incremental.occurrence_counts == batch.occurrence_counts
        assert incremental.pair_counts == batch.pair_counts

    def test_identical_probabilities(self):
        trace = SyntheticTraceGenerator(
            GeneratorConfig(
                seed=11, n_pages=50, n_clients=30, n_sessions=250, duration_days=8
            )
        ).generate()
        batch = DependencyModel.estimate(trace, window=5.0)
        incremental = replay(trace, window=5.0)
        for source in batch.pair_counts:
            assert incremental.successors(source) == batch.successors(source)
            assert incremental.closure_row(source) == batch.closure_row(source)


class TestObserve:
    def test_zero_stride_timeout_never_pairs(self):
        model = DependencyModel.incremental(window=5.0, stride_timeout=0.0)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 0.1)
        assert model.pair_counts == {}
        assert model.occurrence_counts == {"a": 1, "b": 1}

    def test_infinite_stride_never_splits(self):
        model = DependencyModel.incremental(window=1e9, stride_timeout=math.inf)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 1e6)
        assert model.pair_counts == {"a": {"b": 1}}

    def test_gap_at_timeout_splits_stride(self):
        model = DependencyModel.incremental(window=100.0, stride_timeout=5.0)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 5.0)  # gap == StrideTimeout → new stride
        assert model.pair_counts == {}

    def test_window_limits_pairing(self):
        model = DependencyModel.incremental(window=2.0, stride_timeout=10.0)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 3.0)  # same stride, outside T_w
        assert model.pair_counts == {}

    def test_repeat_document_counts_once_per_occurrence(self):
        model = DependencyModel.incremental(window=10.0, stride_timeout=10.0)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 1.0)
        model.observe("c", "b", 2.0)  # a→b already seen for this occurrence
        assert model.pair_counts["a"] == {"b": 1}

    def test_clients_are_independent(self):
        model = DependencyModel.incremental(window=10.0)
        model.observe("c1", "a", 0.0)
        model.observe("c2", "b", 1.0)
        assert model.pair_counts == {}

    def test_backwards_time_rejected(self):
        model = DependencyModel.incremental()
        model.observe("c", "a", 10.0)
        with pytest.raises(DependencyModelError):
            model.observe("c", "b", 9.0)

    def test_empty_ids_rejected(self):
        model = DependencyModel.incremental()
        with pytest.raises(DependencyModelError):
            model.observe("", "a", 0.0)
        with pytest.raises(DependencyModelError):
            model.observe("c", "", 0.0)


class TestRefreshClosure:
    def test_refresh_reflects_new_observations(self):
        model = DependencyModel.incremental(window=10.0, stride_timeout=10.0)
        model.observe("c", "a", 0.0)
        model.observe("c", "b", 1.0)
        stale = model.closure_row("a")  # memoized now
        model.observe("d", "a", 2.0)
        model.observe("d", "a", 100.0)  # new stride; dilutes p[a,b]
        assert model.closure_row("a") == stale  # paper: stale until refresh
        model.refresh_closure()
        assert model.closure_row("a") != stale

    def test_bounded_refresh_precomputes_requested_rows(self):
        trace = SyntheticTraceGenerator(
            GeneratorConfig(
                seed=3, n_pages=40, n_clients=20, n_sessions=150, duration_days=5
            )
        ).generate()
        model = replay(trace, window=5.0)
        sources = sorted(model.pair_counts)[:5]
        assert model.refresh_closure(sources) == len(sources)

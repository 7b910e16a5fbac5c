"""Tests for client-level trace sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceFormatError
from repro.trace import Request, Trace, sample_clients, split_strides
from repro.workload import SyntheticTraceGenerator, preset


class TestSampleClients:
    @pytest.fixture(scope="class")
    def trace(self):
        return SyntheticTraceGenerator(preset("small", 5)).generate()

    def test_full_fraction_identity(self, trace):
        assert sample_clients(trace, 1.0) is trace

    def test_streams_intact(self, trace):
        sampled = sample_clients(trace, 0.3, seed=1)
        full_streams = trace.by_client()
        for client, stream in sampled.by_client().items():
            assert [r.timestamp for r in stream] == [
                r.timestamp for r in full_streams[client]
            ]

    def test_fraction_approximate(self, trace):
        sampled = sample_clients(trace, 0.3, seed=1)
        ratio = len(sampled.clients()) / len(trace.clients())
        assert 0.1 < ratio < 0.55

    def test_deterministic(self, trace):
        a = sample_clients(trace, 0.4, seed=7)
        b = sample_clients(trace, 0.4, seed=7)
        assert a.clients() == b.clients()

    def test_seed_changes_selection(self, trace):
        a = sample_clients(trace, 0.4, seed=1)
        b = sample_clients(trace, 0.4, seed=2)
        assert a.clients() != b.clients()

    def test_consistent_across_windows(self, trace):
        half = trace.window(trace.start_time, trace.start_time + trace.duration / 2)
        sampled_full = sample_clients(trace, 0.4, seed=3)
        sampled_half = sample_clients(half, 0.4, seed=3)
        assert sampled_half.clients() <= sampled_full.clients()

    def test_stride_structure_preserved(self, trace):
        sampled = sample_clients(trace, 0.3, seed=1)
        full_strides = {
            (s.client, s.start_time, len(s))
            for s in split_strides(trace, 5.0)
            if s.client in sampled.clients()
        }
        sampled_strides = {
            (s.client, s.start_time, len(s)) for s in split_strides(sampled, 5.0)
        }
        assert sampled_strides == full_strides

    def test_never_empty(self, trace):
        sampled = sample_clients(trace, 1e-9, seed=1)
        assert len(sampled.clients()) >= 1

    def test_invalid_fraction(self, trace):
        with pytest.raises(TraceFormatError):
            sample_clients(trace, 0.0)
        with pytest.raises(TraceFormatError):
            sample_clients(trace, 1.5)

    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_subset_property(self, fraction, seed):
        requests = [
            Request(timestamp=float(i), client=f"c{i % 7}", doc_id="/d", size=1)
            for i in range(30)
        ]
        trace = Trace(requests)
        sampled = sample_clients(trace, fraction, seed=seed)
        assert sampled.clients() <= trace.clients()
        assert len(sampled) <= len(trace)

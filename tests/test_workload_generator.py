"""Tests for the synthetic trace generator and calibration checks."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.trace import Trace, split_strides, summarize
from repro.workload import (
    GeneratorConfig,
    SyntheticTraceGenerator,
    check_calibration,
)
from repro.workload.calibration import touched_bytes_fraction

SMALL = GeneratorConfig(seed=3, n_pages=60, n_clients=40, n_sessions=300, duration_days=10)


@pytest.fixture(scope="module")
def small_generator():
    return SyntheticTraceGenerator(SMALL)


@pytest.fixture(scope="module")
def small_trace(small_generator):
    return small_generator.generate()


class TestGeneration:
    def test_nonempty(self, small_trace):
        assert len(small_trace) >= SMALL.n_sessions

    def test_sorted(self, small_trace):
        times = [r.timestamp for r in small_trace]
        assert times == sorted(times)

    def test_within_duration(self, small_trace):
        # Sessions start within the window; tails may run slightly past.
        assert small_trace.start_time >= 0
        assert small_trace.end_time < SMALL.duration_days * 86_400 * 1.1

    def test_all_docs_cataloged(self, small_trace):
        for request in small_trace:
            assert request.doc_id in small_trace.documents

    def test_sizes_match_catalog(self, small_trace):
        for request in small_trace:
            assert request.size == small_trace.documents[request.doc_id].size

    def test_remote_flag_tracks_client(self, small_trace):
        for request in small_trace:
            assert request.remote == (not request.client.startswith("local-"))

    def test_deterministic(self):
        a = SyntheticTraceGenerator(SMALL).generate()
        b = SyntheticTraceGenerator(SMALL).generate()
        assert len(a) == len(b)
        assert [(r.timestamp, r.doc_id) for r in a] == [
            (r.timestamp, r.doc_id) for r in b
        ]

    def test_different_seeds_differ(self):
        a, b = (
            SyntheticTraceGenerator(
                GeneratorConfig(seed=seed, n_pages=50, n_clients=20, n_sessions=100)
            ).generate()
            for seed in (1, 2)
        )
        assert [(r.timestamp, r.doc_id) for r in a] != [
            (r.timestamp, r.doc_id) for r in b
        ]

    def test_no_refetch_within_session(self):
        """The per-session browser cache never refetches a document."""
        generator = SyntheticTraceGenerator(SMALL)
        for block in generator._blocks(epoch=0):
            assert len(block.times) == len(block.codes) == block.lengths.sum()
            ends = np.cumsum(block.lengths)
            for codes in np.split(block.codes, ends[:-1]):
                assert len(codes) == len(set(codes.tolist()))

    def test_session_contains_embedded_objects(self):
        # Over many sessions, at least some must fetch inline objects.
        generator = SyntheticTraceGenerator(SMALL)
        documents = generator.site.documents()
        fetched = {
            documents[code].kind
            for block in generator._blocks(epoch=0)
            for code in block.codes.tolist()
        }
        assert "embedded" in fetched


class TestStrideStructure:
    def test_embedded_objects_land_in_page_stride(self, small_trace):
        """Inline objects follow their page within the 5s stride window."""
        strides = split_strides(small_trace, stride_timeout=5.0)
        multi = [s for s in strides if len(s) > 1]
        assert multi, "expected multi-request strides from embedded objects"


class TestCalibration:
    def test_all_targets_pass_at_paper_scale(self):
        config = GeneratorConfig.paper_scale(seed=11)
        generator = SyntheticTraceGenerator(config)
        trace = generator.generate()
        checks = check_calibration(
            trace, site_total_bytes=generator.site.total_bytes()
        )
        failures = [c.format() for c in checks if not c.passed]
        assert not failures, f"calibration misses: {failures}"

    def test_paper_scale_request_volume(self):
        trace = SyntheticTraceGenerator(GeneratorConfig.paper_scale(seed=1)).generate()
        # Paper: 205,925 accesses. Accept a +-25% band.
        assert 150_000 <= len(trace) <= 260_000

    def test_paper_scale_concentration(self):
        trace = SyntheticTraceGenerator(GeneratorConfig.paper_scale(seed=1)).generate()
        stats = summarize(trace)
        # Paper: top 10% of blocks carried 91% of requests.
        assert stats.top_ten_percent_share > 0.85

    def test_touched_bytes_fraction_bounds(self, small_generator, small_trace):
        fraction = touched_bytes_fraction(
            small_trace, small_generator.site.total_bytes()
        )
        assert 0.0 < fraction <= 1.0

    def test_touched_bytes_zero_site(self):
        assert touched_bytes_fraction(Trace([]), 0) == 0.0

    def test_check_format(self, small_generator, small_trace):
        checks = check_calibration(small_trace)
        assert checks
        for check in checks:
            line = check.format()
            assert "paper=" in line and "observed=" in line


class TestConfigValidation:
    def test_zero_sessions(self):
        with pytest.raises(CalibrationError):
            GeneratorConfig(n_sessions=0)

    def test_bad_continue_probability(self):
        with pytest.raises(CalibrationError):
            GeneratorConfig(continue_probability=1.0)

    def test_bad_think_time(self):
        with pytest.raises(CalibrationError):
            GeneratorConfig(think_time_mean=0.0)

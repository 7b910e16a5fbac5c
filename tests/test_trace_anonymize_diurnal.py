"""Tests for diurnal arrivals."""

import dataclasses

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.trace import summarize
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


class TestDiurnalArrivals:
    def _hour_histogram(self, trace):
        hours = [(r.timestamp % 86_400) / 3_600 for r in trace]
        counts, __ = np.histogram(hours, bins=24, range=(0, 24))
        return counts

    def test_flat_without_amplitude(self):
        config = GeneratorConfig(
            seed=31, n_pages=50, n_clients=50, n_sessions=3000, duration_days=30
        )
        counts = self._hour_histogram(SyntheticTraceGenerator(config).generate())
        assert counts.max() < counts.mean() * 1.5

    def test_cycle_with_amplitude(self):
        config = dataclasses.replace(
            GeneratorConfig(
                seed=31, n_pages=50, n_clients=50, n_sessions=3000, duration_days=30
            ),
            diurnal_amplitude=1.0,
        )
        counts = self._hour_histogram(SyntheticTraceGenerator(config).generate())
        # Strong cycle: busiest hour far above the quietest.
        assert counts.max() > counts.min() * 2.0

    def test_volume_preserved(self):
        config = dataclasses.replace(
            GeneratorConfig(
                seed=31, n_pages=50, n_clients=50, n_sessions=500, duration_days=10
            ),
            diurnal_amplitude=0.8,
        )
        trace = SyntheticTraceGenerator(config).generate()
        stats = summarize(trace)
        assert stats.num_sessions >= 400  # sessions not lost to thinning

    def test_invalid_amplitude(self):
        with pytest.raises(CalibrationError):
            GeneratorConfig(diurnal_amplitude=1.5)

    def test_deterministic(self):
        config = dataclasses.replace(
            GeneratorConfig(seed=7, n_pages=40, n_clients=30, n_sessions=200, duration_days=5),
            diurnal_amplitude=0.7,
        )
        a = SyntheticTraceGenerator(config).generate()
        b = SyntheticTraceGenerator(config).generate()
        assert [r.timestamp for r in a] == [r.timestamp for r in b]

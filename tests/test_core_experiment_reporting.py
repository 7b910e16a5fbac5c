"""Tests for experiment plumbing and report rendering."""

import pytest

from repro.config import BaselineConfig
from repro.errors import SimulationError
from repro.core import (
    Experiment,
    format_series,
    format_table,
    interpolate_at_traffic,
    evaluate_thresholds,
    train_test_split,
)
from repro.core.experiment import SweepPoint
from repro.speculation import SpeculationRatios, ThresholdPolicy, make_cache_factory
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


@pytest.fixture(scope="module")
def trace():
    return SyntheticTraceGenerator(
        GeneratorConfig(
            seed=21, n_pages=60, n_clients=50, n_sessions=500, duration_days=20
        )
    ).generate()


@pytest.fixture(scope="module")
def experiment(trace):
    return Experiment(trace, train_days=10)


class TestTrainTestSplit:
    def test_split_sizes(self, trace):
        train, test = train_test_split(trace, 10)
        assert len(train) + len(test) == len(trace)
        assert train.end_time <= test.start_time

    def test_boundary_goes_to_test(self, trace):
        train, test = train_test_split(trace, 10)
        boundary = trace.start_time + 10 * 86_400
        assert all(r.timestamp < boundary for r in train)
        assert all(r.timestamp >= boundary for r in test)

    def test_bad_split_rejected(self, trace):
        with pytest.raises(SimulationError):
            train_test_split(trace, 0)
        with pytest.raises(SimulationError):
            train_test_split(trace, 10_000)


class TestExperiment:
    def test_baseline_cached(self, experiment):
        assert experiment.baseline() is experiment.baseline()

    def test_evaluate_produces_ratios(self, experiment):
        ratios, run = experiment.evaluate(ThresholdPolicy(threshold=0.5))
        assert ratios.bandwidth_ratio >= 1.0
        assert run.accesses == len(experiment.test)

    def test_different_cache_keys_isolated(self, experiment):
        default = experiment.baseline()
        no_cache = experiment.baseline(
            cache_factory=make_cache_factory(0.0), cache_key="none"
        )
        assert no_cache.metrics.server_requests >= default.metrics.server_requests

    def test_cache_factory_needs_its_own_key(self, experiment):
        # Under the default key the no-cache run would be compared to
        # (or cached as) the default-cache baseline: wrong ratios.
        experiment.baseline()
        policy = ThresholdPolicy(threshold=0.5)
        with pytest.raises(SimulationError, match="cache_key"):
            experiment.evaluate(policy, cache_factory=make_cache_factory(0.0))
        with pytest.raises(SimulationError, match="cache_key"):
            experiment.baseline(cache_factory=make_cache_factory(0.0))
        ratios, run = experiment.evaluate(
            policy, cache_factory=make_cache_factory(0.0), cache_key="none"
        )
        # No cache: speculation cannot remove a single server request.
        assert ratios.server_load_ratio == 1.0
        assert run.cache_hits == 0

    def test_speculation_beats_baseline_on_load(self, experiment):
        ratios, __ = experiment.evaluate(ThresholdPolicy(threshold=0.5))
        assert ratios.server_load_ratio < 1.0


class TestSweep:
    def test_sweep_order_preserved(self, experiment):
        points = evaluate_thresholds(experiment, [0.9, 0.3])
        assert [p.parameter for p in points] == [0.9, 0.3]

    def test_lower_threshold_more_traffic(self, experiment):
        points = evaluate_thresholds(experiment, [0.9, 0.1])
        assert (
            points[1].ratios.traffic_increase >= points[0].ratios.traffic_increase
        )

    def test_custom_policy_factory(self, experiment):
        from repro.speculation import ThresholdPolicy

        points = evaluate_thresholds(
            experiment,
            [0.2],
            policy_factory=lambda p: ThresholdPolicy(threshold=p, use_closure=False),
        )
        assert len(points) == 1


class TestInterpolation:
    def _points(self):
        def ratios(traffic, load):
            return SpeculationRatios(
                bandwidth_ratio=1 + traffic,
                server_load_ratio=load,
                service_time_ratio=load + 0.05,
                miss_rate_ratio=load + 0.10,
            )

        return [
            SweepPoint(parameter=0.5, ratios=ratios(0.10, 0.70), run=None),
            SweepPoint(parameter=0.1, ratios=ratios(0.50, 0.50), run=None),
        ]

    def test_exact_point(self):
        out = interpolate_at_traffic(self._points(), 0.10)
        assert out.server_load_ratio == pytest.approx(0.70)

    def test_midpoint(self):
        out = interpolate_at_traffic(self._points(), 0.30)
        assert out.server_load_ratio == pytest.approx(0.60)
        assert out.bandwidth_ratio == pytest.approx(1.30)

    def test_below_first_point_interpolates_from_origin(self):
        out = interpolate_at_traffic(self._points(), 0.05)
        assert out.server_load_ratio == pytest.approx(0.85)

    def test_beyond_sweep_clamps(self):
        out = interpolate_at_traffic(self._points(), 9.0)
        assert out.server_load_ratio == pytest.approx(0.50)

    def test_zero_traffic_is_origin(self):
        out = interpolate_at_traffic(self._points(), 0.0)
        assert out.server_load_ratio == 1.0

    def test_empty_points(self):
        assert interpolate_at_traffic([], 0.1) is None

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            interpolate_at_traffic(self._points(), -0.1)


class TestReporting:
    def test_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "longer" in lines[3]

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_series_bars_scale(self):
        text = format_series("s", [1, 2], [0.5, 1.0], bar_width=10)
        lines = text.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1.0, 2.0])

    def test_series_all_zero(self):
        text = format_series("s", [1], [0.0])
        assert "#" not in text

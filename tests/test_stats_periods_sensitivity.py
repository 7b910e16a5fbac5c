"""Tests for period bucketing and the sensitivity sweep."""

import pytest

from repro.errors import SimulationError
from repro.core import sweep_workload
from repro.dissemination import DynamicShield
from repro.speculation import ThresholdPolicy
from repro.trace import Request, Trace, bytes_per_period, requests_per_period
from repro.workload import GeneratorConfig


def req(t, size=10):
    return Request(timestamp=t, client="c", doc_id="/d", size=size)


class TestPeriods:
    def test_requests_bucketed(self):
        trace = Trace([req(0.0), req(50.0), req(150.0), req(220.0)])
        assert requests_per_period(trace, 100.0) == [2, 1, 1]

    def test_bytes_bucketed(self):
        trace = Trace([req(0.0, 5), req(50.0, 7), req(150.0, 11)])
        assert bytes_per_period(trace, 100.0) == [12, 11]

    def test_counts_conserved(self):
        trace = Trace([req(float(i * 37)) for i in range(50)])
        assert sum(requests_per_period(trace, 100.0)) == 50

    def test_empty(self):
        assert requests_per_period(Trace([]), 100.0) == []
        assert bytes_per_period(Trace([]), 100.0) == []

    def test_single_request_single_period(self):
        assert requests_per_period(Trace([req(5.0)]), 100.0) == [1]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            requests_per_period(Trace([req(0.0)]), 0.0)
        with pytest.raises(ValueError):
            bytes_per_period(Trace([req(0.0)]), -1.0)

    def test_feeds_dynamic_shield(self):
        """The helper composes with the shielding control loop."""
        trace = Trace(
            [req(float(i % 3 * 86_400 + i)) for i in range(300)], sort=True
        )
        offered = [float(c) for c in requests_per_period(trace, 86_400.0)]
        shield = DynamicShield(
            n_servers=5, lam=1e-6, max_budget=1e7, capacity=50.0
        )
        snapshots = shield.run(offered)
        assert len(snapshots) == len(offered)


class TestSensitivity:
    BASE = GeneratorConfig(
        seed=1, n_pages=60, n_clients=60, n_sessions=400, duration_days=10
    )

    def test_sweep_runs_each_value(self):
        points = sweep_workload(
            "jump_probability", [0.0, 0.6], base_config=self.BASE
        )
        assert [p.value for p in points] == [0.0, 0.6]
        for point in points:
            assert point.n_requests > 0
            assert 0.0 <= point.ratios.server_load_reduction < 1.0

    def test_predictability_direction(self):
        """More jumps -> less predictable traversals -> weaker gains at
        the same policy (the knob works the way it claims)."""
        points = sweep_workload(
            "jump_probability",
            [0.0, 0.8],
            base_config=self.BASE,
            policy=ThresholdPolicy(threshold=0.1, use_closure=False),
        )
        predictable, chaotic = points
        assert (
            predictable.ratios.server_load_reduction
            >= chaotic.ratios.server_load_reduction - 0.05
        )

    def test_custom_policy_used(self):
        points = sweep_workload(
            "popularity_alpha",
            [1.0],
            base_config=self.BASE,
            policy=ThresholdPolicy(threshold=0.5),
        )
        assert len(points) == 1

    def test_unknown_parameter(self):
        with pytest.raises(SimulationError):
            sweep_workload("not_a_field", [1])

    def test_empty_values(self):
        with pytest.raises(SimulationError):
            sweep_workload("jump_probability", [])

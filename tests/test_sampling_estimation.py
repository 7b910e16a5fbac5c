"""Horvitz-Thompson ratio estimation from client samples."""

import numpy as np
import pytest

from repro.config import BASELINE
from repro.core import Experiment
from repro.core.sampling import (
    client_contributions,
    estimate_ratios,
    execute_sample_check,
    ht_ratio_estimates,
    sample_check_workload,
)
from repro.errors import RuntimeProtocolError, TraceFormatError
from repro.speculation import DependencyModel, ThresholdPolicy
from repro.trace import Trace
from repro.trace.sampling import (
    RATIO_NAMES,
    RatioEstimate,
    SampledRatioReport,
    SamplingConfig,
)
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

WORKLOAD = GeneratorConfig(
    seed=5, n_pages=80, n_clients=120, n_sessions=900, duration_days=12
)


@pytest.fixture(scope="module")
def trace():
    return SyntheticTraceGenerator(WORKLOAD).generate().remote_only()


@pytest.fixture(scope="module")
def arms(trace):
    """Per-client contribution arrays for the test half of the trace."""
    from repro.core.experiment import train_test_split

    train, test = train_test_split(trace, 6.0)
    model = DependencyModel.estimate(train, window=BASELINE.stride_timeout)
    policy = ThresholdPolicy(
        threshold=BASELINE.threshold, max_size=BASELINE.max_size
    )
    clients, spec, base = client_contributions(
        test, config=BASELINE, model=model, policy=policy
    )
    return test, model, policy, clients, spec, base


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert config.fraction == 0.05
        assert config.n_boot == 400
        assert config.level == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"n_boot": 0},
            {"level": 0.0},
            {"level": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TraceFormatError):
            SamplingConfig(**kwargs)


class TestRatioEstimate:
    def test_covers(self):
        estimate = RatioEstimate(value=1.0, low=0.8, high=1.2)
        assert estimate.covers(1.0)
        assert estimate.covers(0.8)
        assert not estimate.covers(1.3)


class TestClientContributions:
    def test_sums_reproduce_combined_replay(self, arms):
        """The HT foundation: per-client totals equal the full replay."""
        test, model, policy, clients, spec, base = arms
        from repro.speculation import SpeculativeServiceSimulator

        combined_spec = SpeculativeServiceSimulator(
            test, BASELINE, model=model
        ).run(policy)
        combined_base = SpeculativeServiceSimulator(
            test, BASELINE, model=model
        ).run(None)
        expected_spec = np.array(
            [
                combined_spec.metrics.bytes_sent,
                combined_spec.metrics.server_requests,
                combined_spec.metrics.service_time,
                combined_spec.metrics.miss_bytes,
                combined_spec.metrics.accessed_bytes,
            ],
            dtype=float,
        )
        expected_base = np.array(
            [
                combined_base.metrics.bytes_sent,
                combined_base.metrics.server_requests,
                combined_base.metrics.service_time,
                combined_base.metrics.miss_bytes,
                combined_base.metrics.accessed_bytes,
            ],
            dtype=float,
        )
        assert np.allclose(spec.sum(axis=0), expected_spec)
        assert np.allclose(base.sum(axis=0), expected_base)

    def test_one_row_per_client(self, arms):
        test, _, _, clients, spec, base = arms
        assert len(clients) == len(test.clients())
        assert spec.shape == (len(clients), 5)
        assert base.shape == (len(clients), 5)


class TestHtRatioEstimates:
    def test_full_population_matches_exact(self, arms):
        """With every client included, the point estimates are exact."""
        test, model, policy, clients, spec, base = arms
        estimates = ht_ratio_estimates(spec, base, n_boot=50, seed=1)
        assert set(estimates) == set(RATIO_NAMES)
        totals_spec = spec.sum(axis=0)
        totals_base = base.sum(axis=0)
        assert estimates["bandwidth"].value == pytest.approx(
            totals_spec[0] / totals_base[0]
        )
        assert estimates["server_load"].value == pytest.approx(
            totals_spec[1] / totals_base[1]
        )

    def test_intervals_bracket_point(self, arms):
        _, _, _, _, spec, base = arms
        for estimate in ht_ratio_estimates(spec, base, n_boot=50).values():
            assert estimate.low <= estimate.value <= estimate.high

    def test_deterministic_in_seed(self, arms):
        _, _, _, _, spec, base = arms
        first = ht_ratio_estimates(spec, base, n_boot=50, seed=9)
        second = ht_ratio_estimates(spec, base, n_boot=50, seed=9)
        for name in RATIO_NAMES:
            assert first[name] == second[name]


class TestEstimateRatios:
    def test_report_shape(self, trace):
        sampling = SamplingConfig(fraction=0.2, seed=0, n_boot=100)
        report = estimate_ratios(trace, sampling, train_days=6.0)
        assert isinstance(report, SampledRatioReport)
        assert set(report.estimates) == set(RATIO_NAMES)
        assert 0 < report.n_clients <= report.n_population
        assert report.fraction == 0.2
        payload = report.to_dict()
        assert set(payload["estimates"]) == set(RATIO_NAMES)
        assert "clients" in report.format()

    def test_coverage_over_seed_sweep(self):
        """95% intervals must cover the exact replay almost always.

        Percentile-bootstrap intervals are approximate, so the gate is
        >=90% of (seed, ratio) pairs covered rather than all of them.
        """
        covered = 0
        total = 0
        for seed in range(5):
            config = sample_check_workload(seed)
            trace = SyntheticTraceGenerator(config).generate().remote_only()
            experiment = Experiment(trace, BASELINE, train_days=10.0)
            policy = ThresholdPolicy(
                threshold=BASELINE.threshold, max_size=BASELINE.max_size
            )
            ratios, _ = experiment.evaluate(policy)
            exact = {
                "bandwidth": ratios.bandwidth_ratio,
                "server_load": ratios.server_load_ratio,
                "service_time": ratios.service_time_ratio,
                "miss_rate": ratios.miss_rate_ratio,
            }
            report = estimate_ratios(
                trace,
                SamplingConfig(fraction=0.05, seed=seed, n_boot=200),
                train_days=10.0,
            )
            for name in RATIO_NAMES:
                total += 1
                if report.estimates[name].covers(exact[name]):
                    covered += 1
        assert covered / total >= 0.90


class TestSampleCheck:
    def test_seed_zero_gate_passes(self):
        """The pinned acceptance gate: seed 0, 5% sample, all covered."""
        result = execute_sample_check(0)
        assert result["coverage"] == {
            name: True for name in RATIO_NAMES
        }
        for name in RATIO_NAMES:
            estimate = result["sampled"]["estimates"][name]
            assert estimate["low"] <= result["exact"][name]
            assert result["exact"][name] <= estimate["high"]

    def test_miss_raises_protocol_error(self, monkeypatch):
        import repro.core.sampling as sampling_module

        def tight(speculative, baseline, **kwargs):
            return {
                name: RatioEstimate(value=0.0, low=0.0, high=0.0)
                for name in RATIO_NAMES
            }

        monkeypatch.setattr(sampling_module, "ht_ratio_estimates", tight)
        with pytest.raises(RuntimeProtocolError):
            execute_sample_check(0)

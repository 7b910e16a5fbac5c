"""End-to-end integration tests across subsystems."""

import math

import pytest

from repro.config import BASELINE
from repro.core import (
    DisseminationPlanner,
    Experiment,
    evaluate_thresholds,
)
from repro.dissemination import DisseminationSimulator
from repro.dissemination.simulator import select_popular_bytes
from repro.popularity import PopularityProfile, fit_lambda
from repro.speculation import (
    SpeculativeServiceSimulator,
    ThresholdPolicy,
    compare,
)
from repro.topology import build_clientele_tree, greedy_tree_placement
from repro.trace import TraceCleaner, read_clf, write_clf
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


@pytest.fixture(scope="module")
def generator():
    return SyntheticTraceGenerator(
        GeneratorConfig(
            seed=99, n_pages=100, n_clients=120, n_sessions=1000, duration_days=24
        )
    )


@pytest.fixture(scope="module")
def trace(generator):
    return generator.generate()


class TestCLFRoundTripPipeline:
    def test_simulation_survives_clf_roundtrip(self, trace):
        """Serialize to CLF, parse back, clean, simulate.

        CLF timestamps have one-second resolution (as the paper's 1995
        logs did), so sub-second gaps collapse; counts and bytes must
        survive exactly, simulation ratios approximately."""
        lines = list(write_clf(trace))
        parsed = read_clf(lines, local_domains=["campus"])
        cleaned, __ = TraceCleaner(canonicalize=False).clean(parsed)
        assert len(cleaned) == len(trace)
        assert cleaned.total_bytes() == trace.total_bytes()
        assert cleaned.clients() == trace.clients()

        direct = Experiment(trace, BASELINE, train_days=12)
        roundtrip = Experiment(cleaned, BASELINE, train_days=12)
        ratios_a, __ = direct.evaluate(ThresholdPolicy(threshold=0.25))
        ratios_b, __ = roundtrip.evaluate(ThresholdPolicy(threshold=0.25))
        assert ratios_a.server_load_ratio == pytest.approx(
            ratios_b.server_load_ratio, abs=0.05
        )
        assert ratios_a.bandwidth_ratio == pytest.approx(
            ratios_b.bandwidth_ratio, abs=0.05
        )


class TestBothProtocolsTogether:
    def test_dissemination_then_speculation(self, trace, generator):
        """The two protocols compose: dissemination shields the wide
        area, speculation then cuts residual demand at the proxy."""
        tree = build_clientele_tree(trace, backbone_hops=2)
        profile = PopularityProfile.from_trace(trace.remote_only())
        demand = {}
        for request in trace.remote_only():
            demand[request.client] = demand.get(request.client, 0.0) + request.size
        proxies = greedy_tree_placement(tree, demand, 4)
        documents = select_popular_bytes(
            profile, 0.10 * generator.site.total_bytes()
        )
        dissemination = DisseminationSimulator(trace, tree).simulate(
            proxies, documents
        )
        assert dissemination.savings_fraction > 0.0

        experiment = Experiment(trace, BASELINE, train_days=12)
        ratios, __ = experiment.evaluate(ThresholdPolicy(threshold=0.25))
        assert ratios.server_load_reduction > 0.0

    def test_planner_matches_profile_lambda(self, trace):
        planner = DisseminationPlanner()
        planner.add_server("www", trace)
        model = planner.server_model("www")
        profile = PopularityProfile.from_trace(trace)
        curve_bytes, coverage = profile.coverage_curve()
        assert model.lam == pytest.approx(fit_lambda(curve_bytes, coverage))


class TestSweepInternalConsistency:
    def test_ratio_definitions_hold(self, trace):
        """Recompute the four ratios from raw metrics and match."""
        experiment = Experiment(trace, BASELINE, train_days=12)
        points = evaluate_thresholds(experiment, [0.5, 0.1])
        baseline = experiment.baseline()
        for point in points:
            m = point.run.metrics
            b = baseline.metrics
            assert point.ratios.bandwidth_ratio == pytest.approx(
                m.bytes_sent / b.bytes_sent
            )
            assert point.ratios.server_load_ratio == pytest.approx(
                m.server_requests / b.server_requests
            )
            assert point.ratios.service_time_ratio == pytest.approx(
                m.service_time / b.service_time
            )
            assert point.ratios.miss_rate_ratio == pytest.approx(
                m.miss_rate / b.miss_rate
            )

    def test_accessed_bytes_invariant(self, trace):
        """Speculation never changes what clients *access*."""
        experiment = Experiment(trace, BASELINE, train_days=12)
        baseline = experiment.baseline()
        __, run = experiment.evaluate(ThresholdPolicy(threshold=0.2))
        assert run.metrics.accessed_bytes == baseline.metrics.accessed_bytes
        assert run.accesses == baseline.accesses

"""The cluster replay oracle, and the planner's α checked against it."""

import pytest

from repro.errors import SimulationError
from repro.trace import Request, Trace

from .oracles.cluster_replay import ClusterSimulator


def make_trace(pairs):
    """pairs: list of (doc, size, n_requests)."""
    requests = []
    t = 0.0
    for doc, size, count in pairs:
        for i in range(count):
            requests.append(
                Request(timestamp=t, client=f"c{i}", doc_id=doc, size=size)
            )
            t += 1.0
    return Trace(requests, sort=True)


class TestClusterSimulator:
    def _simulator(self):
        return ClusterSimulator(
            {
                "hot": make_trace([("/h1", 100, 8), ("/h2", 100, 2)]),
                "cold": make_trace([("/c1", 100, 3)]),
            }
        )

    def test_materialize_respects_allocation(self):
        sim = self._simulator()
        holdings = sim.materialize({"hot": 100.0, "cold": 0.0})
        assert holdings["hot"] == {"/h1"}  # most popular first
        assert holdings["cold"] == set()

    def test_materialize_unknown_server(self):
        with pytest.raises(SimulationError):
            self._simulator().materialize({"ghost": 10.0})

    def test_replay_alpha(self):
        sim = self._simulator()
        result = sim.run_plan({"hot": 100.0, "cold": 100.0})
        # intercepted: /h1 (8 requests) + /c1 (3) of 13 total
        assert result.alpha == pytest.approx(11 / 13)
        assert result.per_server["hot"].request_alpha == pytest.approx(0.8)
        assert result.per_server["cold"].request_alpha == pytest.approx(1.0)

    def test_byte_alpha(self):
        sim = self._simulator()
        result = sim.run_plan({"hot": 100.0, "cold": 0.0})
        assert result.byte_alpha == pytest.approx(800 / 1300)

    def test_storage_used(self):
        sim = self._simulator()
        result = sim.run_plan({"hot": 200.0, "cold": 100.0})
        assert result.storage_used == 300.0

    def test_empty_allocation_zero_alpha(self):
        sim = self._simulator()
        result = sim.run_plan({"hot": 0.0, "cold": 0.0})
        assert result.alpha == 0.0

    def test_remote_only_filtering(self):
        local_trace = Trace(
            [
                Request(
                    timestamp=0.0, client="c", doc_id="/l", size=10, remote=False
                )
            ]
        )
        sim = ClusterSimulator({"s": local_trace})
        result = sim.run_plan({"s": 100.0})
        assert result.per_server["s"].requests == 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator({})

    def test_planner_integration(self):
        """The planner's predicted alpha is close to the replayed alpha
        on the same (training) traces."""
        from repro.core import DisseminationPlanner
        from repro.workload import GeneratorConfig, SyntheticTraceGenerator

        traces = {}
        planner = DisseminationPlanner()
        for index in range(2):
            generator = SyntheticTraceGenerator(
                GeneratorConfig(
                    seed=60 + index,
                    n_pages=60,
                    n_clients=50,
                    n_sessions=400,
                    duration_days=10,
                )
            )
            trace = generator.generate()
            traces[f"s{index}"] = trace
            planner.add_server(f"s{index}", trace)
        plan = planner.plan(3e6)
        result = ClusterSimulator(traces).run_plan(plan.allocations)
        assert result.alpha == pytest.approx(plan.empirical_alpha, abs=0.15)
        assert result.storage_used <= plan.budget * 1.001

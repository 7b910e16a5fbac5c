"""Tests for the DisseminationPlanner facade."""

import pytest

from repro.core import DisseminationPlanner
from repro.errors import AllocationError
from repro.trace import Request, Trace


class TestDisseminationPlanner:
    def _trace(self, seed_docs, n=20):
        requests = []
        t = 0.0
        for i in range(n):
            for doc, size in seed_docs:
                requests.append(
                    Request(timestamp=t, client=f"c{i}", doc_id=doc, size=size)
                )
                t += 10.0
        return Trace(requests)

    def test_plan_respects_budget(self):
        planner = DisseminationPlanner()
        planner.add_server("s1", self._trace([("/a", 1000), ("/b", 2000)]))
        planner.add_server("s2", self._trace([("/x", 1500)]))
        plan = planner.plan(3000.0)
        assert plan.storage_used() <= 3000.0 * 1.001
        assert set(plan.allocations) == {"s1", "s2"}

    def test_documents_fit_allocations(self):
        planner = DisseminationPlanner()
        trace = self._trace([("/a", 1000), ("/b", 2000), ("/c", 500)])
        planner.add_server("s1", trace)
        plan = planner.plan(1600.0)
        chosen_bytes = sum(
            trace.documents[d].size for d in plan.documents["s1"]
        )
        assert chosen_bytes <= plan.allocations["s1"]

    def test_alphas_reported(self):
        planner = DisseminationPlanner()
        planner.add_server("s1", self._trace([("/a", 1000)]))
        plan = planner.plan(10_000.0)
        assert 0.0 <= plan.expected_alpha <= 1.0
        assert plan.empirical_alpha == pytest.approx(1.0)

    def test_server_model_estimation(self):
        planner = DisseminationPlanner()
        planner.add_server("s1", self._trace([("/a", 1000), ("/b", 500)]))
        model = planner.server_model("s1")
        assert model.rate > 0
        assert model.lam > 0

    def test_duplicate_server_rejected(self):
        planner = DisseminationPlanner()
        planner.add_server("s1", self._trace([("/a", 10)]))
        with pytest.raises(AllocationError):
            planner.add_server("s1", self._trace([("/b", 10)]))

    def test_empty_trace_rejected(self):
        with pytest.raises(AllocationError):
            DisseminationPlanner().add_server("s1", Trace([]))

    def test_plan_without_servers_rejected(self):
        with pytest.raises(AllocationError):
            DisseminationPlanner().plan(100.0)

    def test_unknown_server_model(self):
        with pytest.raises(AllocationError):
            DisseminationPlanner().server_model("ghost")

    def test_local_only_server_rejected_in_remote_mode(self):
        planner = DisseminationPlanner()
        local_trace = Trace(
            [Request(timestamp=0.0, client="c", doc_id="/a", size=10, remote=False)]
        )
        planner.add_server("s1", local_trace)
        with pytest.raises(AllocationError):
            planner.server_model("s1")

    def test_popular_server_gets_more_storage(self):
        """Rates are per unit time, so both traces must span the same
        window; the busy server packs 10x the accesses into it."""
        def trace_over_one_day(doc, n_accesses):
            step = 86_400.0 / n_accesses
            return Trace(
                [
                    Request(
                        timestamp=i * step, client=f"c{i}", doc_id=doc, size=1000
                    )
                    for i in range(n_accesses)
                ]
            )

        planner = DisseminationPlanner()
        planner.add_server("busy", trace_over_one_day("/a", 100))
        planner.add_server("idle", trace_over_one_day("/b", 10))
        plan = planner.plan(1500.0)
        assert plan.allocations["busy"] >= plan.allocations["idle"]

"""Fleet subsystem: planning, lookup protocol, faults, and the gates."""

import asyncio
import json

import pytest

from repro.api import Session
from repro.config import DeploySpec
from repro.errors import RuntimeProtocolError, SimulationError
from repro.fleet import (
    FLEET_POLICIES,
    FleetSettings,
    build_fleet_plan,
    build_single_tier_plan,
    execute_fleet,
)
from repro.runtime import CacheNode, InMemoryNetwork, NodeSpec, smoke_workload
from repro.runtime.clock import run_virtual
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.messages import make_request, make_response
from repro.runtime.metrics import MetricsRegistry, verify_conservation
from repro.topology import RoutingTree
from repro.trace.records import Document, Request, Trace


def _toy_tree() -> RoutingTree:
    return RoutingTree(
        "home-server",
        {
            "region-00": "home-server",
            "region-01": "home-server",
            "subnet-00": "region-00",
            "subnet-01": "region-00",
            "subnet-02": "region-01",
            "ca1": "subnet-00",
            "ca2": "subnet-00",
            "cb1": "subnet-01",
            "cb2": "subnet-01",
            "cc1": "subnet-02",
        },
    )


def _toy_trace() -> Trace:
    documents = [Document(f"/d{i}", 100 * (i + 1)) for i in range(8)]
    sizes = {doc.doc_id: doc.size for doc in documents}
    patterns = {
        "ca1": ["/d0", "/d1", "/d0"],
        "ca2": ["/d0", "/d2"],
        "cb1": ["/d2", "/d3", "/d2"],
        "cb2": ["/d3", "/d1"],
        "cc1": ["/d4", "/d5", "/d4", "/d6"],
    }
    requests = []
    when = 0.0
    for client, doc_ids in patterns.items():
        for doc_id in doc_ids:
            when += 1.0
            requests.append(
                Request(
                    timestamp=when,
                    client=client,
                    doc_id=doc_id,
                    size=sizes[doc_id],
                )
            )
    return Trace(requests, documents)


@pytest.fixture(scope="module")
def toy_tree():
    return _toy_tree()


@pytest.fixture(scope="module")
def toy_trace():
    return _toy_trace()


class TestFleetPlan:
    def test_every_policy_builds_within_budget(self, toy_tree, toy_trace):
        for policy in FLEET_POLICIES:
            plan = build_fleet_plan(
                toy_tree, toy_trace, budget_bytes=2000.0, policy=policy
            )
            assert plan.policy == policy
            assert plan.total_bytes() <= 2000.0
            for spec in plan.nodes:
                assert spec.name.startswith(("region-", "subnet-"))

    def test_plan_is_deterministic(self, toy_tree, toy_trace):
        first = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        again = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        assert first == again

    def test_nodes_sorted_shallowest_first(self, toy_tree, toy_trace):
        plan = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        order = [(spec.depth, spec.name) for spec in plan.nodes]
        assert order == sorted(order)

    def test_upstream_chain_and_siblings(self, toy_tree, toy_trace):
        plan = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        by_name = {spec.name: spec for spec in plan.nodes}
        assert by_name["subnet-00"].upstream == "region-00"
        assert by_name["subnet-00"].upstream_distance == 1
        assert by_name["subnet-00"].siblings == ("subnet-01",)
        assert by_name["region-00"].upstream == "home-server"
        # subnet-02 is an only child: nobody to probe.
        assert by_name["subnet-02"].siblings == ()

    def test_hierarchical_subnets_exclude_region_docs(
        self, toy_tree, toy_trace
    ):
        plan = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        by_name = {spec.name: dict(spec.holdings) for spec in plan.nodes}
        for subnet, region in (
            ("subnet-00", "region-00"),
            ("subnet-01", "region-00"),
            ("subnet-02", "region-01"),
        ):
            overlap = set(by_name[subnet]) & set(by_name[region])
            assert overlap == set()

    def test_directory_points_at_actual_holders(self, toy_tree, toy_trace):
        plan = build_fleet_plan(
            toy_tree, toy_trace, budget_bytes=2000.0, policy="cooperative"
        )
        by_name = {spec.name: dict(spec.holdings) for spec in plan.nodes}
        for spec in plan.nodes:
            directory = plan.directory_for(spec.name)
            for doc_id, holders in directory.items():
                for holder in holders:
                    assert holder in spec.siblings
                    assert doc_id in by_name[holder]

    def test_power_of_d_probes_by_hash(self, toy_tree, toy_trace):
        plan = build_fleet_plan(
            toy_tree, toy_trace, budget_bytes=2000.0, policy="power-of-d"
        )
        assert plan.probe_mode == "hashed"

    def test_zero_budget_plan_is_empty_but_routable(
        self, toy_tree, toy_trace
    ):
        plan = build_fleet_plan(toy_tree, toy_trace, budget_bytes=0.0)
        assert plan.total_bytes() == 0
        assert plan.node_names()  # geometry survives an empty budget

    def test_without_holdings_keeps_geometry(self, toy_tree, toy_trace):
        plan = build_fleet_plan(toy_tree, toy_trace, budget_bytes=2000.0)
        bare = plan.without_holdings()
        assert bare.node_names() == plan.node_names()
        assert bare.total_bytes() == 0

    def test_unknown_policy_rejected(self, toy_tree, toy_trace):
        with pytest.raises(SimulationError):
            build_fleet_plan(
                toy_tree, toy_trace, budget_bytes=1.0, policy="magic"
            )

    def test_region_fraction_range_checked(self, toy_tree, toy_trace):
        with pytest.raises(SimulationError):
            build_fleet_plan(
                toy_tree, toy_trace, budget_bytes=1.0, region_fraction=1.5
            )

    def test_single_tier_replicates_everywhere(self, toy_tree, toy_trace):
        plan = build_single_tier_plan(
            toy_tree,
            toy_trace,
            budget_bytes=2000.0,
            regions=["region-00", "region-01"],
            holdings={"/d0": 100, "/d1": 200},
        )
        assert plan.policy == "single-tier"
        expected = (("/d0", 100), ("/d1", 200))
        for spec in plan.nodes:
            assert spec.holdings == expected
            assert spec.upstream == "home-server"


class _SiblingHarness:
    """Two sibling subnets and an origin, wired by hand."""

    DOC = "/doc/x"
    SIZE = 500

    def __init__(self, *, partition: bool):
        self.partition = partition
        self.metrics = MetricsRegistry()

    async def run(self) -> dict:
        network = InMemoryNetwork(seed=7)
        injector_task = None
        if self.partition:
            injector = FaultInjector(
                FaultPlan().partition("subnet-a", "subnet-b", at=0.0),
                seed=0,
                metrics=self.metrics,
            )
            network.attach_faults(injector)
            injector_task = asyncio.get_running_loop().create_task(
                injector.run()
            )

        origin_endpoint = network.endpoint("home-server")

        async def origin_handler(message):
            return make_response(
                "home-server",
                message.request_id,
                message.payload["doc_id"],
                self.SIZE,
                "home-server",
            )

        origin_endpoint.start(origin_handler)

        spec_a = NodeSpec(
            name="subnet-a",
            depth=2,
            upstream="home-server",
            upstream_distance=2,
            siblings=("subnet-b",),
        )
        spec_b = NodeSpec(
            name="subnet-b",
            depth=2,
            upstream="home-server",
            upstream_distance=2,
            siblings=("subnet-a",),
            holdings=((self.DOC, self.SIZE),),
        )
        endpoint_a = network.endpoint("subnet-a")
        endpoint_b = network.endpoint("subnet-b")
        node_a = CacheNode(
            spec_a,
            endpoint_a,
            label="fleet",
            metrics=self.metrics,
            directory={self.DOC: ("subnet-b",)},
            probe_timeout=0.5,
            upstream_timeout=5.0,
        )
        node_b = CacheNode(
            spec_b, endpoint_b, label="fleet", metrics=self.metrics
        )
        endpoint_a.start(node_a.handle)
        endpoint_b.start(node_b.handle)

        client = network.endpoint("client-1")
        client.start()  # no handler: the client only pumps replies
        await asyncio.sleep(0.01)  # let the injector apply t=0 events
        request = make_request(
            "client-1", client.next_request_id(), self.DOC, 0.0
        )
        try:
            reply = await client.call("subnet-a", request, timeout=30.0)
        finally:
            if injector_task is not None and not injector_task.done():
                injector_task.cancel()
                await asyncio.gather(injector_task, return_exceptions=True)
            await node_a.close()
            await node_b.close()
            for endpoint in (endpoint_a, endpoint_b, origin_endpoint, client):
                await endpoint.close()
        return reply.payload


class TestSiblingProbe:
    def test_probe_serves_from_the_sibling(self):
        harness = _SiblingHarness(partition=False)
        payload = run_virtual(harness.run())
        counters = harness.metrics.snapshot()["counters"]
        assert payload["served_by"] == "subnet-b"
        assert payload["path_hops"] == 2  # up to the parent and back down
        assert counters["fleet.subnet-a.sibling_hits"] == 1
        assert counters["fleet.subnet-b.hits"] == 1
        assert "fleet.subnet-a.forwards" not in counters

    def test_partitioned_sibling_falls_back_to_upstream(self):
        # Regression: a partition between siblings must degrade the
        # probe into an upstream forward, not fail the request.
        harness = _SiblingHarness(partition=True)
        payload = run_virtual(harness.run())
        counters = harness.metrics.snapshot()["counters"]
        assert payload["served_by"] == "home-server"
        assert payload["path_hops"] == 2  # the upstream leg only
        assert counters["fleet.subnet-a.probe_failures"] == 1
        assert counters.get("fleet.subnet-a.sibling_hits", 0) == 0
        assert counters["fleet.subnet-a.forwards"] == 1

    def test_probe_miss_never_recurses(self):
        # A probed node without the document answers with a protocol
        # error instead of forwarding (loop prevention), and the prober
        # carries on upstream.
        async def scenario():
            metrics = MetricsRegistry()
            network = InMemoryNetwork(seed=3)
            origin_endpoint = network.endpoint("home-server")

            async def origin_handler(message):
                return make_response(
                    "home-server",
                    message.request_id,
                    message.payload["doc_id"],
                    64,
                    "home-server",
                )

            origin_endpoint.start(origin_handler)
            specs = {
                name: NodeSpec(
                    name=name,
                    depth=2,
                    upstream="home-server",
                    upstream_distance=2,
                    siblings=(sibling,),
                )
                for name, sibling in (
                    ("subnet-a", "subnet-b"),
                    ("subnet-b", "subnet-a"),
                )
            }
            endpoints, nodes = [], []
            for name, spec in specs.items():
                endpoint = network.endpoint(name)
                node = CacheNode(
                    spec,
                    endpoint,
                    label="fleet",
                    metrics=metrics,
                    directory={"/doc/y": (spec.siblings[0],)},
                    upstream_timeout=5.0,
                )
                endpoint.start(node.handle)
                endpoints.append(endpoint)
                nodes.append(node)
            client = network.endpoint("client-1")
            client.start()
            request = make_request(
                "client-1", client.next_request_id(), "/doc/y", 0.0
            )
            try:
                reply = await client.call("subnet-a", request, timeout=30.0)
            finally:
                for node in nodes:
                    await node.close()
                for endpoint in (*endpoints, origin_endpoint, client):
                    await endpoint.close()
            return reply.payload, metrics.snapshot()["counters"]

        payload, counters = run_virtual(scenario())
        assert payload["served_by"] == "home-server"
        assert counters["fleet.subnet-a.probe_misses"] == 1
        assert counters["fleet.subnet-b.probe_rejects"] == 1
        # The probed node never forwarded anything on the probe's behalf.
        assert counters.get("fleet.subnet-b.forwards", 0) == 0


WORKLOAD = smoke_workload(0)


@pytest.fixture(scope="module")
def fleet_report():
    return execute_fleet(WORKLOAD, FleetSettings())


class TestFleetRun:
    def test_all_four_ratios_beat_the_single_tier(self, fleet_report):
        # The headline acceptance gate: at equal total storage the fleet
        # must improve traffic, load, time and miss rate simultaneously.
        fleet_report.require_improvement()
        for name, (fleet, single) in fleet_report.improvement().items():
            assert fleet < single, name

    def test_fleet_and_single_both_beat_the_demand_baseline(
        self, fleet_report
    ):
        ratios = fleet_report.ratios
        assert ratios.server_load_ratio < 1.0
        assert ratios.service_time_ratio < 1.0
        assert ratios.miss_rate_ratio < 1.0

    def test_fleet_nodes_serve_and_probe(self, fleet_report):
        counters = fleet_report.fleet["counters"]
        assert counters["proxy_requests"] > 0
        hits = sum(
            amount
            for name, amount in counters.items()
            if name.startswith("fleet.") and name.endswith(".hits")
        )
        sibling_hits = sum(
            amount
            for name, amount in counters.items()
            if name.startswith("fleet.") and name.endswith(".sibling_hits")
        )
        assert hits > 0
        assert sibling_hits > 0

    def test_per_node_counters_do_not_collide(self, fleet_report):
        counters = fleet_report.fleet["counters"]
        serving_nodes = {
            name.split(".")[1]
            for name in counters
            if name.startswith("fleet.") and name.endswith(".bytes_served")
        }
        assert len(serving_nodes) > 1
        tiers = {node.split("-")[0] for node in serving_nodes}
        assert tiers == {"region", "subnet"}

    def test_conservation_holds_strictly(self, fleet_report):
        for snapshot in (
            fleet_report.demand,
            fleet_report.single,
            fleet_report.fleet,
        ):
            verify_conservation(snapshot, strict=True)

    def test_plan_summary_reports_both_tiers(self, fleet_report):
        summary = fleet_report.plan
        assert summary["policy"] == "hierarchical"
        assert set(summary["tiers"]) == {"region", "subnet"}
        assert 0 < summary["stored_bytes"] <= summary["budget_bytes"]

    def test_repeated_run_is_bit_identical(self, fleet_report):
        again = execute_fleet(WORKLOAD, FleetSettings())
        dump = lambda snap: json.dumps(snap, sort_keys=True)  # noqa: E731
        assert dump(again.fleet) == dump(fleet_report.fleet)
        assert dump(again.single) == dump(fleet_report.single)
        assert dump(again.demand) == dump(fleet_report.demand)

    def test_schedule_perturbation_keeps_decisions(self, fleet_report):
        perturbed = execute_fleet(
            WORKLOAD, FleetSettings(schedule_seed=11)
        )
        for key in ("bytes_hops", "origin_requests", "accessed_bytes"):
            assert (
                perturbed.fleet["counters"][key]
                == fleet_report.fleet["counters"][key]
            )

    def test_a_multi_worker_spec_is_refused_not_run_in_one_process(self):
        # The fleet has no sharded executor: answering a four-worker spec
        # from one process would misreport what ran.
        spec = DeploySpec(workers=4)
        with pytest.raises(SimulationError, match="workers"):
            execute_fleet(WORKLOAD, FleetSettings(), deploy=spec)
        with pytest.raises(SimulationError, match="workers"):
            Session(deploy=spec).fleet()


class TestFleetFaults:
    def test_fault_plan_scripts_apply_to_fleet_nodes(self):
        # The same FaultPlan vocabulary the chaos gate scripts — crash,
        # partition, brownout — drives fleet nodes unchanged.
        plan = (
            FaultPlan()
            .crash("subnet-01-0", at=0.3, restart_at=1.0)
            .partition("subnet-01-1", "subnet-01-2", at=0.2, heal_at=1.5)
            .latency_add(0.05, at=0.1, until=2.0, target=("home-server",))
        )
        report = execute_fleet(WORKLOAD, FleetSettings(), fault_plan=plan)
        counters = report.fleet["counters"]
        assert counters["fleet.subnet-01-0.crashes"] == 1
        assert counters["fleet.subnet-01-0.restarts"] == 1
        for action in ("crash", "restart", "partition", "heal"):
            assert counters[f"faults.{action}"] == 1
        # Every access was still answered despite the script.
        assert (
            counters["accesses"]
            == report.demand["counters"]["accesses"]
        )
        verify_conservation(report.fleet)  # non-strict under faults

    def test_faulted_run_raises_nothing_and_reports_ratios(self):
        plan = FaultPlan().crash("region-01", at=0.3, restart_at=1.2)
        report = execute_fleet(WORKLOAD, FleetSettings(), fault_plan=plan)
        assert report.ratios.service_time_ratio < 1.0
        assert report.fleet["counters"]["fleet.region-01.crashes"] == 1

"""The deployment layer: hash ring, event bus, fault plans, processes.

The distributed integration tests fork real OS processes and talk over
real sockets; they use the tiny smoke workload so the whole module
stays in CI-friendly territory.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, Session
from repro.config import LOCAL_DEPLOY, DeploySpec
from repro.deploy import (
    DeployFaultPlan,
    EventBus,
    HashRing,
    execute_deploy,
    shard_name,
)
from repro.deploy.workers import ProxyFault
from repro.errors import SimulationError, TransportError
from repro.runtime import (
    LiveSettings,
    TcpServer,
    execute_loadtest,
    smoke_workload,
    tcp_call,
)
from repro.runtime.messages import make_request, make_response
from repro.runtime.transport import dial

DOC_IDS = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._-", min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=120,
    unique=True,
)


class TestHashRing:
    @given(docs=DOC_IDS, shards=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_every_doc_has_exactly_one_stable_owner(self, docs, shards):
        ring = HashRing(shards)
        rebuilt = HashRing(shards)
        names = {shard_name(index) for index in range(shards)}
        for doc in docs:
            owner = ring.owner(doc)
            assert owner in names
            # Ownership is a pure function of (doc, ring state): an
            # independently constructed ring in another process agrees.
            assert rebuilt.owner(doc) == owner
            assert ring.owners(doc, 1) == (owner,)

    @given(docs=DOC_IDS, shards=st.integers(2, 6), replicas=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_owners_are_distinct_and_led_by_the_primary(
        self, docs, shards, replicas
    ):
        replicas = min(replicas, shards)
        ring = HashRing(shards)
        for doc in docs:
            owners = ring.owners(doc, replicas)
            assert len(owners) == replicas
            assert len(set(owners)) == replicas
            assert owners[0] == ring.owner(doc)

    @given(
        docs=st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._-",
                min_size=1,
                max_size=24,
            ),
            min_size=100,
            max_size=300,
            unique=True,
        ),
        shards=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_adding_a_shard_moves_a_bounded_key_fraction(self, docs, shards):
        before = HashRing(shards)
        after = HashRing(shards + 1)
        moved = sum(
            1 for doc in docs if before.owner(doc) != after.owner(doc)
        )
        # Consistent hashing's headline property: growing the ring from
        # n to n+1 shards reassigns about 1/(n+1) of the keys.  The
        # epsilon absorbs vnode arc-length variance on small samples.
        assert moved / len(docs) <= 1 / (shards + 1) + 0.25

    def test_resolver_fails_over_across_the_replica_set(self):
        ring = HashRing(3)
        resolve = ring.resolver(2)
        owners = ring.owners("/page.html", 2)
        assert resolve("/page.html", 0) == owners[0]
        assert resolve("/page.html", 1) == owners[1]
        assert resolve("/page.html", 2) == owners[0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            HashRing(0)
        with pytest.raises(SimulationError):
            HashRing(2, vnodes=0)
        with pytest.raises(SimulationError):
            HashRing(2).owners("/a", 3)


class TestEventBus:
    def test_round_trip_preserves_publish_order(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        bus.publish("control", "start", {"n": 1}, event_id="e1")
        bus.publish("control", "stop", {"n": 2}, event_id="e2")
        events = bus.consumer("control").drain()
        assert [(e.event_id, e.kind, e.payload) for e in events] == [
            ("e1", "start", {"n": 1}),
            ("e2", "stop", {"n": 2}),
        ]

    def test_at_least_once_duplicates_are_absorbed(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        for _ in range(3):
            bus.publish("placement", "placement", {"p": 1}, event_id="p:0")
        consumer = bus.consumer("placement")
        assert [e.event_id for e in consumer.drain()] == ["p:0"]
        assert consumer.duplicates == 2

    def test_torn_line_is_never_consumed(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        bus.publish("control", "start", {}, event_id="e1")
        path = tmp_path / "bus" / "control.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"event_id": "e2", "kind": "stop", "payl')
        consumer = bus.consumer("control")
        assert [e.event_id for e in consumer.drain()] == ["e1"]
        with path.open("ab") as handle:
            handle.write(b'oad": {}}\n')
        assert [e.event_id for e in consumer.drain()] == ["e2"]

    def test_offset_checkpoint_resumes_without_replay(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        bus.publish("control", "a", {}, event_id="e1")
        bus.publish("control", "b", {}, event_id="e2")
        consumer = bus.consumer("control")
        assert consumer.poll_one().event_id == "e1"
        resumed = bus.consumer("control", offset=consumer.offset)
        assert [e.event_id for e in resumed.drain()] == ["e2"]

    def test_replay_is_the_recovery_path(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        bus.publish("placement", "placement", {"v": 1}, event_id="p:0")
        bus.publish("placement", "placement", {"v": 1}, event_id="p:0")
        bus.publish("placement", "placement", {"v": 2}, event_id="p:1")
        assert [e.payload["v"] for e in bus.replay("placement")] == [1, 2]

    def test_invalid_topics_are_rejected(self, tmp_path):
        bus = EventBus(tmp_path / "bus")
        for topic in ("", "../escape", ".hidden"):
            with pytest.raises(SimulationError):
                bus.publish(topic, "k", {}, event_id="x")

    def test_await_event_times_out(self, tmp_path):
        bus = EventBus(tmp_path / "bus")

        async def wait():
            await bus.consumer("empty").await_event(
                lambda event: True, timeout=0.05
            )

        with pytest.raises(SimulationError):
            asyncio.run(wait())


class TestDeploySpec:
    def test_local_default(self):
        assert LOCAL_DEPLOY.local
        assert LOCAL_DEPLOY.proxy_hosts == 0
        assert DeploySpec(processes=1) == LOCAL_DEPLOY

    def test_distributed_topology_split(self):
        spec = DeploySpec(processes=5, shards=2, replicas=2)
        assert not spec.local
        assert spec.proxy_hosts == 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            DeploySpec(processes=0)
        with pytest.raises(SimulationError):
            DeploySpec(shards=0)
        with pytest.raises(SimulationError):
            DeploySpec(shards=2, replicas=3)
        with pytest.raises(SimulationError):
            # 3 shards need at least 4 processes (one proxy host).
            DeploySpec(processes=3, shards=3)

    def test_with_updates(self):
        spec = DeploySpec(processes=4, shards=2)
        assert spec.with_updates(replicas=2).replicas == 2
        assert spec.with_updates(replicas=2) != spec


class TestDeployFaultPlan:
    def test_resolves_indexes_to_sorted_proxy_names(self):
        plan = DeployFaultPlan(
            crash_proxy=0, crash_after=5, restart_after=9,
            partition_proxy=1, partition_from=3, partition_until=7,
        )
        faults = plan.resolve(["region-01", "region-02"])
        assert faults["region-01"] == ProxyFault(crash_after=5, restart_after=9)
        assert faults["region-02"] == ProxyFault(
            partition_from=3, partition_until=7
        )

    def test_crash_and_partition_merge_on_one_target(self):
        plan = DeployFaultPlan(
            crash_proxy=0, crash_after=5, partition_proxy=0, partition_from=8
        )
        faults = plan.resolve(["region-01"])
        assert faults["region-01"].crash_after == 5
        assert faults["region-01"].partition_from == 8

    def test_out_of_range_index_is_rejected(self):
        with pytest.raises(SimulationError):
            DeployFaultPlan(crash_proxy=2).resolve(["region-01"])


class TestTcpServerClose:
    """Regression: ``close()`` must flush in-flight replies first."""

    def test_close_drains_the_reply_a_slow_handler_owes(self):
        self._drains(1)

    def test_close_drains_every_request_in_flight_on_one_socket(self):
        self._drains(3)

    def _drains(self, in_flight):
        async def scenario():
            release = asyncio.Event()

            async def slow_handler(message):
                await release.wait()
                return make_response(
                    "origin", message.request_id, "/a", 64, "origin"
                )

            server = TcpServer(slow_handler, drain_timeout=5.0)
            await server.start()
            link = await dial("127.0.0.1", server.port)
            calls = [
                asyncio.create_task(
                    link.call(make_request("c", f"c#{n}", "/a", 0.0), timeout=5.0)
                )
                for n in range(in_flight)
            ]
            await asyncio.sleep(0.05)  # requests are now inside the handler
            closer = asyncio.create_task(server.close())
            await asyncio.sleep(0.05)  # close() is now draining, not killing
            assert not any(call.done() for call in calls)
            release.set()
            replies = await asyncio.gather(*calls)
            await closer
            await link.close()
            return replies

        replies = asyncio.run(scenario())
        assert [reply.request_id for reply in replies] == [
            f"c#{n}" for n in range(in_flight)
        ]
        assert {reply.payload["served_by"] for reply in replies} == {"origin"}

    def test_close_still_cancels_after_the_drain_timeout(self):
        async def scenario():
            async def stuck_handler(message):
                await asyncio.sleep(30.0)
                return None

            server = TcpServer(stuck_handler, drain_timeout=0.1)
            await server.start()
            call = asyncio.create_task(
                tcp_call(
                    "127.0.0.1",
                    server.port,
                    make_request("c", "c#1", "/a", 0.0),
                    timeout=5.0,
                )
            )
            await asyncio.sleep(0.05)
            started = time.perf_counter()
            await server.close()
            assert time.perf_counter() - started < 5.0
            with pytest.raises(TransportError):
                await call

        asyncio.run(scenario())


class TestExecuteDeploy:
    def test_local_spec_is_the_single_loop_mode(self):
        report = execute_deploy(smoke_workload(0), LiveSettings(seed=0))
        local = execute_loadtest(smoke_workload(0), LiveSettings(seed=0))
        assert report.processes == 1
        assert report.bus_path is None
        assert report.spec == LOCAL_DEPLOY
        assert report.ratios == local.ratios

    def test_fault_plan_requires_a_distributed_spec(self):
        with pytest.raises(SimulationError):
            execute_deploy(
                smoke_workload(0),
                LiveSettings(seed=0),
                fault_plan=DeployFaultPlan(crash_proxy=0),
            )

    def test_loadtest_rejects_distributed_specs(self):
        with pytest.raises(SimulationError):
            execute_loadtest(
                smoke_workload(0),
                LiveSettings(seed=0),
                deploy=DeploySpec(processes=4, shards=2),
            )

    def test_distributed_ratios_are_bit_identical_to_single_loop(
        self, tmp_path
    ):
        spec = DeploySpec(
            processes=4, shards=2, replicas=2, bus_path=str(tmp_path / "bus")
        )
        report = execute_deploy(smoke_workload(0), LiveSettings(seed=0), spec=spec)
        local = execute_loadtest(smoke_workload(0), LiveSettings(seed=0))
        # The cross-process correctness gate: merged ratios equal the
        # single-loop reference exactly, not within a tolerance.
        assert report.ratios == local.ratios
        assert report.processes == 4
        assert report.bus_path == str(tmp_path / "bus")
        # The coordinator double-publishes placements, so the duplicate
        # filters must have absorbed at least one event per proxy per arm.
        assert report.bus_duplicates >= 2 * len(report.anti_entropy)
        assert report.anti_entropy  # every proxy reported a digest
        assert (tmp_path / "bus" / "baseline" / "placement.jsonl").exists()


class TestSessionDeploy:
    def test_runspec_threads_the_deploy_spec(self):
        spec = DeploySpec(processes=4, shards=2)
        assert RunSpec(deploy=spec).resolved_deploy() is spec
        assert RunSpec().resolved_deploy() == LOCAL_DEPLOY

    def test_facade_returns_the_one_report_shape(self):
        report = Session(seed=0).deploy()
        assert report.kind == "deploy"
        assert report.detail.processes == 1
        assert report.ratios == report.detail.ratios

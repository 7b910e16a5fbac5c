"""Live runtime end-to-end: determinism, batch parity, daemon, TCP."""

import asyncio
import json
import math

import pytest

from repro.errors import RuntimeProtocolError, SimulationError, TransportError
from repro.runtime import (
    CacheNode,
    DisseminationDaemon,
    InMemoryNetwork,
    LiveReport,
    LiveSettings,
    MetricsRegistry,
    NodeSpec,
    OnlineDependencyEstimator,
    OriginServer,
    TcpServer,
    execute_loadtest,
    execute_smoke,
    run_virtual,
    smoke_workload,
    tcp_call,
)
from repro.runtime.messages import Message, make_request
from repro.speculation.metrics import SpeculationRatios
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.riders import RiderTable
from repro.trace.records import Document
from repro.workload.generator import GeneratorConfig, SyntheticTraceGenerator

SMALL = GeneratorConfig(
    seed=2, n_pages=50, n_clients=40, n_sessions=250, duration_days=6
)


SETTINGS = LiveSettings(seed=3, budget_bytes=300_000.0)


def flat_spec(name="region-0", *, depth=1, holdings=None) -> NodeSpec:
    """A flat region proxy: no siblings, the origin one leg upstream."""
    return NodeSpec(
        name=name,
        depth=depth,
        upstream="home-server",
        upstream_distance=depth,
        holdings=tuple(sorted((holdings or {}).items())),
    )


@pytest.fixture(scope="module")
def report():
    return execute_loadtest(SMALL, SETTINGS, verify_batch=True)


class TestLoadtest:
    def test_same_seed_reproduces_snapshots(self, report):
        again = execute_loadtest(SMALL, SETTINGS, verify_batch=True)
        dump = lambda snap: json.dumps(snap, sort_keys=True)  # noqa: E731
        assert dump(again.baseline) == dump(report.baseline)
        assert dump(again.speculative) == dump(report.speculative)
        assert again.ratios == report.ratios

    def test_network_seed_changes_latencies_not_ratios(self, report):
        other = execute_loadtest(
            SMALL, LiveSettings(seed=4, budget_bytes=300_000.0)
        )
        # Decisions are seed-free; only float summation order may shift.
        assert other.ratios.bandwidth_ratio == report.ratios.bandwidth_ratio
        assert (
            other.ratios.server_load_ratio == report.ratios.server_load_ratio
        )
        assert other.ratios.service_time_ratio == pytest.approx(
            report.ratios.service_time_ratio
        )
        assert (
            other.speculative["histograms"]["request_latency"]
            != report.speculative["histograms"]["request_latency"]
        )

    def test_speculation_relieves_the_origin(self, report):
        base = report.baseline["counters"]
        spec = report.speculative["counters"]
        assert spec["origin_requests"] < base["origin_requests"]
        assert spec["proxy_requests"] > 0
        assert base.get("speculated_documents", 0) == 0
        assert spec["speculated_documents"] > 0
        assert report.disseminated_documents > 0
        # Speculation trades a little traffic for load and service time.
        assert report.ratios.server_load_ratio < 1.0
        assert report.ratios.service_time_ratio < 1.0
        assert report.ratios.miss_rate_ratio < 1.0

    def test_live_matches_batch_replay(self, report):
        assert report.batch_ratios is not None
        assert report.max_divergence() <= 0.05
        report.require_convergence(0.05)

    def test_divergence_raises_at_negative_tolerance(self, report):
        with pytest.raises(RuntimeProtocolError, match="diverge"):
            report.require_convergence(-1.0)

    def test_smoke_self_test_converges(self):
        smoke = execute_smoke(0)  # raises on a >1e-12 relative gap in any of the four ratios
        assert smoke.batch_ratios is not None
        assert smoke.baseline["counters"]["accesses"] > 0

    def test_tiny_workload_rejected(self):
        tiny = GeneratorConfig(
            seed=0, n_pages=4, n_clients=2, n_sessions=1, duration_days=1
        )
        with pytest.raises(SimulationError):
            execute_loadtest(tiny)


#: The benchmark's MID scale (``benchmarks/e2e``, ``live-mem``).
MID = GeneratorConfig(
    seed=0, n_pages=300, n_clients=600, n_sessions=5000, duration_days=30
)


class TestBatchParity:
    """Live == batch on all four ratios (the paper's section 3.2)."""

    @pytest.mark.parametrize(
        "workload",
        [
            smoke_workload(1),
            MID,
            GeneratorConfig(
                seed=1,
                n_pages=300,
                n_clients=600,
                n_sessions=5000,
                duration_days=30,
            ),
        ],
        ids=["smoke-1", "mid-0", "mid-1"],
    )
    def test_live_equals_batch(self, workload):
        report = execute_loadtest(
            workload,
            LiveSettings(seed=workload.seed, concurrency=8),
            verify_batch=True,
        )
        live, batch = report.ratios, report.batch_ratios
        assert live.bandwidth_ratio == batch.bandwidth_ratio
        assert live.server_load_ratio == batch.server_load_ratio
        assert live.miss_rate_ratio == batch.miss_rate_ratio
        # The two sides sum the same service-time floats in another order.
        assert live.service_time_ratio == pytest.approx(
            batch.service_time_ratio, rel=1e-12, abs=0.0
        )
        report.require_convergence()

    def test_a_non_finite_gap_fails_the_gate(self):
        finite = SpeculationRatios(1.0, 1.0, 1.0, 1.0)
        for batch in (
            SpeculationRatios(math.inf, 1.0, 1.0, 1.0),
            SpeculationRatios(1.0, 1.0, 1.0, math.nan),
        ):
            report = LiveReport({}, {}, ratios=finite, batch_ratios=batch)
            assert report.max_divergence() == math.inf
            with pytest.raises(RuntimeProtocolError, match="diverge"):
                report.require_convergence(0.05)

    def test_equal_infinities_do_not_diverge(self):
        ratios = SpeculationRatios(math.inf, 1.0, 1.0, 1.0)
        report = LiveReport({}, {}, ratios=ratios, batch_ratios=ratios)
        assert report.max_divergence() == 0.0
        report.require_convergence()


class TestDaemon:
    def test_push_once_replaces_proxy_holdings(self):
        async def scenario():
            trace = SyntheticTraceGenerator(
                GeneratorConfig(
                    seed=5, n_pages=30, n_clients=10, n_sessions=80, duration_days=3
                )
            ).generate().remote_only()
            network = InMemoryNetwork(seed=0)
            estimator = OnlineDependencyEstimator(learn=True)
            origin_endpoint = network.endpoint("home-server")
            origin = OriginServer(trace.documents, estimator=estimator)
            origin_endpoint.start(origin.handle)
            proxy_endpoint = network.endpoint("region-0")
            proxy = CacheNode(flat_spec(), proxy_endpoint, label="proxy")
            proxy_endpoint.start(proxy.handle)
            # Live demand builds the history the daemon plans from.
            for index, request in enumerate(trace):
                await origin.handle(
                    make_request(
                        request.client,
                        f"seed#{index}",
                        request.doc_id,
                        request.timestamp,
                    )
                )
            daemon = DisseminationDaemon(
                origin,
                origin_endpoint,
                ["region-0"],
                budget_bytes=500_000.0,
            )
            try:
                pushed = await daemon.push_once()
                return pushed, proxy.holdings, daemon.metrics.snapshot()
            finally:
                await proxy_endpoint.close()
                await origin_endpoint.close()

        pushed, holdings, metrics = run_virtual(scenario())
        assert len(pushed) > 0
        assert set(holdings) == set(pushed)
        assert metrics["counters"]["daemon.pushes"] == 1
        assert metrics["counters"]["daemon.replans"] == 1

    def test_unreachable_proxy_degrades_not_fails(self):
        async def scenario():
            trace = SyntheticTraceGenerator(
                GeneratorConfig(
                    seed=5, n_pages=30, n_clients=10, n_sessions=80, duration_days=3
                )
            ).generate().remote_only()
            network = InMemoryNetwork(seed=0)
            estimator = OnlineDependencyEstimator(learn=False)
            estimator.warm(trace)
            origin_endpoint = network.endpoint("home-server")
            origin = OriginServer(trace.documents, estimator=estimator)
            origin_endpoint.start(origin.handle)
            for index, request in enumerate(trace):
                await origin.handle(
                    make_request(
                        request.client,
                        f"seed#{index}",
                        request.doc_id,
                        request.timestamp,
                    )
                )
            # A proxy endpoint that never pumps its inbox: the push
            # times out and the daemon must carry on.
            network.endpoint("region-dead")
            daemon = DisseminationDaemon(
                origin,
                origin_endpoint,
                ["region-dead"],
                budget_bytes=500_000.0,
                push_timeout=1.0,
            )
            try:
                pushed = await daemon.push_once()
                return pushed, daemon.metrics.snapshot()
            finally:
                await origin_endpoint.close()

        pushed, metrics = run_virtual(scenario())
        assert len(pushed) > 0
        assert metrics["counters"]["daemon.failed_pushes"] == 1
        assert "daemon.pushes" not in metrics["counters"]

    def test_repush_request_during_push_is_served_promptly(self):
        """Regression: a request_repush() arriving while the daemon is
        awaiting inside push_once() used to have its wake-up consumed
        by the loop-top clear(), delaying the re-push by a full
        UpdateCycle (or forever with interval=None)."""
        interval = 5.0

        async def scenario():
            trace = SyntheticTraceGenerator(
                GeneratorConfig(
                    seed=5, n_pages=30, n_clients=10, n_sessions=80, duration_days=3
                )
            ).generate().remote_only()
            network = InMemoryNetwork(seed=0)
            estimator = OnlineDependencyEstimator(learn=True)
            origin_endpoint = network.endpoint("home-server")
            origin = OriginServer(trace.documents, estimator=estimator)
            origin_endpoint.start(origin.handle)
            proxy_endpoint = network.endpoint("region-0")
            proxy = CacheNode(flat_spec(), proxy_endpoint, label="proxy")
            proxy_endpoint.start(proxy.handle)
            for index, request in enumerate(trace):
                await origin.handle(
                    make_request(
                        request.client,
                        f"seed#{index}",
                        request.doc_id,
                        request.timestamp,
                    )
                )
            daemon = DisseminationDaemon(
                origin,
                origin_endpoint,
                ["region-0"],
                budget_bytes=500_000.0,
                interval=interval,
            )
            loop = asyncio.get_running_loop()
            runner = loop.create_task(daemon.run())
            # Land the request 1ms into the first cycle's push, while
            # the daemon is awaiting the proxy's ack (round trip is
            # >= 10ms of virtual latency).
            loop.call_later(
                interval + 0.001, daemon.request_repush, "region-0"
            )
            await asyncio.sleep(interval + 1.0)
            served_at = loop.time()
            try:
                counters = daemon.metrics.snapshot()["counters"]
                return counters, served_at
            finally:
                runner.cancel()
                await proxy_endpoint.close()
                await origin_endpoint.close()

        counters, served_at = run_virtual(scenario())
        assert counters["daemon.repush_requests"] == 1
        # Served within the same cycle, not at the next interval wake.
        assert counters.get("daemon.repushes", 0) == 1
        assert served_at < 2 * interval

    def test_named_daemon_labels_its_counters(self):
        """Per-node daemons in a fleet share one registry; the name
        keyword keeps their counters from colliding."""
        network = InMemoryNetwork(seed=0)
        endpoint = network.endpoint("home-server")
        origin = OriginServer(
            {}, estimator=OnlineDependencyEstimator(learn=False)
        )
        registry = MetricsRegistry()
        daemon = DisseminationDaemon(
            origin,
            endpoint,
            [],
            budget_bytes=1.0,
            name="region-01",
            metrics=registry,
        )
        other = DisseminationDaemon(
            origin,
            endpoint,
            [],
            budget_bytes=1.0,
            name="region-02",
            metrics=registry,
        )
        daemon.pause()
        daemon.resume()
        other.pause()
        counters = registry.snapshot()["counters"]
        assert counters["daemon.region-01.pauses"] == 1
        assert counters["daemon.region-01.resumes"] == 1
        assert counters["daemon.region-02.pauses"] == 1
        assert "daemon.pauses" not in counters

    def test_unnamed_daemon_keeps_the_bare_prefix(self):
        network = InMemoryNetwork(seed=0)
        endpoint = network.endpoint("home-server")
        origin = OriginServer(
            {}, estimator=OnlineDependencyEstimator(learn=False)
        )
        registry = MetricsRegistry()
        daemon = DisseminationDaemon(
            origin, endpoint, [], budget_bytes=1.0, metrics=registry
        )
        daemon.pause()
        assert registry.snapshot()["counters"]["daemon.pauses"] == 1


class TestCacheNode:
    """The one node class, in its degenerate flat-proxy shape."""

    DOCS = {"/held": 700, "/far": 300}

    async def _ask(self, label, depth, payload_extra):
        """One client request per entry of ``payload_extra`` at a flat
        node of the given depth; returns (reply payloads or protocol
        errors, counters)."""
        metrics = MetricsRegistry()
        network = InMemoryNetwork(seed=0)
        origin_endpoint = network.endpoint("home-server")
        origin = OriginServer(
            {doc: Document(doc_id=doc, size=size) for doc, size in self.DOCS.items()},
            estimator=OnlineDependencyEstimator(learn=False),
            metrics=metrics,
        )
        origin_endpoint.start(origin.handle)
        endpoint = network.endpoint("region-0")
        node = CacheNode(
            flat_spec(depth=depth, holdings={"/held": 700}),
            endpoint,
            label=label,
            metrics=metrics,
            upstream_timeout=5.0,
        )
        endpoint.start(node.handle)
        client = network.endpoint("c1")
        client.start(None)
        outcomes = []
        try:
            for doc_id, extra in payload_extra:
                request = make_request("c1", client.next_request_id(), doc_id, 0.0)
                request.payload.update(extra)
                try:
                    reply = await client.call("region-0", request, timeout=30.0)
                    outcomes.append(reply.payload)
                except RuntimeProtocolError as error:
                    outcomes.append(error)
        finally:
            await node.close()
            for closing in (client, endpoint, origin_endpoint):
                await closing.close()
        return outcomes, metrics.snapshot()["counters"]

    @pytest.mark.parametrize("label", ["proxy", "fleet"])
    def test_probe_for_a_missing_document_is_rejected_not_forwarded(self, label):
        # A sibling-less, policy-less node still speaks the whole
        # protocol: a probe it cannot answer locally is a probe miss,
        # never an upstream forward (probes must not recurse).
        (outcome,), counters = run_virtual(
            self._ask(label, 1, [("/far", {"probe": True})])
        )
        assert isinstance(outcome, RuntimeProtocolError)
        assert "probe miss" in str(outcome)
        assert counters[f"{label}.region-0.probe_rejects"] == 1
        assert f"{label}.region-0.forwards" not in counters
        assert "origin.requests" not in counters

    @pytest.mark.parametrize("depth", [1, 3])
    def test_flat_replies_carry_the_hops_above_the_entry_node(self, depth):
        (local, relayed), counters = run_virtual(
            self._ask("proxy", depth, [("/held", {}), ("/far", {})])
        )
        assert local["served_by"] == "region-0"
        assert local["path_hops"] == 0
        assert relayed["served_by"] == "home-server"
        assert relayed["path_hops"] == depth
        assert counters["proxy.region-0.hits"] == 1
        assert counters["proxy.region-0.forwards"] == 1


class TestTcpTransport:
    def test_round_trip_with_speculation(self):
        async def scenario():
            trace = SyntheticTraceGenerator(
                GeneratorConfig(
                    seed=9, n_pages=40, n_clients=20, n_sessions=150, duration_days=4
                )
            ).generate().remote_only()
            estimator = OnlineDependencyEstimator(learn=False)
            estimator.warm(trace)
            riders = RiderTable(
                ThresholdPolicy(threshold=0.1), estimator.model, trace.documents
            )
            origin = OriginServer(
                trace.documents, estimator=estimator, riders=riders
            )
            server = TcpServer(origin.handle)
            await server.start()
            assert server.port != 0
            doc_id = sorted(trace.documents)[0]
            try:
                reply = await tcp_call(
                    "127.0.0.1",
                    server.port,
                    make_request("probe", "probe#1", doc_id, 0.0),
                )
                stats = await tcp_call(
                    "127.0.0.1",
                    server.port,
                    Message(
                        kind="stats", sender="probe", request_id="probe#2"
                    ),
                )
                with pytest.raises(RuntimeProtocolError, match="unknown"):
                    await tcp_call(
                        "127.0.0.1",
                        server.port,
                        make_request("probe", "probe#3", "/no-such-doc", 1.0),
                    )
                return reply, stats, server.requests_served, server.port
            finally:
                await server.close()

        reply, stats, served, port = asyncio.run(scenario())
        assert reply.kind == "response"
        assert reply.payload["served_by"] == "home-server"
        assert reply.payload["size"] > 0
        # The canonical fields only: the server stamps no wall-clock time.
        assert set(reply.payload) == {"doc_id", "size", "served_by", "speculated"}
        assert stats.kind == "stats-reply"
        assert served == 3

    def test_connect_failure_is_a_transport_error(self):
        async def scenario():
            server = TcpServer(None)
            await server.start()
            port = server.port
            await server.close()
            with pytest.raises(TransportError, match="connect"):
                await tcp_call(
                    "127.0.0.1",
                    port,
                    Message(kind="stats", sender="probe", request_id="p#1"),
                )

        asyncio.run(scenario())


class TestShardedLoadtest:
    """Multi-process sharding must reproduce single-process counters."""

    def test_four_workers_match_single_process_exactly(self):
        workload = GeneratorConfig(
            seed=4, n_pages=40, n_clients=24, n_sessions=150, duration_days=5
        )
        settings = LiveSettings(seed=4)
        single = execute_loadtest(workload, settings)
        sharded = execute_loadtest(workload, settings, workers=4)
        assert sharded.ratios == single.ratios
        for arm in ("baseline", "speculative"):
            single_counters = dict(getattr(single, arm)["counters"])
            sharded_counters = dict(getattr(sharded, arm)["counters"])
            # The merged virtual clock is the max over shards, not the
            # single-process elapsed time; everything else is exact.
            single_counters.pop("run.virtual_seconds")
            sharded_counters.pop("run.virtual_seconds")
            assert sharded_counters == single_counters

    def test_sharded_run_is_reproducible(self):
        workload = GeneratorConfig(
            seed=4, n_pages=40, n_clients=24, n_sessions=150, duration_days=5
        )
        first = execute_loadtest(workload, LiveSettings(seed=4), workers=3)
        again = execute_loadtest(workload, LiveSettings(seed=4), workers=3)
        assert first.ratios == again.ratios
        assert first.speculative["counters"] == again.speculative["counters"]

    def test_sharding_preconditions_are_enforced(self):
        workload = GeneratorConfig(
            seed=4, n_pages=40, n_clients=24, n_sessions=150, duration_days=5
        )
        for settings in (
            LiveSettings(seed=4, drop_probability=0.2),
            LiveSettings(seed=4, learn_online=True),
            LiveSettings(seed=4, dissemination_interval=600.0),
        ):
            with pytest.raises(SimulationError, match="shard"):
                execute_loadtest(workload, settings, workers=2)

    def test_observed_runs_refuse_sharding(self):
        from repro.obs import ObsConfig

        workload = GeneratorConfig(
            seed=4, n_pages=40, n_clients=24, n_sessions=150, duration_days=5
        )
        with pytest.raises(SimulationError, match="shard"):
            execute_loadtest(
                workload,
                LiveSettings(seed=4),
                obs=ObsConfig.full(),
                workers=2,
            )

    def test_worker_count_must_be_positive(self):
        workload = GeneratorConfig(
            seed=4, n_pages=40, n_clients=24, n_sessions=150, duration_days=5
        )
        with pytest.raises(SimulationError):
            execute_loadtest(workload, LiveSettings(seed=4), workers=0)

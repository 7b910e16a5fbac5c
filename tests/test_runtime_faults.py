"""Fault injection, resilience mechanisms, and failure-path regressions.

Covers the four failure-path bugs (pending-future leak on cancellation,
handler crashes stranding requesters, protocol errors killing client
workers, retry double-counting) plus the chaos subsystem: breaker state
machine, fault plans, stale serving during partitions, miss-queue
recovery, and the end-to-end ``repro chaos --smoke`` invariants.
"""

import asyncio
import json
import math

import pytest

from repro.errors import RuntimeProtocolError, SimulationError, TransportError
from repro.runtime import (
    BackoffPolicy,
    CacheNode,
    ChaosReport,
    CircuitBreaker,
    DuplicateFilter,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InMemoryNetwork,
    LiveReport,
    LoadConfig,
    LoadGenerator,
    MetricsRegistry,
    NodeSpec,
    OnlineDependencyEstimator,
    OriginServer,
    execute_chaos_smoke,
    run_virtual,
    verify_conservation,
)
from repro.runtime.loadgen import ClientRoute
from repro.runtime.messages import Message, make_request, make_response
from repro.runtime.resilience import retry_rng
from repro.speculation.metrics import SpeculationRatios
from repro.trace.records import Document, Request

from .test_runtime_transport import pending_of


def catalog(*sizes: int) -> dict[str, Document]:
    """A tiny catalog: /doc-0, /doc-1, ... with the given sizes."""
    return {
        f"/doc-{index}": Document(doc_id=f"/doc-{index}", size=size)
        for index, size in enumerate(sizes)
    }


def flat_spec(name="region-0", *, depth=1, holdings=None) -> NodeSpec:
    """A flat region proxy: no siblings, the origin one leg upstream."""
    return NodeSpec(
        name=name,
        depth=depth,
        upstream="home-server",
        upstream_distance=depth,
        holdings=tuple(sorted((holdings or {}).items())),
    )


def fresh_origin(documents: dict[str, Document], metrics=None) -> OriginServer:
    estimator = OnlineDependencyEstimator(learn=True)
    return OriginServer(documents, estimator=estimator, metrics=metrics)


class TestEndpointRegressions:
    def test_cancelled_call_does_not_leak_pending(self):
        # Regression: a call whose awaiting task is cancelled used to
        # leave its future in _pending forever (session-long leak).
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(None)  # a server that never answers
            client.start(None)
            request = make_request("client", client.next_request_id(), "/d", 0.0)
            caller = asyncio.get_running_loop().create_task(
                client.call("server", request, timeout=None)
            )
            await asyncio.sleep(0.1)
            assert len(pending_of(client)) == 1
            caller.cancel()
            with pytest.raises(asyncio.CancelledError):
                await caller
            pending = pending_of(client)
            await server.close()
            await client.close()
            return pending

        assert run_virtual(scenario()) == {}

    def test_failed_send_does_not_leak_pending(self):
        # Regression: call() registered its future before deliver(), so a
        # send that raised (unknown destination, a message the codec
        # rejects) left that future in _pending forever.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            network.endpoint("server").start(None)
            client = network.endpoint("client")
            client.start(None)
            request = make_request("client", client.next_request_id(), "/d", 0.0)
            with pytest.raises(TransportError, match="unknown endpoint"):
                await client.call("nobody", request, timeout=1.0)
            poisoned = Message(
                kind="stats",
                sender="client",
                request_id=client.next_request_id(),
                payload={"bad": {1: "non-string key"}},
            )
            with pytest.raises(RuntimeProtocolError):
                await client.call("server", poisoned, timeout=1.0)
            return pending_of(client), network.stats()

        pending, stats = run_virtual(scenario())
        assert pending == {}
        assert stats["frames_sent"] == 0

    def test_handler_crash_becomes_error_reply(self):
        # Regression: a raising handler used to kill the dispatch task
        # silently, stranding the requester until its timeout.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")

            async def broken(message):
                raise ValueError("boom")

            server.start(broken)
            client.start(None)
            loop = asyncio.get_running_loop()
            started = loop.time()
            request = make_request("client", client.next_request_id(), "/d", 0.0)
            with pytest.raises(RuntimeProtocolError, match="handler failed"):
                await client.call("server", request, timeout=60.0)
            elapsed = loop.time() - started
            await server.close()
            await client.close()
            return elapsed, network.stats()["handler_errors"]

        elapsed, handler_errors = run_virtual(scenario())
        # The error reply arrives at network speed, not at the timeout.
        assert elapsed < 1.0
        assert handler_errors == 1

    def test_handler_transport_error_keeps_its_kind(self):
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")

            async def flaky(message):
                raise TransportError("upstream gone")

            server.start(flaky)
            client.start(None)
            request = make_request("client", client.next_request_id(), "/d", 0.0)
            with pytest.raises(TransportError, match="handler failed"):
                await client.call("server", request, timeout=60.0)
            await server.close()
            await client.close()

        run_virtual(scenario())


class TestLoadgenFailurePaths:
    def run_session(self, requests, documents, *, fault_plan=None, load=None):
        """One single-client session against a live origin."""

        async def scenario():
            metrics = MetricsRegistry()
            network = InMemoryNetwork(seed=0)
            injector_task = None
            if fault_plan is not None:
                injector = FaultInjector(fault_plan, metrics=metrics)
                network.attach_faults(injector)
                injector_task = asyncio.get_running_loop().create_task(
                    injector.run()
                )
            origin_endpoint = network.endpoint("home-server")
            origin = fresh_origin(documents, metrics)
            origin_endpoint.start(origin.handle)
            generator = LoadGenerator(
                network,
                {"c1": ClientRoute(target="home-server", target_depth=0, depth=1)},
                {"c1": requests},
                origin_name="home-server",
                load=load if load is not None else LoadConfig(),
                metrics=metrics,
            )
            try:
                await generator.run()
            finally:
                if injector_task is not None:
                    injector_task.cancel()
                    await asyncio.gather(injector_task, return_exceptions=True)
                await origin_endpoint.close()
            for name, value in network.stats().items():
                metrics.counter(f"network.{name}").inc(value)
            return metrics.snapshot()

        return run_virtual(scenario())

    def test_protocol_error_does_not_kill_the_worker(self):
        # Regression: a RuntimeProtocolError (e.g. unknown document)
        # used to escape _attempt and kill the whole client worker, so
        # every later request of that session silently vanished.
        documents = catalog(4096)
        requests = [
            Request(timestamp=0.0, client="c1", doc_id="/no-such", size=100),
            Request(timestamp=9_000.0, client="c1", doc_id="/doc-0", size=4096),
        ]
        snapshot = self.run_session(requests, documents)
        counters = snapshot["counters"]
        assert counters["protocol_errors"] == 1
        assert counters["requests_failed"] == 1
        # The session survived: the second request was served normally.
        assert counters["accesses"] == 2
        assert counters["received_bytes"] == 4096

    def test_dropped_reply_retry_counts_as_duplicate_service(self):
        # Regression: a retry after a dropped reply used to double-count
        # origin load and bytes served.  The demand key makes the origin
        # serve the retry but book it as duplicate service.
        documents = catalog(4096)
        requests = [
            Request(timestamp=0.0, client="c1", doc_id="/doc-0", size=4096)
        ]
        # Drop every origin→client frame for the first attempt only; the
        # backoff retry lands after the window and gets through.
        plan = FaultPlan().drop_rate(
            1.0, at=0.0, until=0.3, target=("home-server", "c1")
        )
        load = LoadConfig(
            request_timeout=0.2,
            retries=2,
            backoff=BackoffPolicy(base=0.25, jitter=0.0),
        )
        snapshot = self.run_session(requests, documents, fault_plan=plan, load=load)
        counters = snapshot["counters"]
        assert counters["retries"] >= 1
        assert counters["origin.requests"] == 1  # fresh load counted once
        assert counters["origin.bytes_served"] == 4096
        assert counters["origin.duplicate_requests"] >= 1
        assert counters["origin.duplicate_bytes"] >= 4096
        assert counters["received_bytes"] == 4096
        # Loose conservation holds; strict must flag the duplicates.
        verify_conservation(snapshot)
        with pytest.raises(RuntimeProtocolError, match="strict"):
            verify_conservation(snapshot, strict=True)


class TestCircuitBreaker:
    def make(self, **overrides):
        clock = {"now": 0.0}
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=overrides.get("failure_threshold", 2),
            reset_timeout=overrides.get("reset_timeout", 10.0),
            clock=lambda: clock["now"],
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        return breaker, clock, transitions

    def test_opens_after_threshold_and_fast_fails(self):
        breaker, clock, transitions = self.make()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert transitions == [("closed", "open")]

    def test_half_open_probe_single_flight(self):
        breaker, clock, transitions = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_failed_probe_reopens_with_fresh_window(self):
        breaker, clock, transitions = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # window restarted at t=10
        clock["now"] = 19.9
        assert not breaker.allow()
        clock["now"] = 20.0
        assert breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, clock, transitions = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(SimulationError):
            CircuitBreaker(reset_timeout=0.0)


class TestResiliencePrimitives:
    def test_backoff_grows_clamps_and_is_deterministic(self):
        policy = BackoffPolicy(base=0.5, factor=2.0, max_delay=3.0, jitter=0.0)
        delays = [policy.delay(attempt, retry_rng(0, "x")) for attempt in range(5)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]
        jittered = BackoffPolicy(base=1.0, jitter=0.5)
        first = jittered.delay(0, retry_rng(7, "client-a"))
        again = jittered.delay(0, retry_rng(7, "client-a"))
        other = jittered.delay(0, retry_rng(7, "client-b"))
        assert first == again
        assert first != other
        assert 0.5 <= first <= 1.0

    def test_backoff_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(SimulationError):
            BackoffPolicy(jitter=1.5)

    def test_duplicate_filter_is_a_bounded_lru(self):
        duplicates = DuplicateFilter(capacity=2)
        assert not duplicates.seen("a")
        assert not duplicates.seen("b")
        assert duplicates.seen("a")  # refreshed, now most recent
        assert not duplicates.seen("c")  # evicts b
        assert not duplicates.seen("b")
        assert len(duplicates) == 2

    def test_origin_books_same_demand_key_once(self):
        documents = catalog(1000)
        origin = fresh_origin(documents)

        async def scenario():
            first = await origin.handle(
                make_request("c1", "c1#1", "/doc-0", 0.0, demand="c1@1")
            )
            second = await origin.handle(
                make_request("c1", "c1#2", "/doc-0", 0.0, demand="c1@1")
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first.payload["size"] == second.payload["size"] == 1000
        counters = origin.metrics.snapshot()["counters"]
        assert counters["origin.requests"] == 1
        assert counters["origin.bytes_served"] == 1000
        assert counters["origin.duplicate_requests"] == 1
        assert counters["origin.duplicate_bytes"] == 1000
        assert len(origin.recent_trace()) == 1  # history not inflated


class TestFaultPlan:
    def test_events_fire_in_time_order(self):
        plan = FaultPlan()
        plan.add(FaultEvent(at=5.0, action="heal", target=("a", "b")))
        plan.add(FaultEvent(at=1.0, action="partition", target=("a", "b")))
        plan.add(FaultEvent(at=1.0, action="crash", target=("c",)))
        ordered = plan.ordered()
        assert [event.action for event in ordered] == [
            "partition",
            "crash",
            "heal",
        ]

    def test_validation(self):
        with pytest.raises(SimulationError, match="unknown fault action"):
            FaultEvent(at=0.0, action="meteor")
        with pytest.raises(SimulationError, match="non-negative"):
            FaultEvent(at=-1.0, action="crash", target=("x",))
        with pytest.raises(SimulationError, match="restart_at"):
            FaultPlan().crash("x", at=5.0, restart_at=2.0)
        with pytest.raises(SimulationError, match="drop_rate"):
            FaultEvent(at=0.0, action="drop_rate", value=1.5)

    def test_injector_state_machine(self):
        crashed, restarted = [], []
        injector = FaultInjector(FaultPlan())
        injector.register_node(
            "p1",
            on_crash=lambda: crashed.append(True),
            on_restart=lambda: restarted.append(True),
        )
        injector.apply(FaultEvent(at=0.0, action="crash", target=("p1",)))
        assert injector.is_down("p1")
        assert injector.intercept("p1", "origin")
        assert injector.intercept("origin", "p1")
        assert crashed == [True]
        injector.apply(FaultEvent(at=1.0, action="restart", target=("p1",)))
        assert not injector.is_down("p1")
        assert not injector.intercept("p1", "origin")
        assert restarted == [True]

        injector.apply(
            FaultEvent(at=2.0, action="partition", target=("a", "b"))
        )
        assert injector.intercept("a", "b")
        assert injector.intercept("b", "a")
        assert not injector.intercept("a", "c")
        injector.apply(FaultEvent(at=3.0, action="heal", target=("a", "b")))
        assert not injector.intercept("a", "b")

        injector.apply(
            FaultEvent(
                at=4.0, action="latency_add", target=("origin",), value=0.5
            )
        )
        assert injector.extra_latency("origin", "c9") == 0.5
        assert injector.extra_latency("c9", "origin") == 0.5
        assert injector.extra_latency("a", "b") == 0.0
        assert injector.metrics.snapshot()["counters"]["faults.crash"] == 1

    def test_injected_drops_are_seeded(self):
        def sample(seed):
            injector = FaultInjector(FaultPlan(), seed=seed)
            injector.apply(FaultEvent(at=0.0, action="drop_rate", value=0.5))
            return [injector.intercept("a", "b") for _ in range(64)]

        assert sample(1) == sample(1)
        assert sample(1) != sample(2)
        assert any(sample(1)) and not all(sample(1))


class TestProxyResilience:
    def test_stale_serving_miss_queue_and_recovery(self):
        documents = catalog(1000, 2000, 3000, 4000)

        async def scenario():
            metrics = MetricsRegistry()
            network = InMemoryNetwork(seed=0)
            injector = FaultInjector(FaultPlan(), metrics=metrics)
            network.attach_faults(injector)
            origin_endpoint = network.endpoint("home-server")
            origin = fresh_origin(documents, metrics)
            origin_endpoint.start(origin.handle)
            proxy_endpoint = network.endpoint("region-0")
            proxy = CacheNode(
                flat_spec(holdings={"/doc-0": 1000}),
                proxy_endpoint,
                label="proxy",
                metrics=metrics,
                upstream_timeout=0.2,
                breaker=CircuitBreaker(failure_threshold=1, reset_timeout=1.0),
                backoff=BackoffPolicy(base=0.05, jitter=0.0),
                forward_retries=0,
            )
            proxy_endpoint.start(proxy.handle)
            client = network.endpoint("c1")
            client.start(None)

            async def ask(doc_id, timeout=5.0):
                return await client.call(
                    "region-0",
                    make_request("c1", client.next_request_id(), doc_id, 0.0),
                    timeout=timeout,
                )

            # Cut the proxy off from the origin.
            injector.apply(
                FaultEvent(
                    at=0.0, action="partition", target=("home-server", "region-0")
                )
            )
            # A miss cannot be forwarded: transport error, breaker opens.
            with pytest.raises(TransportError, match="unreachable"):
                await ask("/doc-1")
            assert proxy.breaker.state == "open"
            assert proxy.queued_misses == ("/doc-1",)
            # Holdings keep being served while partitioned (stale serve).
            reply = await ask("/doc-0")
            assert reply.payload["size"] == 1000
            # Another miss fast-fails instead of burning a timeout.
            with pytest.raises(TransportError, match="circuit open"):
                await ask("/doc-2")
            assert proxy.queued_misses == ("/doc-1", "/doc-2")

            # Heal the link and wait out the breaker's reset window.
            injector.apply(
                FaultEvent(
                    at=1.0, action="heal", target=("home-server", "region-0")
                )
            )
            await asyncio.sleep(1.1)
            # The half-open probe succeeds, closes the breaker and kicks
            # off background recovery of the queued misses.
            reply = await ask("/doc-3")
            assert reply.payload["size"] == 4000
            assert proxy.breaker.state == "closed"
            await asyncio.sleep(5.0)  # let recovery fetch the queue
            holdings = proxy.holdings
            queued = proxy.queued_misses
            await proxy.close()
            await client.close()
            await proxy_endpoint.close()
            await origin_endpoint.close()
            return holdings, queued, metrics.snapshot()["counters"]

        holdings, queued, counters = run_virtual(scenario())
        assert queued == ()
        assert holdings["/doc-1"] == 2000
        assert holdings["/doc-2"] == 3000
        assert counters["proxy.region-0.stale_serves"] == 1
        assert counters["proxy.region-0.breaker_fast_fails"] == 1
        assert counters["proxy.region-0.queued_misses"] == 2
        assert counters["proxy.region-0.recovered_misses"] == 2
        assert counters["proxy.region-0.breaker.open"] >= 1
        assert counters["proxy.region-0.breaker.closed"] >= 1

    def test_crash_hook_loses_holdings(self):
        metrics = MetricsRegistry()
        network = InMemoryNetwork(seed=0)
        endpoint = network.endpoint("region-0")
        proxy = CacheNode(
            flat_spec(holdings={"/doc-0": 1000, "/doc-1": 2000}),
            endpoint,
            label="proxy",
            metrics=metrics,
        )
        proxy.on_crash()
        assert proxy.holdings == {}
        proxy.on_restart()
        counters = metrics.snapshot()["counters"]
        assert counters["proxy.region-0.crashes"] == 1
        assert counters["proxy.region-0.holdings_lost"] == 2
        assert counters["proxy.region-0.restarts"] == 1


class TestChaosSmoke:
    @pytest.fixture(scope="class")
    def report(self):
        return execute_chaos_smoke(0)

    def test_ratios_survive_the_faults(self, report):
        assert report.max_ratio_divergence() <= 0.05
        report.require_resilience(0.05)

    def test_a_non_finite_gap_fails_the_gate(self):
        def pair(bandwidth):
            ratios = SpeculationRatios(bandwidth, 1.0, 1.0, 1.0)
            return LiveReport({}, {}, ratios=ratios)

        report = ChaosReport(clean=pair(math.inf), faulted=pair(1.0))
        assert report.max_ratio_divergence() == math.inf
        with pytest.raises(RuntimeProtocolError, match="diverge"):
            report.require_resilience(0.05)

    def test_fault_timeline_recorded(self, report):
        labels = [label for _, label in report.fault_events]
        assert any("crash[" in label for label in labels)
        assert any("restart[" in label for label in labels)
        assert any("drop_rate[" in label for label in labels)

    def test_crash_recovery_chain_ran(self, report):
        counters = report.faulted.speculative["counters"]
        crashes = [
            name for name in counters if name.endswith(".crashes")
        ]
        assert crashes, "one proxy must have crashed"
        assert counters["daemon.repush_requests"] >= 1
        assert counters["daemon.repushes"] >= 1
        assert counters["network.frames_dropped"] > 0
        assert counters["retries"] > 0

    def test_conservation_on_every_snapshot(self, report):
        for snapshot in (
            report.clean.baseline,
            report.clean.speculative,
            report.faulted.baseline,
            report.faulted.speculative,
        ):
            verify_conservation(snapshot)
        # The clean pair is fault-free: strict equality must hold.
        verify_conservation(report.clean.speculative, strict=True)

    def test_chaos_smoke_is_deterministic(self, report):
        again = execute_chaos_smoke(0)
        dump = lambda snap: json.dumps(snap, sort_keys=True)  # noqa: E731
        assert dump(again.faulted.speculative) == dump(
            report.faulted.speculative
        )
        assert dump(again.faulted.baseline) == dump(report.faulted.baseline)
        assert again.fault_events == report.fault_events


class TestMessageShapes:
    def test_error_reply_round_trips_the_kind(self):
        message = Message(
            kind="error",
            sender="s",
            request_id="r",
            payload={"error_kind": "transport", "reason": "nope"},
        )
        from repro.runtime.messages import raise_if_error

        with pytest.raises(TransportError):
            raise_if_error(message)

    def test_demand_key_rides_the_payload(self):
        message = make_request("c", "c#1", "/d", 0.0, demand="c@42")
        assert message.payload["req"] == "c@42"
        bare = make_request("c", "c#2", "/d", 0.0)
        assert "req" not in bare.payload

    def test_response_body_bytes_include_riders(self):
        message = make_response(
            "s", "r", "/d", 100, "s", speculated=[("/e", 50), ("/f", 25)]
        )
        assert message.body_bytes == 175

"""Runtime wire protocol, virtual clock and in-memory transport."""

import asyncio
import contextvars
import gc
import selectors

import pytest

from repro.deploy import TcpMesh
from repro.errors import RuntimeProtocolError, TransportError
from repro.runtime import (
    InMemoryNetwork,
    Message,
    TcpServer,
    VirtualClock,
    run_virtual,
    verify_conservation,
)
from repro.runtime.clock import _RankedTimerHandle
from repro.runtime.messages import (
    BINARY_CODEC,
    HEADER_BYTES,
    frame,
    make_error,
    make_request,
    make_response,
    raise_if_error,
)


class TestMessages:
    def test_encode_decode_round_trip(self):
        message = make_request("client-1", "client-1#7", "/a.html", 12.5)
        assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    def test_frame_is_length_prefixed(self):
        message = make_request("c", "c#1", "/a", 0.0)
        framed = frame(message)
        body = framed[HEADER_BYTES:]
        assert framed[:HEADER_BYTES] == len(body).to_bytes(HEADER_BYTES, "big")
        assert BINARY_CODEC.decode(body) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(RuntimeProtocolError):
            BINARY_CODEC.decode(b"not a binary frame")

    def test_decode_rejects_non_object(self):
        # An empty generic payload ends in the map tag and a zero count;
        # the list tag in its place decodes to a non-object payload.
        raw = BINARY_CODEC.encode(Message(kind="stats", sender="x"))
        assert raw.endswith(b"m" + bytes(4))
        with pytest.raises(RuntimeProtocolError, match="must be an object"):
            BINARY_CODEC.decode(raw[:-5] + b"l" + bytes(4))

    def test_decode_rejects_unknown_kind(self):
        raw = bytearray(BINARY_CODEC.encode(make_request("c", "c#1", "/a", 0.0)))
        raw[3] = 0xFF  # the kind byte: magic 2, version 1, then kind
        with pytest.raises(RuntimeProtocolError, match="unknown kind"):
            BINARY_CODEC.decode(bytes(raw))

    def test_oversized_frame_rejected(self):
        huge = Message(
            kind="response", sender="s", payload={"blob": "x" * (9 * 2**20)}
        )
        with pytest.raises(RuntimeProtocolError):
            frame(huge)

    def test_response_body_includes_riders(self):
        message = make_response(
            "origin", "c#1", "/a", 100, "origin", speculated=[("/b", 40)]
        )
        assert message.body_bytes == 140

    def test_raise_if_error_maps_error_kind(self):
        ok = make_response("o", "c#1", "/a", 1, "o")
        assert raise_if_error(ok) is ok
        with pytest.raises(RuntimeProtocolError):
            raise_if_error(make_error("o", "c#1", "protocol", "bad doc"))
        with pytest.raises(TransportError):
            raise_if_error(make_error("o", "c#1", "transport", "upstream gone"))


class TestVirtualClock:
    def test_sleeps_advance_virtual_time_only(self):
        async def nap():
            loop = asyncio.get_running_loop()
            before = loop.time()
            await asyncio.sleep(3600.0)
            return loop.time() - before

        assert run_virtual(nap()) == pytest.approx(3600.0)

    def test_start_offset(self):
        async def now():
            return asyncio.get_running_loop().time()

        assert run_virtual(now(), start=1000.0) == pytest.approx(1000.0)

    def test_deadlock_is_surfaced(self):
        async def wait_forever():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeProtocolError, match="deadlock"):
            run_virtual(wait_forever())

    def test_requires_selector_loop(self):
        class FakeLoop:
            pass

        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            VirtualClock().install(FakeLoop())  # type: ignore[arg-type]


async def echo_exchange(network, *, doc_id="/a", timeout=None):
    """One request/response round trip; returns (reply, service_time)."""
    server = network.endpoint("server")
    client = network.endpoint("client")

    async def handler(message):
        return make_response(
            "server",
            message.request_id,
            message.payload["doc_id"],
            size=2048,
            served_by="server",
        )

    server.start(handler)
    client.start(None)
    loop = asyncio.get_running_loop()
    started = loop.time()
    request = make_request("client", client.next_request_id(), doc_id, 0.0)
    try:
        reply = await client.call("server", request, timeout=timeout)
    finally:
        await server.close()
        await client.close()
    return reply, loop.time() - started


class TestInMemoryNetwork:
    def test_round_trip(self):
        network = InMemoryNetwork(seed=0)
        reply, elapsed = run_virtual(echo_exchange(network))
        assert reply.kind == "response"
        assert reply.payload["size"] == 2048
        # Two frames crossed the wire, each at least base_latency late.
        assert elapsed >= 2 * 0.005
        stats = network.stats()
        assert stats["frames_sent"] == 2
        assert stats["frames_delivered"] == 2
        assert stats["frames_dropped"] == 0
        assert stats["frames_rejected"] == 0
        assert stats["frames_inflight"] == 0
        # request (64) + response (2048) body bytes, all delivered
        assert stats["bytes_sent"] == 64 + 2048
        assert stats["bytes_delivered"] == 64 + 2048

    def test_same_seed_same_latency(self):
        elapsed = [
            run_virtual(echo_exchange(InMemoryNetwork(seed=5)))[1]
            for _ in range(2)
        ]
        assert elapsed[0] == elapsed[1]

    def test_seed_changes_jittered_latency(self):
        a = run_virtual(echo_exchange(InMemoryNetwork(seed=1)))[1]
        b = run_virtual(echo_exchange(InMemoryNetwork(seed=2)))[1]
        assert a != b

    def test_hop_count_scales_latency(self):
        flat = run_virtual(
            echo_exchange(InMemoryNetwork(seed=3, jitter=0.0))
        )[1]
        deep = run_virtual(
            echo_exchange(
                InMemoryNetwork(seed=3, jitter=0.0, hop_count=lambda s, d: 4)
            )
        )[1]
        assert deep == pytest.approx(4 * flat)

    @staticmethod
    def link_arrivals(batches):
        """Send one request per ``(src, dst)`` of each batch, the batches
        1 s apart, and return every link's arrival times."""

        async def scenario():
            network = InMemoryNetwork(seed=7)
            loop = asyncio.get_running_loop()
            arrivals = {}
            endpoints = [network.endpoint(name) for name in ("a", "b", "x", "y")]
            for endpoint in endpoints:

                async def handler(message, name=endpoint.name):
                    link = (message.sender, name)
                    arrivals.setdefault(link, []).append(loop.time())

                endpoint.start(handler)
            by_name = {endpoint.name: endpoint for endpoint in endpoints}
            calls = []
            for batch in batches:
                for source, destination in batch:
                    calls.append(send(by_name[source], destination, timeout=0.5))
                await asyncio.sleep(1.0)
            await asyncio.gather(*calls, return_exceptions=True)  # unanswered
            for endpoint in endpoints:
                await endpoint.close()
            return arrivals

        return run_virtual(scenario())

    def test_a_links_delays_do_not_depend_on_traffic_elsewhere(self):
        quiet = self.link_arrivals([[("a", "b")]] * 5)
        noisy = self.link_arrivals([[("x", "y"), ("a", "b"), ("x", "y")]] * 5)
        assert len(noisy["x", "y"]) == 10
        assert noisy["a", "b"] == quiet["a", "b"]

    def test_same_instant_send_order_moves_no_links_delay(self):
        forward = self.link_arrivals([[("a", "b"), ("x", "y")]] * 3)
        reverse = self.link_arrivals([[("x", "y"), ("a", "b")]] * 3)
        assert forward == reverse

    def test_per_link_fifo_despite_size_inversion(self):
        async def scenario():
            # Slow link: a 1 MB frame takes 100 virtual seconds, but the
            # tiny frame sent just after it must not overtake it.
            network = InMemoryNetwork(seed=0, bandwidth=1e4, jitter=0.0)
            receiver = network.endpoint("rx")
            sender = network.endpoint("tx")
            seen = []

            async def handler(message):
                seen.append(message.payload["n"])
                return None

            receiver.start(handler)
            sender.start(None)
            calls = [
                send(sender, "rx", n=n, body_bytes=body, timeout=200.0)
                for n, body in enumerate([1_000_000, 0, 10])
            ]
            await asyncio.sleep(500.0)
            await asyncio.gather(*calls, return_exceptions=True)  # unanswered
            await receiver.close()
            await sender.close()
            return seen

        assert run_virtual(scenario()) == [0, 1, 2]

    def test_unknown_endpoint_raises(self):
        async def scenario():
            network = InMemoryNetwork()
            sender = network.endpoint("tx")
            with pytest.raises(TransportError, match="unknown endpoint"):
                await sender.call("nowhere", numbered(sender, 0))

        run_virtual(scenario())

    def test_duplicate_endpoint_name_rejected(self):
        network = InMemoryNetwork()
        network.endpoint("a")
        with pytest.raises(TransportError):
            network.endpoint("a")

    def test_unanswered_call_times_out(self):
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")

            async def mute(message):
                return None

            server.start(mute)
            client.start(None)
            request = make_request(
                "client", client.next_request_id(), "/a", 0.0
            )
            try:
                with pytest.raises(TransportError, match="timed out"):
                    await client.call("server", request, timeout=2.0)
            finally:
                await server.close()
                await client.close()

        run_virtual(scenario())

    def test_dropped_frames_recover_via_retry(self):
        async def scenario():
            network = InMemoryNetwork(seed=0, drop_probability=0.6)
            server = network.endpoint("server")
            client = network.endpoint("client")

            async def handler(message):
                return make_response(
                    "server", message.request_id, "/a", 10, "server"
                )

            server.start(handler)
            client.start(None)
            reply = None
            attempts = 0
            try:
                for attempts in range(1, 11):  # noqa: B007
                    request = make_request(
                        "client", client.next_request_id(), "/a", 0.0
                    )
                    try:
                        reply = await client.call(
                            "server", request, timeout=1.0
                        )
                        break
                    except TransportError:
                        continue
                return reply, attempts, network.stats()["frames_dropped"]
            finally:
                await server.close()
                await client.close()

        reply, attempts, dropped = run_virtual(scenario())
        assert reply is not None and reply.kind == "response"
        # Each link draws its losses from its own stream: seed 0's
        # client→server stream drops the first request and passes the
        # second, whose reply the server→client stream passes.  (One
        # network-wide stream took 3 attempts: it dropped the first
        # reply and the second request.)
        assert attempts == 2
        assert dropped == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(TransportError):
            InMemoryNetwork(base_latency=-1.0)
        with pytest.raises(TransportError):
            InMemoryNetwork(bandwidth=0.0)
        with pytest.raises(TransportError):
            InMemoryNetwork(drop_probability=1.0)

    def test_unroutable_send_moves_no_counter(self):
        # Regression: deliver() booked the frame as sent before looking
        # the destination up, so the raise left sent 1 != settled 0.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            sender = network.endpoint("tx")
            with pytest.raises(TransportError, match="unknown endpoint"):
                await sender.call("nobody", numbered(sender, 0))
            return network.stats()

        stats = run_virtual(scenario())
        assert stats["frames_sent"] == stats["bytes_sent"] == 0
        verify_conservation(network_snapshot(stats))

    def test_reply_to_spoofed_sender_returns_on_its_pipe(self):
        # A request whose ``sender`` names no endpoint.  Replies were
        # once routed by that name, so this one had nowhere to go and
        # escaped its handler task as a never-retrieved exception.  A
        # reply now returns on the pipe its request came in on.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )

            async def handler(message):
                return make_response(
                    "server", message.request_id, "/a", 2048, "server"
                )

            server.start(handler)
            client.start(None)
            spoofed = make_request("ghost", "ghost#1", "/a", 0.0)
            reply = await client.call("server", spoofed, timeout=1.0)
            tasks = set(server._tasks)
            await server.close()
            await client.close()
            gc.collect()  # a lost task exception is reported on collection
            return reply, network.stats(), tasks, unhandled

        reply, stats, tasks, unhandled = run_virtual(scenario())
        assert unhandled == [] and tasks == set()
        assert reply.request_id == "ghost#1"
        assert stats["handler_errors"] == 0  # the handler did its job
        assert stats["frames_sent"] == stats["frames_delivered"] == 2
        assert stats["frames_dropped"] == 0
        verify_conservation(network_snapshot(stats))

    def test_an_aborted_pipe_fails_its_callers_and_shuts_its_far_end(self):
        # Link death in memory, as a lost socket over TCP.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(contract_handler)
            loop = asyncio.get_running_loop()
            request = contract_request(client, "/slow")
            call = loop.create_task(client.call("server", request, timeout=30.0))
            await asyncio.sleep(0.03)  # the request is with the handler
            client._outgoing["server"].transport.abort()
            with pytest.raises(TransportError, match="'server' lost"):
                await call
            await asyncio.sleep(1.0)  # the handler finishes; its reply has no pipe
            far_ends = dict(server._connections)
            reply = await client.call(
                "server", contract_request(client, "/a"), timeout=30.0
            )  # on a fresh pipe
            await server.close()
            return far_ends, reply, server.requests_served, network.stats()

        far_ends, reply, served, stats = run_virtual(scenario())
        assert far_ends == {}
        assert reply.payload["doc_id"] == "/a"
        assert served == 2
        assert (stats["frames_sent"], stats["frames_delivered"]) == (3, 3)
        verify_conservation(network_snapshot(stats))


def network_snapshot(stats):
    """``InMemoryNetwork.stats()`` in the shape verify_conservation reads."""
    return {"counters": {f"network.{key}": value for key, value in stats.items()}}


def pending_of(endpoint):
    """Every call ``endpoint`` awaits, over all its connections."""
    return {
        request_id: future
        for connection in endpoint._outgoing.values()
        for request_id, future in connection._pending.items()
    }


def numbered(sender, n, body_bytes=0):
    """A request from ``sender`` carrying ``n``, under a fresh id."""
    return Message(
        kind="request",
        sender=sender.name,
        request_id=sender.next_request_id(),
        payload={"n": n},
        body_bytes=body_bytes,
    )


def send(sender, destination, n=0, body_bytes=0, timeout=None):
    """Call ``destination`` from ``sender`` in a task of its own."""
    request = numbered(sender, n, body_bytes)
    return asyncio.get_running_loop().create_task(
        sender.call(destination, request, timeout=timeout)
    )


async def ack_handler(message):
    """Acknowledges every request."""
    return Message(kind="ack", sender="rx", request_id=message.request_id)


class TestEndpointArrival:
    """What an endpoint's reading must keep doing."""

    def test_requests_wait_inflight_until_start(self):
        async def scenario():
            network = InMemoryNetwork(seed=0, jitter=0.0)
            receiver = network.endpoint("rx")
            sender = network.endpoint("tx")
            seen = []

            async def handler(message):
                seen.append(message.payload["n"])
                return await ack_handler(message)

            calls = [send(sender, "rx", n, timeout=30.0) for n in range(5)]
            await asyncio.sleep(1.0)
            waiting = network.stats()
            assert seen == []  # nothing handled before start()
            receiver.start(handler)
            await asyncio.gather(*calls)
            await send(sender, "rx", 5, timeout=30.0)  # started: read at once
            await receiver.close()
            return waiting, network.stats(), seen

        waiting, final, seen = run_virtual(scenario())
        assert (waiting["frames_inflight"], waiting["frames_delivered"]) == (5, 0)
        assert seen == [0, 1, 2, 3, 4, 5]
        assert final["frames_sent"] == final["frames_delivered"] == 12
        assert final["frames_inflight"] == final["frames_rejected"] == 0
        verify_conservation(network_snapshot(final))

    def test_closed_endpoint_holds_again_until_restarted(self):
        async def scenario():
            network = InMemoryNetwork(seed=0, jitter=0.0)
            receiver = network.endpoint("rx")
            sender = network.endpoint("tx")
            seen = []

            async def handler(message):
                seen.append(message.payload["n"])
                return None

            receiver.start(handler)
            await receiver.close()
            calls = [send(sender, "rx", n, timeout=5.0) for n in range(2)]
            await asyncio.sleep(1.0)
            assert seen == []
            held = network.stats()
            receiver.start(handler)
            await asyncio.sleep(0.001)
            await receiver.close()
            await asyncio.gather(*calls, return_exceptions=True)  # unanswered
            return held, network.stats(), seen

        held, stats, seen = run_virtual(scenario())
        assert seen == [0, 1]
        assert (held["frames_inflight"], held["frames_delivered"]) == (2, 0)
        assert (stats["frames_delivered"], stats["frames_rejected"]) == (2, 0)

    def test_replies_are_never_held(self):
        # A reply needs the pending table, not a handler: it settles its
        # call even at an endpoint that was never started and holds no
        # frame at all.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")  # never started
            server.start(echo_handler)
            request = make_request("client", client.next_request_id(), "/a", 0.0)
            reply = await client.call("server", request, timeout=1.0)
            await server.close()
            return reply, network.stats()

        reply, stats = run_virtual(scenario())
        assert reply.request_id == "client#1"
        assert (stats["frames_delivered"], stats["frames_rejected"]) == (2, 0)

    def test_handler_runs_in_the_context_start_was_called_in(self):
        # A frame must not carry its sender's contextvars across the
        # wire: span/trace context seen by a handler is its endpoint's.
        who = contextvars.ContextVar("who", default="nobody")

        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            seen = []

            async def handler(message):
                seen.append(who.get())
                return make_response("server", message.request_id, "/a", 0, "server")

            who.set("server")
            server.start(handler)
            who.set("client")
            client.start(None)
            request = make_request("client", client.next_request_id(), "/a", 0.0)
            await client.call("server", request, timeout=1.0)
            await server.close()
            await client.close()
            return seen, who.get()

        assert run_virtual(scenario()) == (["server"], "client")

    def test_timeout_fires_at_exactly_t_and_late_reply_is_dropped(self):
        async def scenario():
            # 10 s per hop: the reply lands at t=20, the caller quit at t=5.
            network = InMemoryNetwork(seed=0, base_latency=10.0, jitter=0.0)
            server = network.endpoint("server")
            client = network.endpoint("client")

            async def handler(message):
                return make_response(
                    "server", message.request_id, "/a", 0, "server"
                )

            server.start(handler)
            client.start(None)
            loop = asyncio.get_running_loop()
            started = loop.time()
            request = make_request("client", client.next_request_id(), "/a", 0.0)
            with pytest.raises(TransportError, match="timed out after 5.0s"):
                await client.call("server", request, timeout=5.0)
            waited = loop.time() - started
            assert pending_of(client) == {}
            await asyncio.sleep(30.0)  # the late reply arrives meanwhile
            assert pending_of(client) == {}
            await server.close()
            await client.close()
            return waited, network.stats()

        waited, stats = run_virtual(scenario())
        assert waited == 5.0
        # The late reply reaches nobody: booked dropped, as on TCP.
        assert (stats["frames_delivered"], stats["frames_dropped"]) == (1, 1)
        assert stats["handler_errors"] == 0

    def test_cancelled_timeout_handles_do_not_pile_up(self):
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(echo_handler)
            client.start(None)
            loop = asyncio.get_running_loop()
            high_water = 0
            for _ in range(10_000):
                request = make_request(
                    "client", client.next_request_id(), "/a", 0.0
                )
                await client.call("server", request, timeout=3600.0)
                high_water = max(high_water, len(loop._scheduled))
            await server.close()
            await client.close()
            return high_water

        # Each call leaves one cancelled hour-long timer behind; the loop
        # compacts them once they outnumber the live ones past 100.
        assert run_virtual(scenario()) < 250

    def test_timeout_handles_take_the_race_gate_shuffle(self):
        # `repro racecheck` perturbs equal-deadline timers by patching
        # loop.call_at; a timeout armed any other way would escape it.
        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(None)  # never answers
            client.start(None)
            loop = asyncio.get_running_loop()
            request = make_request("client", client.next_request_id(), "/a", 0.0)
            caller = loop.create_task(
                client.call("server", request, timeout=9.0)
            )
            await asyncio.sleep(1.0)
            armed = [
                handle
                for handle in loop._scheduled
                if handle.when() == 9.0 and not handle.cancelled()
            ]
            with pytest.raises(TransportError):
                await caller
            await server.close()
            await client.close()
            return armed

        (armed,) = run_virtual(scenario(), schedule_seed=3)
        assert isinstance(armed, _RankedTimerHandle)


async def echo_handler(message):
    """The constant-reply handler of the loop-turn budget."""
    return make_response("server", message.request_id, "/a", 0, "server")


class TestLoopTurnBudget:
    """The in-memory transport's cost in event-loop work, as exact counts.

    A timed round trip is: request timer → handler task → reply timer,
    whose callback resolves the caller → caller resumes (4 turns),
    scheduling the two delivery timers, the timeout, the handler task's
    first step and the caller's wake-up (5 handles).  The queue + pump +
    ``wait_for`` design took 8 turns and 9 handles; a ready-queue
    hand-over between reply timer and caller, needed while one jitter
    stream served every link, took 5 turns and 6 handles.
    """

    ROUND_TRIPS = 1000

    def test_round_trip_costs_at_most_five_handles_and_four_turns(self):
        counts = {"call_soon": 0, "call_at": 0, "turns": 0, "select": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        async def scenario():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(echo_handler)
            client.start(None)
            loop = asyncio.get_running_loop()
            loop.call_soon = counted("call_soon", loop.call_soon)
            loop.call_at = counted("call_at", loop.call_at)
            loop._run_once = counted("turns", loop._run_once)
            for _ in range(self.ROUND_TRIPS):
                request = make_request(
                    "client", client.next_request_id(), "/a", 0.0
                )
                await client.call("server", request, timeout=30.0)
            measured = dict(counts)
            await server.close()
            await client.close()
            return measured

        # The kernel poll the virtual clock wraps must never be reached.
        real_select = selectors.DefaultSelector.select
        selectors.DefaultSelector.select = counted("select", real_select)
        try:
            measured = run_virtual(scenario())
        finally:
            selectors.DefaultSelector.select = real_select
        handles = measured["call_soon"] + measured["call_at"]
        assert handles <= 5 * self.ROUND_TRIPS
        assert measured["turns"] <= 4 * self.ROUND_TRIPS
        assert counts["select"] == 0


class TestTcpTurnBudget:
    """The TCP transport's cost in event-loop work, on a loopback echo.

    A round trip is: the server's socket turns readable and the frame
    cut from that read spawns its handler task → the task answers and
    writes the reply → the client's socket turns readable and the reply
    resolves its caller → the caller resumes and writes the next
    request (4 turns), scheduling the handler task's first step, the
    caller's wake-up and the timeout (3 handles; selector events are
    not ``call_soon`` handles).  The stream reader + per-link lock +
    ``wait_for`` design this replaced measured 6 turns and 6 handles
    per trip on the same probe.
    """

    ROUND_TRIPS = 1000

    def test_round_trip_costs_at_most_three_handles_and_four_turns(self):
        counts = {"call_soon": 0, "call_at": 0, "turns": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        async def scenario():
            server = TcpServer(echo_handler)
            await server.start()
            mesh = TcpMesh({"server": ("127.0.0.1", server.port)})
            client = mesh.endpoint("client")

            async def trip():
                request = make_request(
                    "client", client.next_request_id(), "/a", 0.0
                )
                await client.call("server", request, timeout=30.0)

            await trip()  # dial before counting
            loop = asyncio.get_running_loop()
            loop.call_soon = counted("call_soon", loop.call_soon)
            loop.call_at = counted("call_at", loop.call_at)
            loop._run_once = counted("turns", loop._run_once)
            try:
                for _ in range(self.ROUND_TRIPS):
                    await trip()
                return dict(counts)
            finally:
                del loop.call_soon, loop.call_at, loop._run_once
                await mesh.close()
                await server.close()

        measured = asyncio.run(scenario())
        handles = measured["call_soon"] + measured["call_at"]
        # A few turns of slack for reads the kernel splits or delays.
        assert handles <= 3 * self.ROUND_TRIPS + 10
        assert measured["turns"] <= 4 * self.ROUND_TRIPS + 10


async def contract_handler(message):
    """Answers ``/slow`` after 150 ms and raises for ``/transport`` and
    ``/protocol``; any other document is answered at once."""
    doc_id = message.payload["doc_id"]
    if doc_id == "/slow":
        await asyncio.sleep(0.15)
    elif doc_id == "/transport":
        raise TransportError("upstream gone")
    elif doc_id == "/protocol":
        raise ValueError("boom")
    return make_response("server", message.request_id, doc_id, 1, "server")


def contract_request(client, doc_id):
    return make_request(client.name, client.next_request_id(), doc_id, 0.0)


def run_pair(kind, scenario):
    """Run ``scenario(client, pending, ledger)`` with ``client`` calling a
    ``contract_handler`` named ``"server"`` over ``kind``; ``pending()``
    is the table the client's calls wait in, ``ledger()`` the frame
    counts of both ends together."""
    if kind == "memory":

        async def memory():
            network = InMemoryNetwork(seed=0)
            server = network.endpoint("server")
            client = network.endpoint("client")
            server.start(contract_handler)
            client.start(None)
            try:
                return await scenario(
                    client, lambda: pending_of(client), network.stats
                )
            finally:
                await server.close()
                await client.close()

        return run_virtual(memory())

    async def tcp():
        server = TcpServer(contract_handler)
        await server.start()
        mesh = TcpMesh({"server": ("127.0.0.1", server.port)})

        def ledger():
            return {
                key: value + server.ledger.stats()[key]
                for key, value in mesh.stats().items()
            }

        try:
            return await scenario(
                mesh.endpoint("client"),
                lambda: mesh._links["server"]._pending,
                ledger,
            )
        finally:
            await mesh.close()
            await server.close()

    return asyncio.run(tcp())


@pytest.mark.parametrize("kind", ["memory", "tcp"])
class TestCallContract:
    """The call core's rules, held alike by both transports: a timeout,
    a cancellation and a late reply leave no pending call behind, a
    raising handler costs its caller one ``error`` reply of the right
    kind, and the frame ledger balances after each."""

    def test_timeout_raises_transport_error_and_empties_the_table(self, kind):
        async def scenario(client, pending, ledger):
            request = contract_request(client, "/slow")
            with pytest.raises(TransportError, match="timed out after 0.05s"):
                await client.call("server", request, timeout=0.05)
            left = dict(pending())
            await asyncio.sleep(0.3)  # the late reply lands
            return left, ledger()

        left, stats = run_pair(kind, scenario)
        assert left == {}
        verify_conservation(network_snapshot(stats))

    def test_cancelled_call_empties_the_table(self, kind):
        async def scenario(client, pending, ledger):
            request = contract_request(client, "/slow")
            caller = asyncio.get_running_loop().create_task(
                client.call("server", request, timeout=30.0)
            )
            await asyncio.sleep(0.03)  # the request is with the handler
            assert len(pending()) == 1
            caller.cancel()
            with pytest.raises(asyncio.CancelledError):
                await caller
            left = dict(pending())
            await asyncio.sleep(0.3)  # the orphaned reply lands
            return left, ledger()

        left, stats = run_pair(kind, scenario)
        assert left == {}
        verify_conservation(network_snapshot(stats))

    def test_late_reply_reaches_nobody_and_the_next_call_its_own(self, kind):
        async def scenario(client, pending, ledger):
            request = contract_request(client, "/slow")
            with pytest.raises(TransportError, match="timed out"):
                await client.call("server", request, timeout=0.05)
            # Sent before the late reply to client#1 lands, answered after.
            reply = await client.call(
                "server", contract_request(client, "/slow"), timeout=30.0
            )
            return reply, dict(pending()), ledger()

        reply, left, stats = run_pair(kind, scenario)
        assert (reply.request_id, reply.payload["doc_id"]) == ("client#2", "/slow")
        assert left == {}
        assert stats["frames_sent"] == 4
        # One reply rule on both transports: the late reply to client#1
        # settles nothing, so it is booked dropped.
        assert stats["frames_dropped"] == 1
        verify_conservation(network_snapshot(stats))

    def test_handler_exceptions_become_error_replies_of_their_kind(self, kind):
        async def scenario(client, pending, ledger):
            loop = asyncio.get_running_loop()
            started = loop.time()
            request = contract_request(client, "/transport")
            with pytest.raises(TransportError, match="handler failed: Transport"):
                await client.call("server", request, timeout=60.0)
            request = contract_request(client, "/protocol")
            with pytest.raises(RuntimeProtocolError, match="handler failed: Value"):
                await client.call("server", request, timeout=60.0)
            return loop.time() - started, dict(pending()), ledger()

        elapsed, left, stats = run_pair(kind, scenario)
        assert elapsed < 1.0  # at network speed, not at the timeout
        assert left == {}
        assert stats["handler_errors"] == 2
        verify_conservation(network_snapshot(stats))

    def test_empty_request_id_is_refused_before_anything_is_sent(self, kind):
        # Regression: over TCP a request without an id drew a reply that
        # read as the server rejecting the stream, so it failed every
        # other call on the connection; in memory it was simply sent.
        async def scenario(client, pending, ledger):
            slow = asyncio.get_running_loop().create_task(
                client.call("server", contract_request(client, "/slow"), timeout=30.0)
            )
            await asyncio.sleep(0.03)  # the slow request is with the handler
            nameless = make_request(client.name, "", "/a", 0.0)
            with pytest.raises(RuntimeProtocolError, match="request id '' is empty"):
                await client.call("server", nameless, timeout=30.0)
            return await slow, dict(pending()), ledger()

        reply, left, stats = run_pair(kind, scenario)
        assert reply.payload["doc_id"] == "/slow"
        assert left == {}
        assert stats["frames_sent"] == 2  # the slow request and its reply
        verify_conservation(network_snapshot(stats))

    def test_a_request_id_already_in_flight_is_refused(self, kind):
        # Regression: a second call under a live id took the first one's
        # reply, and the first timed out although its reply had come.
        async def scenario(client, pending, ledger):
            request = contract_request(client, "/slow")
            first = asyncio.get_running_loop().create_task(
                client.call("server", request, timeout=30.0)
            )
            await asyncio.sleep(0.03)  # the first request is with the handler
            with pytest.raises(RuntimeProtocolError, match="already in flight"):
                await client.call("server", request, timeout=30.0)
            return await first, dict(pending()), ledger()

        reply, left, stats = run_pair(kind, scenario)
        assert (reply.request_id, reply.payload["doc_id"]) == ("client#1", "/slow")
        assert left == {}
        assert stats["frames_sent"] == 2
        verify_conservation(network_snapshot(stats))

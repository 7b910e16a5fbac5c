"""The multiplexed TCP transport: correlation by id, link death, back-pressure.

The ``tcp`` cases run on loopback sockets under plain ``asyncio.run``.
A case that needs no kernel also runs as ``memory``: the same protocol
classes over the in-memory network's virtual pipes, deterministically
under the virtual clock.  CI runs this module once more under ``python
-X dev -W error::ResourceWarning`` so an unclosed transport or a
never-retrieved exception fails the build.
"""

import asyncio

import pytest

from repro.deploy import TcpMesh
from repro.errors import RuntimeProtocolError, TransportError
from repro.runtime import InMemoryNetwork, TcpServer, run_virtual, tcp_call, transport
from repro.runtime.messages import (
    BINARY_CODEC,
    HEADER_BYTES,
    frame,
    make_request,
    make_response,
)
from repro.runtime.transport import MAX_INFLIGHT, dial


def request(sender, request_id, doc_id="/a"):
    return make_request(sender, request_id, doc_id, 0.0)


async def doc_handler(message):
    """Echoes the document id; ``/slow…`` documents take 150 ms."""
    doc_id = message.payload["doc_id"]
    if doc_id.startswith("/slow"):
        await asyncio.sleep(0.15)
    return make_response("server", message.request_id, doc_id, 1, "server")


def with_server(scenario, handler=doc_handler, **server_kwargs):
    """Run ``scenario(server, mesh)`` against a started server, then
    close both ends."""

    async def run():
        server = TcpServer(handler, **server_kwargs)
        await server.start()
        mesh = TcpMesh({"server": ("127.0.0.1", server.port)})
        try:
            return await scenario(server, mesh)
        finally:
            await mesh.close()
            await server.close()

    return asyncio.run(run())


def with_pair(kind, scenario, handler=doc_handler):
    """Run ``scenario(server, network)`` with ``handler`` served as
    ``"server"`` over ``kind``: a :class:`TcpServer` behind a mesh, or an
    endpoint of an :class:`InMemoryNetwork` under the virtual clock."""
    if kind == "tcp":
        return with_server(scenario, handler)

    async def run():
        network = InMemoryNetwork(seed=0)
        server = network.endpoint("server")
        server.start(handler)
        try:
            return await scenario(server, network)
        finally:
            await server.close()

    return run_virtual(run())


KINDS = ["memory", "tcp"]


class TestReplyCorrelation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_order_replies_reach_their_callers(self, kind):
        async def scenario(server, mesh):
            first, second = mesh.endpoint("a"), mesh.endpoint("b")
            finished = []

            async def call(endpoint, doc_id):
                reply = await endpoint.call(
                    "server",
                    request(endpoint.name, endpoint.next_request_id(), doc_id),
                )
                finished.append(endpoint.name)
                return reply

            replies = await asyncio.gather(
                call(first, "/slow"), call(second, "/fast")
            )
            return replies, finished, len(server._connections)

        (slow, fast), finished, links = with_pair(kind, scenario)
        assert finished == ["b", "a"]  # answered in the other order
        assert (slow.request_id, slow.payload["doc_id"]) == ("a#1", "/slow")
        assert (fast.request_id, fast.payload["doc_id"]) == ("b#1", "/fast")
        # …on one socket; in memory each caller has its own pipe.
        assert links == {"tcp": 1, "memory": 2}[kind]

    def test_sixty_four_endpoints_share_one_connection(self, monkeypatch):
        accepted = []
        made = transport._ServerConnection.connection_made

        def counting(self, tcp_transport):
            accepted.append(tcp_transport)
            made(self, tcp_transport)

        monkeypatch.setattr(
            transport._ServerConnection, "connection_made", counting
        )

        async def scenario(server, mesh):
            endpoints = [mesh.endpoint(f"c{i}") for i in range(64)]
            replies = await asyncio.gather(
                *(
                    endpoint.call(
                        "server",
                        request(endpoint.name, endpoint.next_request_id()),
                    )
                    for endpoint in endpoints
                )
            )
            for endpoint in endpoints:
                await endpoint.close()  # releases nothing of the mesh's
            again = await endpoints[0].call("server", request("c0", "c0#2"))
            return replies, again

        replies, again = with_server(scenario)
        assert [reply.request_id for reply in replies] == [
            f"c{i}#1" for i in range(64)
        ]
        assert again.request_id == "c0#2"
        assert len(accepted) == 1

    def test_timeout_keeps_the_link_and_books_the_late_reply(self):
        async def scenario(server, mesh):
            client = mesh.endpoint("c")
            with pytest.raises(TransportError, match="timed out after 0.05s"):
                await client.call(
                    "server", request("c", "c#1", "/slow"), timeout=0.05
                )
            link = mesh._links["server"]
            await asyncio.sleep(0.2)  # the late reply is read and dropped
            reply = await client.call("server", request("c", "c#2"))
            assert mesh._links["server"] is link and not link.dead
            return reply, mesh.stats()

        reply, stats = with_server(scenario)
        assert reply.request_id == "c#2"
        assert (
            stats["frames_sent"]
            == stats["frames_delivered"] + stats["frames_dropped"]
            == 2
        )
        assert stats["bytes_dropped"] == 1  # the slow document's body

    @pytest.mark.parametrize("kind", KINDS)
    def test_handler_crash_answers_that_request_only(self, kind):
        async def handler(message):
            if message.payload["doc_id"] == "/boom":
                raise KeyError("boom")
            return await doc_handler(message)

        async def scenario(server, mesh):
            client = mesh.endpoint("c")
            results = await asyncio.gather(
                client.call("server", request("c", "c#1", "/slow")),
                client.call("server", request("c", "c#2", "/boom")),
                return_exceptions=True,
            )
            return results, server.ledger.handler_errors, server.requests_served

        (slow, boom), errors, served = with_pair(kind, scenario, handler)
        assert slow.payload["doc_id"] == "/slow"
        assert isinstance(boom, RuntimeProtocolError)
        assert "KeyError" in str(boom)
        assert (errors, served) == (1, 2)


async def read_raw_frame(reader):
    header = await reader.readexactly(HEADER_BYTES)
    return await reader.readexactly(int.from_bytes(header, "big"))


class RawPeer:
    """A raw-socket server: its first connection answers every request
    with ``poison``; later connections answer properly."""

    def __init__(self, poison):
        self._poison = poison
        self.connections = 0

    async def serve(self, reader, writer):
        self.connections += 1
        poisoned = self.connections == 1
        try:
            while True:
                asked = BINARY_CODEC.decode(await read_raw_frame(reader))
                if poisoned:
                    writer.write(self._poison)
                else:
                    reply = make_response(
                        "peer", asked.request_id, "/a", 1, "peer"
                    )
                    writer.write(frame(reply))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


class MemoryPeer:
    """:class:`RawPeer` on the in-memory network: an endpoint whose first
    pipe answers every request with ``poison``; later pipes answer
    properly."""

    def __init__(self, network, poison):
        self._poison = poison
        self._pipes = []
        self._endpoint = network.endpoint("peer")
        self._endpoint.start(self.serve)

    @property
    def connections(self):
        return len(self._pipes)

    async def serve(self, message):
        # The pipe that carried the request: a caller has one live pipe
        # to the peer at a time, however many other callers are open.
        (pipe,) = [
            connection.transport
            for connection in self._endpoint._connections
            if connection.transport.remote == message.sender
            and not connection.transport.is_closing()
        ]
        if pipe not in self._pipes:
            self._pipes.append(pipe)
        if pipe is self._pipes[0]:
            pipe.write(self._poison)
            return None
        return make_response("peer", message.request_id, "/a", 1, "peer")


def with_raw_peer(poison, scenario, kind="tcp"):
    if kind == "memory":

        async def memory():
            network = InMemoryNetwork(seed=0)
            return await scenario(MemoryPeer(network, poison), network)

        return run_virtual(memory())

    async def run():
        peer = RawPeer(poison)
        listener = await asyncio.start_server(peer.serve, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        mesh = TcpMesh({"peer": ("127.0.0.1", port)})
        try:
            return await asyncio.wait_for(scenario(peer, mesh), 10.0)
        finally:
            await mesh.close()
            listener.close()
            await listener.wait_closed()

    return asyncio.run(run())


class TestProtocolViolation:
    @pytest.mark.parametrize(
        "poison",
        [
            pytest.param(b"x" * 64, id="oversized-announcement"),
            pytest.param(
                (13).to_bytes(HEADER_BYTES, "big") + b"\xabR\xff garbage!",
                id="undecodable-body",
            ),
        ],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_violation_fails_every_caller_and_the_next_call_redials(
        self, kind, poison
    ):
        # Regression: the violated connection was kept, so every later
        # call read mid-frame junk as a header ("peer announced a
        # 2021161080-byte frame") forever.
        async def scenario(peer, mesh):
            client = mesh.endpoint("c")
            failures = await asyncio.gather(
                client.call("peer", request("c", "c#1")),
                client.call("peer", request("c", "c#2")),
                return_exceptions=True,
            )
            reply = await client.call("peer", request("c", "c#3"))
            return failures, reply, peer.connections

        failures, reply, connections = with_raw_peer(poison, scenario, kind)
        assert [type(failure) for failure in failures] == [
            RuntimeProtocolError,
            RuntimeProtocolError,
        ]
        assert reply.request_id == "c#3"
        assert connections == 2

    def test_violated_link_is_dead_before_the_socket_reports_lost(self):
        async def scenario(peer, mesh):
            host, port = mesh._directory["peer"]
            link = await dial(host, port)
            with pytest.raises(RuntimeProtocolError, match="2021161080-byte"):
                await link.call(request("c", "c#1"))
            # First thing to run after the violation: connection_lost
            # has not been called yet, the link already refuses calls.
            state = link.dead, link._lost.done(), dict(link._pending)
            with pytest.raises(TransportError, match="is closed"):
                await link.call(request("c", "c#2"))
            await link.close()
            return state

        assert with_raw_peer(b"x" * 64, scenario) == (True, False, {})

    def test_server_rejecting_the_stream_is_a_protocol_error_at_the_caller(self):
        async def scenario(server, mesh):
            big = make_request("c", "c#1", "/a", 0.0, digest=("/d",) * 40)
            with pytest.raises(RuntimeProtocolError, match="-byte frame"):
                await tcp_call("127.0.0.1", server.port, big)
            return server.protocol_errors

        assert with_server(scenario, max_frame_bytes=64) == 1


class TestBackPressure:
    REQUESTS = 10_000

    @pytest.mark.parametrize("kind", KINDS)
    def test_pipelined_requests_peak_at_the_inflight_cap(self, kind):
        alive = peak = 0

        async def handler(message):
            nonlocal alive, peak
            alive += 1
            peak = max(peak, alive)
            await asyncio.sleep(0.0005)
            alive -= 1
            return make_response("server", message.request_id, "/a", 0, "server")

        async def scenario(server, mesh):
            # Every request is written before the server reads one.
            client = mesh.endpoint("c")
            replies = await asyncio.gather(
                *(
                    client.call("server", request("c", f"c#{n}"))
                    for n in range(self.REQUESTS)
                )
            )
            return {reply.request_id for reply in replies}

        answered = with_pair(
            kind,
            lambda server, mesh: asyncio.wait_for(scenario(server, mesh), 60.0),
            handler,
        )
        assert answered == {f"c#{n}" for n in range(self.REQUESTS)}
        assert peak == MAX_INFLIGHT

    def test_requests_wait_while_the_peer_reads_no_replies(self):
        served = 0

        async def handler(message):
            nonlocal served
            served += 1
            return make_response(
                "server", message.request_id, "/a", 0, "server",
                speculated=[(f"/rider-{n}", n) for n in range(400)],
            )

        async def scenario(server, mesh):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # ~9 kB per reply; the peer reads none of them.
                writer.write(
                    b"".join(
                        frame(request("raw", f"raw#{n}")) for n in range(4000)
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.5)
                stalled = served
                for _ in range(4000):
                    await read_raw_frame(reader)
                return stalled, served
            finally:
                writer.close()
                await writer.wait_closed()

        stalled, served = with_server(
            lambda server, mesh: asyncio.wait_for(scenario(server, mesh), 60.0),
            handler,
        )
        assert stalled < 4000  # the server stopped taking requests
        assert served == 4000  # …and took the rest once replies drained


class TestDial:
    def test_call_on_a_closed_connection_is_a_transport_error(self):
        async def scenario(server, mesh):
            link = await dial("127.0.0.1", server.port)
            await link.close()
            with pytest.raises(TransportError, match="is closed"):
                await link.call(request("c", "c#1"))

        with_server(scenario)

    def test_server_going_away_fails_pending_callers_fast(self):
        async def scenario(server, mesh):
            client = mesh.endpoint("c")
            call = asyncio.create_task(
                client.call("server", request("c", "c#1", "/slow"), timeout=30.0)
            )
            await asyncio.sleep(0.03)
            mesh._links["server"].transport.abort()
            with pytest.raises(TransportError, match="lost"):
                await asyncio.wait_for(call, 5.0)
            # The next call redials.
            return await client.call("server", request("c", "c#2"))

        assert with_server(scenario).request_id == "c#2"

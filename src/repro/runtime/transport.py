"""Pluggable transports: one request/reply protocol over two byte carriers.

One protocol pair moves every message as a length-prefixed binary
frame (see :mod:`~repro.runtime.messages`).  A
:class:`TcpConnection` at the caller matches each reply to its call by
``request_id`` (the one reply rule); a :class:`_ServerConnection` at
the callee runs one handler task per request (at most
:data:`MAX_INFLIGHT` alive), turns a raising handler into an ``error``
reply and writes each reply as it finishes.  Both book what they carry
in a :class:`FrameLedger`.  Two carriers move the bytes:

* :class:`InMemoryNetwork` — a virtual pipe per caller and destination;
  each frame crosses its directed link in one ``loop.call_at`` timer,
  with **seeded** latency, jitter and drops.  Under
  :func:`~repro.runtime.clock.run_virtual` the whole system is
  deterministic, and per-link delivery is FIFO, as on a TCP stream.
* Real sockets — :class:`TcpServer` accepts them, :func:`dial` opens
  them.

Failure mapping: anything the *network* did wrong (timeout, dropped
frame, refused connection, truncated stream) raises
:class:`~repro.errors.TransportError`; anything the *peer* did wrong
(bad or non-binary frame contents, unknown kind, oversized frame) raises
:class:`~repro.errors.RuntimeProtocolError`.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Awaitable, Callable

import numpy as np

from ..errors import RuntimeProtocolError, TransportError
from .messages import (
    BINARY_CODEC,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    Message,
    frame,
    make_error,
    nominal_bytes,
    raise_if_error,
)
from .resilience import name_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultInjector

#: An async message handler: returns a reply message or None.
Handler = Callable[[Message], Awaitable[Message | None]]


@dataclass(slots=True)
class FrameLedger:
    """The frames and bytes one transport carried, in five states.

    Each family satisfies ``sent == delivered + dropped + rejected +
    inflight`` (checked by :func:`~repro.runtime.metrics.verify_conservation`);
    on TCP only across both ends, a connection booking its requests
    sent and their replies delivered or dropped, a server the other
    half.  ``rejected`` is kept, but no transport books it: a reader
    that cannot keep up stops reading, and what it has not read stays
    ``inflight``.  ``handler_errors`` counts handler exceptions turned
    into ``error`` replies.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    frames_rejected: int = 0
    frames_inflight: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_dropped: int = 0
    bytes_rejected: int = 0
    bytes_inflight: int = 0
    handler_errors: int = 0

    def stats(self) -> dict[str, int]:
        """Every count by name (the ``network.*`` counter suffixes)."""
        return asdict(self)


def _expire(future: "asyncio.Future[Message]") -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class _Service:
    """What a :class:`_ServerConnection` reads of the :class:`TcpServer`
    or :class:`Endpoint` it serves: the handler and its live tasks, the
    ledger and ``_closing`` (while set, no connection reads)."""

    def __init__(self, name: str, ledger: FrameLedger):
        self._handler: Handler | None = None
        #: The sender of the ``error`` replies this service writes.
        self.name = name
        self.ledger = ledger
        self._max_frame_bytes = MAX_FRAME_BYTES
        #: Seconds :meth:`close` waits for handlers (TcpServer; never in memory).
        self._drain_timeout: float | None = None
        self._tasks: set[asyncio.Task[None]] = set()
        # Insertion-ordered, so a resume hands waiting frames over in an
        # order that does not depend on object addresses.
        self._connections: dict[_ServerConnection, None] = {}
        self._closing = False
        self.requests_served = 0
        self.protocol_errors = 0

    def _read_requests(self, serving: bool) -> None:
        """Let every connection read requests, or stop them all."""
        self._closing = not serving
        for connection in self._connections:
            connection._flow()

    async def close(self) -> None:
        """Stop reading requests and cancel in-flight handler tasks."""
        self._read_requests(False)
        if self._drain_timeout is not None and self._tasks:
            await asyncio.wait(self._tasks, timeout=self._drain_timeout)
        tasks = list(self._tasks)
        self._tasks.clear()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


class Endpoint(_Service):
    """One addressable node on an :class:`InMemoryNetwork`.

    Calls go out through one :class:`TcpConnection` per destination, on
    a virtual pipe the first call makes (and the next one remakes once
    it died).  Requests come in on the far end of every pipe to it, and
    wait there in order, booked ``inflight``, until :meth:`start` gives
    it a handler (and again after :meth:`close`); replies never wait.
    """

    def __init__(self, network: "InMemoryNetwork", name: str):
        super().__init__(name, network.ledger)
        self._network = network
        self._closing = True  # reads no request until start()
        #: The context ``start()`` was called in: arrivals run in it, not
        #: in whatever context the remote sender happened to send from.
        self._context: contextvars.Context | None = None
        self._outgoing: dict[str, TcpConnection] = {}
        self._next_id = 0

    def start(self, handler: Handler | None = None) -> None:
        """Begin handling requests; without a ``handler`` they wait."""
        self._handler = handler
        self._context = contextvars.copy_context()
        self._read_requests(handler is not None)

    def next_request_id(self) -> str:
        """A fresh, globally-unique correlation id."""
        self._next_id += 1
        return f"{self.name}#{self._next_id}"

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """Send a message to ``destination`` and await the reply with its
        ``request_id``; raises :class:`~repro.errors.TransportError` on an
        unknown destination, and as :meth:`TcpConnection.call` does."""
        connection = self._outgoing.get(destination)
        if connection is None or connection.dead:
            connection = self._network._connect(self, destination)
        return await connection.call(message, timeout=timeout)


class _Pipe(asyncio.Transport):
    """One end of an in-memory connection: each write is one frame for
    :meth:`InMemoryNetwork.deliver` to land at the far end, :attr:`peer`.
    While reading is paused, arrivals wait here in order, still booked
    ``inflight``, as in a kernel buffer.  Closing loses what waits and
    shuts the far end once the frames already on the way have landed.
    """

    def __init__(self, owner: Endpoint, remote: str, protocol: _FrameProtocol):
        super().__init__()
        self.owner = owner
        self.remote = remote
        self.peer = self  # joined to the far end by InMemoryNetwork._connect
        self._protocol = protocol
        self._paused = False
        self._closing = False
        self._waiting: deque[tuple[bytes, int]] = deque()
        protocol.connection_made(self)

    def write(self, data: bytes) -> None:  # type: ignore[override]
        if not self._closing:
            self.owner._network.deliver(self, data)

    def is_closing(self) -> bool:
        return self._closing

    def pause_reading(self) -> None:
        self._paused = True

    def resume_reading(self) -> None:
        self._paused = False
        while self._waiting and not self._paused:
            self._receive(*self._waiting.popleft())

    def close(self) -> None:
        if self._closing:
            return
        self._shut()
        loop = asyncio.get_running_loop()
        link = self.owner._network._links.get((self.owner.name, self.remote))
        last = -math.inf if link is None else link.clear_at
        loop.call_at(max(loop.time(), math.nextafter(last, math.inf)), self.peer._shut)

    abort = close

    def _shut(self) -> None:
        if self._closing:
            return
        self._closing = True
        self.resume_reading()  # what waits lands on a closed pipe: lost
        asyncio.get_running_loop().call_soon(self._protocol.connection_lost, None)

    def _receive(self, data: bytes, size: int) -> None:
        """Delivery-timer callback: a frame written at the far end lands."""
        if self._paused and not self._closing:
            self._waiting.append((data, size))
            return
        ledger = self.owner.ledger
        ledger.frames_inflight -= 1
        ledger.bytes_inflight -= size
        if self._closing:
            ledger.frames_dropped += 1
            ledger.bytes_dropped += size
        else:
            self._protocol.data_received(data)


class _Link:
    """One directed link: its hop distance, its own jitter/loss stream and
    the arrival time of its latest frame (the per-link FIFO bound)."""

    __slots__ = ("hops", "rng", "clear_at")

    def __init__(self, network: "InMemoryNetwork", source: str, destination: str):
        hop_count = network._hop_count
        self.hops = 1 if hop_count is None else max(1, hop_count(source, destination))
        self.rng = np.random.default_rng(
            (network._seed, name_digest(source), name_digest(destination))
        )
        self.clear_at = -math.inf


class InMemoryNetwork:
    """A deterministic simulated network connecting named endpoints.

    Args:
        seed: Seeds every directed link's own latency-jitter / frame-drop
            stream, together with the link's ``(src, dst)`` names, so a
            link's delays and losses never depend on traffic elsewhere.
        base_latency: Propagation delay per hop in seconds.
        bandwidth: Link bandwidth in bytes/second (transfer delay is
            ``body_bytes / bandwidth`` per hop).
        jitter: Uniform multiplicative jitter on propagation delay
            (0.2 → up to +20%).
        drop_probability: Chance a frame silently vanishes (senders see
            a timeout) — the retry-path test knob.
        hop_count: Maps ``(src, dst)`` to the hop distance, asked once
            per link; defaults to 1 hop for every pair.  The service
            harness wires in routing tree distances here.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        base_latency: float = 0.005,
        bandwidth: float = 1e7,
        jitter: float = 0.2,
        drop_probability: float = 0.0,
        hop_count: Callable[[str, str], int] | None = None,
    ):
        if base_latency < 0:
            raise TransportError("base_latency must be non-negative")
        if bandwidth <= 0:
            raise TransportError("bandwidth must be positive")
        if not 0.0 <= drop_probability < 1.0:
            raise TransportError("drop_probability must be in [0, 1)")
        self._seed = seed
        self._base_latency = base_latency
        self._bandwidth = bandwidth
        self._jitter = jitter
        self._drop_probability = drop_probability
        self._hop_count = hop_count
        self._endpoints: dict[str, Endpoint] = {}
        #: Built on each link's first frame: few endpoint pairs ever talk,
        #: and minting a generator costs as much as some 40 draws from it.
        #: A reply crosses ``(dst, src)``, the link ``dst``'s own calls
        #: to ``src`` use, whatever pipe carries it.
        self._links: dict[tuple[str, str], _Link] = {}
        self._faults: FaultInjector | None = None
        #: Every frame the network carries; read it through :meth:`stats`.
        self.ledger = FrameLedger()

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Plug a fault injector in; consulted on every frame delivery."""
        self._faults = injector

    def endpoint(self, name: str) -> Endpoint:
        """Register a new endpoint.

        Raises:
            TransportError: If the name is taken or empty.
        """
        if not name:
            raise TransportError("endpoint name must be non-empty")
        if name in self._endpoints:
            raise TransportError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self, name)
        self._endpoints[name] = endpoint
        return endpoint

    def _connect(self, caller: Endpoint, destination: str) -> TcpConnection:
        """A fresh pipe from ``caller`` to ``destination``, made at once:
        a dial task would cost the first call extra loop turns."""
        target = self._endpoints.get(destination)
        if target is None:
            # Before any counter moves: a frame that was never sent must
            # not unbalance ``sent == settled``.
            raise TransportError(f"unknown endpoint {destination!r}")
        client = TcpConnection(repr(destination), MAX_FRAME_BYTES, self.ledger)
        near = _Pipe(caller, destination, client)
        far = _Pipe(target, caller.name, _ServerConnection(target))
        near.peer, far.peer = far, near
        caller._outgoing[destination] = client
        return client

    def deliver(self, pipe: _Pipe, data: bytes) -> None:
        """Carry one frame written on ``pipe`` across its directed link
        in ``hops × (propagation + body_bytes / bandwidth)``, reading the
        nominal ``body_bytes`` from the frame's header, unless a fault
        or the link's own loss drops it.  Books only the transit:
        ``inflight`` until the frame lands, or ``dropped``."""
        source, destination = pipe.owner.name, pipe.remote
        size = nominal_bytes(data)
        ledger = self.ledger
        link = self._links.get((source, destination))
        if link is None:
            link = self._links[source, destination] = _Link(self, source, destination)
        faults = self._faults
        if (faults is not None and faults.intercept(source, destination)) or (
            self._drop_probability > 0
            and float(link.rng.random()) < self._drop_probability
        ):
            # An injected fault (crashed node, cut link, extra drop rate)
            # or the link's own seeded loss.
            ledger.frames_dropped += 1
            ledger.bytes_dropped += size
            return
        propagation = self._base_latency
        if self._jitter > 0:
            propagation *= 1.0 + self._jitter * float(link.rng.random())
        delay = link.hops * (propagation + size / self._bandwidth)
        if faults is not None:
            delay += faults.extra_latency(source, destination)
        loop = asyncio.get_running_loop()
        arrival = loop.time() + delay
        # FIFO per link: arrivals are *strictly* increasing, because the
        # loop's timer heap is not stable — two frames due at the exact
        # same instant may fire in either order.
        if arrival <= link.clear_at:
            arrival = math.nextafter(link.clear_at, math.inf)
        link.clear_at = arrival
        ledger.frames_inflight += 1
        ledger.bytes_inflight += size
        far = pipe.peer
        loop.call_at(arrival, far._receive, data, size, context=far.owner._context)

    def stats(self) -> dict[str, int]:
        """The :class:`FrameLedger` counts, for tests, metrics and debugging."""
        return self.ledger.stats()


# -- the protocol pair, and the TCP carrier ----------------------------------

#: Handler tasks one server connection may have alive.  At the cap the
#: connection stops reading until one finishes, so the peer's frames
#: back up in the kernel (or the virtual pipe) and then in the peer.
MAX_INFLIGHT = 128


class _FrameProtocol(asyncio.Protocol):
    """Cuts length-prefixed frames out of the bytes a carrier delivers.

    Each decoded frame reaches the subclass's ``_message`` in the loop
    turn of the read that completed it.  A declared length over
    ``max_frame_bytes`` or an undecodable body reaches ``_violated``
    and nothing more of the stream is kept: the buffer never holds more
    than one frame whose length was accepted plus one read.
    """

    def __init__(self, max_frame_bytes: int):
        self._max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._paused = False
        #: No further frame will be cut: violated, closed or lost.
        self.dead = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport: asyncio.Transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        self._lost: asyncio.Future[None] = self._loop.create_future()

    def connection_lost(self, exc: Exception | None) -> None:
        self.dead = True
        self._lost.set_result(None)

    def _cut(self, data: bytes = b"") -> None:
        """Cut every whole frame out of the buffered bytes and ``data``
        (the carrier's read callback, ``data_received``)."""
        buffer = self._buffer
        buffer += data
        offset, end = 0, len(buffer)
        try:
            while end - offset >= HEADER_BYTES and not (self.dead or self._paused):
                start = offset + HEADER_BYTES
                length = int.from_bytes(buffer[offset:start], "big")
                if length > self._max_frame_bytes:
                    raise RuntimeProtocolError(
                        f"peer announced a {length}-byte frame "
                        f"(cap {self._max_frame_bytes})"
                    )
                if start + length > end:
                    break
                offset = start + length
                body = bytes(buffer[start:offset])
                self._message(BINARY_CODEC.decode(body))  # type: ignore[attr-defined]
        except RuntimeProtocolError as err:
            offset = end
            self.dead = True
            self._violated(err)  # type: ignore[attr-defined]
        del buffer[:offset]

    data_received = _cut

    async def close(self) -> None:
        """Flush what is written, close the carrier, wait until it is gone."""
        self.transport.close()
        await self._lost


class TcpConnection(_FrameProtocol):
    """The calling end of one connection, shared by every caller to its peer.

    :meth:`call` writes its request at once, so any number of calls are
    in flight together, each waiting in the pending table under its
    ``request_id`` until the reply that echoes it; a reply nobody waits
    for leaves the connection usable.  A reply that breaks the protocol
    fails every pending caller and marks the connection :attr:`dead` in
    the same turn.  Obtain instances from :func:`dial` (a socket) or, in
    memory, through :meth:`Endpoint.call`.
    """

    def __init__(self, peer: str, max_frame_bytes: int, ledger: FrameLedger):
        super().__init__(max_frame_bytes)
        self._peer = peer
        self.ledger = ledger
        # Per connection, not per mesh: a lost socket fails its own
        # callers and nobody else's.
        self._pending: dict[str, asyncio.Future[Message]] = {}

    def _message(self, message: Message) -> None:
        """The one reply rule: the waiting call gets ``message``, booked
        ``delivered``.  A reply whose caller timed out or was cancelled
        finds nothing (or a done future), is never handed to another
        call and is booked ``dropped``."""
        if not message.request_id:  # the server rejecting the stream itself
            self.dead = True
            self._violated(RuntimeProtocolError(str(message.payload.get("reason"))))
            return
        future = self._pending.pop(message.request_id, None)
        ledger = self.ledger
        if future is not None and not future.done():
            future.set_result(message)
            ledger.frames_delivered += 1
            ledger.bytes_delivered += message.body_bytes
        else:
            ledger.frames_dropped += 1
            ledger.bytes_dropped += message.body_bytes

    def _fail(self, err: Exception) -> None:
        """The link died: every waiting call gets its own copy of ``err``."""
        for future in self._pending.values():
            if not future.done():
                future.set_exception(type(err)(*err.args))
        self._pending.clear()

    def _violated(self, err: RuntimeProtocolError) -> None:
        self._fail(err)
        self.transport.abort()

    def connection_lost(self, exc: Exception | None) -> None:
        detail = f": {exc}" if exc is not None else ""
        super().connection_lost(exc)
        self._fail(TransportError(f"connection to {self._peer} lost{detail}"))

    async def call(self, message: Message, *, timeout: float | None = None) -> Message:
        """Send a request and await the reply with its ``request_id``.

        Raises:
            TransportError: Timeout, dead or lost connection, or a
                transport-kind error reply.
            RuntimeProtocolError: An empty or in-flight request id, an
                unencodable message, a protocol-kind error reply, or the
                peer violating the protocol while the call waits.
        """
        if self.dead:
            raise TransportError(f"connection to {self._peer} is closed")
        request_id = message.request_id
        if not request_id or request_id in self._pending:
            # An empty id reads as the server rejecting the stream, and a
            # second call under a live id would take the first one's reply.
            raise RuntimeProtocolError(
                f"request id {request_id!r} is empty or already in flight"
            )
        self.transport.write(frame(message))
        self.ledger.frames_sent += 1
        self.ledger.bytes_sent += message.body_bytes
        # Registered only now the request is on the way, so a send that
        # raises leaves nothing behind.
        loop = self._loop
        future = self._pending[request_id] = loop.create_future()
        timer = None if timeout is None else loop.call_later(timeout, _expire, future)
        try:
            reply = await future
        except asyncio.TimeoutError:
            raise TransportError(
                f"request {request_id} to {self._peer} timed out after {timeout}s"
            ) from None
        finally:
            # Cleans up after timeouts AND cancellation of the awaiting
            # task; without this, a cancelled call leaks its future.
            if timer is not None:
                timer.cancel()
            self._pending.pop(request_id, None)
        return raise_if_error(reply)


async def dial(
    host: str,
    port: int,
    *,
    timeout: float | None = None,
    peer: str = "",
    max_frame_bytes: int = MAX_FRAME_BYTES,
    ledger: FrameLedger | None = None,
) -> TcpConnection:
    """Open one multiplexed connection to a :class:`TcpServer`.

    ``peer`` is how errors name the far end (default ``host:port``);
    ``max_frame_bytes`` caps inbound replies; ``ledger`` books the
    requests written and the replies delivered or dropped (a fresh one
    by default; a mesh passes its own to all its connections).
    Raises :class:`~repro.errors.TransportError` on failure or timeout.
    """
    peer = peer or f"{host}:{port}"
    ledger = FrameLedger() if ledger is None else ledger
    loop = asyncio.get_running_loop()
    connect = loop.create_task(
        loop.create_connection(
            lambda: TcpConnection(peer, max_frame_bytes, ledger), host, port
        )
    )
    try:
        done, _ = await asyncio.wait({connect}, timeout=timeout)
    finally:
        connect.cancel()  # no effect once connected
    if not done:
        raise TransportError(f"connect to {peer} timed out after {timeout}s")
    try:
        return connect.result()[1]
    except OSError as err:
        raise TransportError(f"connect to {peer} failed: {err}") from err


class _ServerConnection(_FrameProtocol):
    """The serving end of one connection: a handler task per frame,
    replies as they finish."""

    def __init__(self, service: _Service):
        super().__init__(service._max_frame_bytes)
        self._service = service
        self._inflight = 0
        self._choked = False  # the peer lets its replies pile up unread

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._service._connections[self] = None
        self._flow()  # a service that is not serving yet reads nothing

    def connection_lost(self, exc: Exception | None) -> None:
        self._service._connections.pop(self, None)
        super().connection_lost(exc)

    def _message(self, message: Message) -> None:
        service = self._service
        service.ledger.frames_delivered += 1
        service.ledger.bytes_delivered += message.body_bytes
        self._inflight += 1
        service._tasks.add(self._loop.create_task(self._serve(message)))
        if self._inflight >= MAX_INFLIGHT:
            self._flow()

    def _violated(self, err: RuntimeProtocolError) -> None:
        # Hostile or broken peer: report the violation and hang up
        # instead of trusting any further byte.
        self._service.protocol_errors += 1
        error = make_error(self._service.name, "", "protocol", str(err))
        self.transport.write(frame(error))
        self.transport.close()

    def pause_writing(self) -> None:
        self._choked = True
        self._flow()

    def resume_writing(self) -> None:
        self._choked = False
        self._flow()

    def _flow(self) -> None:
        """Read only while serving, replies drain and tasks are under the cap."""
        hold = self._choked or self._service._closing or self._inflight >= MAX_INFLIGHT
        if hold and not self._paused:
            self._paused = True
            self.transport.pause_reading()
        elif self._paused and not hold and not self.transport.is_closing():
            self._paused = False
            self.transport.resume_reading()
            self._cut()

    async def _serve(self, message: Message) -> None:
        """The dispatch boundary: the one place a handler runs, as the
        task of one request; an exception becomes an ``error`` reply,
        counted in ``handler_errors``."""
        service = self._service
        ledger = service.ledger
        try:
            reply = await service._handler(message)  # type: ignore[misc]
        except Exception as err:  # repro-lint: disable=H002
            # Deliberately broad: ANY handler crash must cost one request an
            # error reply instead of stranding its requester until the
            # timeout.  The error kind preserves the exception class across
            # the wire.
            ledger.handler_errors += 1
            kind = "transport" if isinstance(err, TransportError) else "protocol"
            reason = f"handler failed: {type(err).__name__}: {err}"
            reply = make_error(service.name, message.request_id, kind, reason)
        finally:
            self._inflight -= 1
            # Nothing the caller does after this awaits, so the task is as
            # good as done.
            service._tasks.discard(asyncio.current_task())  # type: ignore[arg-type]
        if reply is not None and not self.transport.is_closing():
            self.transport.write(frame(reply))
            ledger.frames_sent += 1
            ledger.bytes_sent += reply.body_bytes
        service.requests_served += 1
        if self._paused:
            self._flow()


class TcpServer(_Service):
    """Serves a message handler over real TCP, one frame per request.

    Connections are persistent and multiplexed: each inbound frame gets
    its own handler task and its reply is written the moment that task
    finishes, so replies correlate by ``request_id``, not by order.  A
    connection has at most :data:`MAX_INFLIGHT` handler tasks alive, and
    starts none while its peer lets replies pile up unread.

    Args:
        handler: Async callable answering each inbound message; an
            exception it raises becomes that request's ``error`` reply
            (counted in :attr:`ledger`, the server's half of a TCP
            :class:`FrameLedger`).
        host: Interface to bind.
        port: Port to bind; 0 picks an ephemeral port (read it back
            from :attr:`port` after :meth:`start`).
        max_frame_bytes: Per-frame size cap enforced on the *declared*
            length before any body byte is kept.
        drain_timeout: Seconds :meth:`close` gives requests already
            accepted to finish and flush their reply.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        drain_timeout: float = 5.0,
    ):
        super().__init__("server", FrameLedger())
        self._handler = handler
        self._max_frame_bytes = max_frame_bytes
        self._host = host
        self._drain_timeout = drain_timeout
        self._server: asyncio.base_events.Server | None = None
        self.port: int = port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self), self._host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, drain in-flight replies, then drop connections.

        No new request is read from here on, but each one already with
        the handler gets ``drain_timeout`` seconds to finish and flush
        its reply (else clients burn a full timeout on a reply that was
        one write away) before it is cancelled and the sockets closed.
        """
        if self._server is not None:
            self._server.close()
        await super().close()
        for connection in list(self._connections):
            await connection.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None


async def tcp_call(
    host: str,
    port: int,
    message: Message,
    *,
    timeout: float = 5.0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Message:
    """One request/reply round trip on a :class:`TcpConnection` of its
    own, for the CLI and tests.

    Raises:
        TransportError: On connect failure, timeout or a lost socket.
        RuntimeProtocolError: When the peer reports a protocol error.
    """
    link = await dial(host, port, timeout=timeout, max_frame_bytes=max_frame_bytes)
    try:
        return await link.call(message, timeout=timeout)
    finally:
        await link.close()


__all__: list[str] = [
    "Endpoint",
    "FrameLedger",
    "Handler",
    "InMemoryNetwork",
    "TcpConnection",
    "TcpServer",
    "dial",
    "tcp_call",
]

"""Pluggable transports: a simulated in-memory network and real TCP.

Two transports implement the same request/reply contract over
:class:`~repro.runtime.messages.Message`:

* :class:`InMemoryNetwork` — endpoints exchange messages with
  **seeded** latency/bandwidth/jitter and optional frame drops, each
  directed link drawing from its own stream.  Each frame costs one
  ``loop.call_at`` timer whose callback handles the arrival itself — a
  reply resolves its waiting :meth:`Endpoint.call`, a request spawns
  its handler task — so there is no queue and no pump task between the
  wire and the handler.  Run it under
  :func:`~repro.runtime.clock.run_virtual` and the whole system is
  deterministic: same seed and workload → same delivery order → same
  metrics snapshot.  Per-link delivery is FIFO (a later message never
  overtakes an earlier one on the same src→dst link, mirroring a TCP
  stream).
* :class:`TcpServer` / :class:`TcpConnection` — the same messages as
  codec frames behind a 4-byte length prefix on real sockets, many in
  flight per connection and replies matched to requests by id.

Both transports speak a negotiated wire codec (see
:mod:`~repro.runtime.messages`): the packed binary codec by default,
canonical JSON as the debug/interop mode.  The in-memory network
round-trips every delivered message through its codec so simulated runs
exercise the same serialisation path as real sockets; the TCP server
mirrors each connection's first inbound frame unless a codec is forced.

Both move bytes under one request/reply core: the :class:`PendingCalls`
table, one dispatch boundary (a raising handler becomes an ``error``
reply) and the :class:`FrameLedger` of the frames they carry.

Failure mapping: anything the *network* did wrong (timeout, dropped
frame, refused connection, truncated stream) raises
:class:`~repro.errors.TransportError`; anything the *peer* did wrong
(bad frame contents, unknown kind, oversized frame) raises
:class:`~repro.errors.RuntimeProtocolError`.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Awaitable, Callable

import numpy as np

from ..errors import RuntimeProtocolError, TransportError
from .messages import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    REPLY_KINDS,
    Codec,
    Message,
    frame,
    make_error,
    raise_if_error,
    resolve_codec,
    sniff_codec,
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
    half.  ``handler_errors`` counts handler exceptions turned into
    ``error`` replies.
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


class PendingCalls(dict[str, "asyncio.Future[Message]"]):
    """The calls one endpoint or connection awaits, by ``request_id``.

    :meth:`wait` registers a call only once its request is on the way,
    so a send that raises leaves nothing behind, and unregisters it
    however it ends.  :meth:`settle` is the one reply rule.
    """

    async def wait(self, request_id: str, peer: str, timeout: float | None) -> Message:
        """Await the reply to a request already sent to ``peer``; raises
        as the ``call`` methods built on it document."""
        loop = asyncio.get_running_loop()
        future = self[request_id] = loop.create_future()
        timer = None if timeout is None else loop.call_later(timeout, _expire, future)
        try:
            reply = await future
        except asyncio.TimeoutError:
            raise TransportError(
                f"request {request_id} to {peer} timed out after {timeout}s"
            ) from None
        finally:
            # Cleans up after timeouts AND cancellation of the awaiting
            # task; without this, a cancelled call leaks its future.
            if timer is not None:
                timer.cancel()
            self.pop(request_id, None)
        return raise_if_error(reply)

    def settle(self, reply: Message, ledger: FrameLedger) -> None:
        """Hand ``reply`` to its waiting call and book it ``delivered``.
        A reply whose caller timed out or was cancelled finds nothing (or
        a done future), is never handed to another call and is booked
        ``dropped``."""
        future = self.pop(reply.request_id, None)
        if future is not None and not future.done():
            future.set_result(reply)
            ledger.frames_delivered += 1
            ledger.bytes_delivered += reply.body_bytes
        else:
            ledger.frames_dropped += 1
            ledger.bytes_dropped += reply.body_bytes

    def fail(self, err: Exception) -> None:
        """The link died: every waiting call gets its own copy of ``err``."""
        for future in self.values():
            if not future.done():
                future.set_exception(type(err)(*err.args))
        self.clear()


def _expire(future: "asyncio.Future[Message]") -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def _answer(
    handler: Handler,
    message: Message,
    name: str,
    ledger: FrameLedger,
    tasks: "set[asyncio.Task[None]]",
) -> Message | None:
    """The dispatch boundary: ``handler``'s reply to ``message``, run as
    one of ``tasks``; an exception becomes an ``error`` reply from
    ``name``, counted in ``ledger.handler_errors``."""
    try:
        return await handler(message)
    except Exception as err:  # repro-lint: disable=H002
        # Deliberately broad: ANY handler crash must cost one request an
        # error reply instead of stranding its requester until the
        # timeout.  The error kind preserves the exception class across
        # the wire.
        ledger.handler_errors += 1
        kind = "transport" if isinstance(err, TransportError) else "protocol"
        reason = f"handler failed: {type(err).__name__}: {err}"
        return make_error(name, message.request_id, kind, reason)
    finally:
        # Nothing the caller does after this awaits, so the task is as
        # good as done.
        tasks.discard(asyncio.current_task())  # type: ignore[arg-type]


class Endpoint:
    """One addressable node on an :class:`InMemoryNetwork`.

    Owns the :class:`PendingCalls` of requests issued via :meth:`call`
    and the handler tasks of requests being served.  A started endpoint
    has no inbox: the network's delivery timer hands each arriving
    frame straight to :meth:`_land`.  Requests that arrive before
    :meth:`start` (or after :meth:`close`) are held, up to
    ``inbox_limit``, and handled in arrival order once it is called;
    a reply needs the pending table, not a handler, so it is never held.
    Obtain instances from :meth:`InMemoryNetwork.endpoint`.
    """

    def __init__(self, network: "InMemoryNetwork", name: str, inbox_limit: int):
        self._network = network
        self.name = name
        self._inbox_limit = inbox_limit
        #: Requests held while not started; ``None`` once started.
        self._held: list[Message] | None = []
        #: The context ``start()`` was called in: arrivals run in it, not
        #: in whatever context the remote sender happened to send from.
        self._context: contextvars.Context | None = None
        self._pending = PendingCalls()
        self._handler: Handler | None = None
        self._dispatch_tasks: set[asyncio.Task[None]] = set()
        self._next_id = 0

    def start(self, handler: Handler | None = None) -> None:
        """Begin handling arrivals; ``handler`` answers inbound requests."""
        self._handler = handler
        self._context = contextvars.copy_context()
        held, self._held = self._held, None
        for message in held or ():
            self._arrive(message)

    def next_request_id(self) -> str:
        """A fresh, globally-unique correlation id."""
        self._next_id += 1
        return f"{self.name}#{self._next_id}"

    def _land(self, message: Message) -> None:
        """Delivery-timer callback: the frame has crossed the wire.  A
        reply settles its call now; a request is handled now, held (not
        started) or rejected (``inbox_limit`` requests already held)."""
        ledger = self._network.ledger
        ledger.frames_inflight -= 1
        ledger.bytes_inflight -= message.body_bytes
        if message.kind in REPLY_KINDS:
            self._pending.settle(message, ledger)
            return
        held = self._held
        if held is None:
            self._arrive(message)
        elif len(held) < self._inbox_limit:
            held.append(message)
        else:
            # Bounded-inbox backpressure: overflow frames are dropped and
            # the sender's timeout fires, exactly like a full router queue.
            ledger.frames_rejected += 1
            ledger.bytes_rejected += message.body_bytes
            return
        ledger.frames_delivered += 1
        ledger.bytes_delivered += message.body_bytes

    def _arrive(self, message: Message) -> None:
        """Handle one request now: it gets its handler task."""
        handler = self._handler
        if handler is not None:
            loop = asyncio.get_running_loop()
            self._dispatch_tasks.add(loop.create_task(self._dispatch(handler, message)))

    async def _dispatch(self, handler: Handler, message: Message) -> None:
        ledger = self._network.ledger
        reply = await _answer(handler, message, self.name, ledger, self._dispatch_tasks)
        if reply is None:
            return
        try:
            self._network.deliver(self.name, message.sender, reply)
        except TransportError:
            # The request named a sender no endpoint answers to: there
            # is nobody to raise at, so the reply is a frame the network
            # took and lost (booked so that ``sent == settled`` holds).
            ledger.frames_sent += 1
            ledger.frames_dropped += 1
            ledger.bytes_sent += reply.body_bytes
            ledger.bytes_dropped += reply.body_bytes

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """Send a message and await the reply with its ``request_id``.

        Raises:
            TransportError: On an unknown destination, on timeout, or
                when the peer reports a transport-level failure.
            RuntimeProtocolError: When the message does not survive the
                wire codec, or the peer reports a protocol violation.
        """
        self._network.deliver(self.name, destination, message)
        return await self._pending.wait(
            message.request_id, repr(destination), timeout
        )

    async def close(self) -> None:
        """Stop handling arrivals and cancel in-flight handler tasks."""
        if self._held is None:
            self._held = []
        tasks = list(self._dispatch_tasks)
        self._dispatch_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


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
        codec: Wire codec name (``"binary"`` or ``"json"``).  Every
            delivered message is round-tripped through this codec, so
            simulated runs exercise the same serialisation path as the
            TCP transport; ``body_bytes`` still drives the latency
            model either way.
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
        codec: str | Codec = "binary",
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
        self._codec = resolve_codec(codec)
        self._endpoints: dict[str, Endpoint] = {}
        #: Built on each link's first frame: few endpoint pairs ever talk,
        #: and minting a generator costs as much as some 40 draws from it.
        self._links: dict[tuple[str, str], _Link] = {}
        self._faults: FaultInjector | None = None
        #: Every frame the network carries; read it through :meth:`stats`.
        self.ledger = FrameLedger()

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Plug a fault injector in; consulted on every frame delivery."""
        self._faults = injector

    def endpoint(self, name: str, *, inbox_limit: int = 1024) -> Endpoint:
        """Register a new endpoint.

        Raises:
            TransportError: If the name is taken or empty.
        """
        if not name:
            raise TransportError("endpoint name must be non-empty")
        if name in self._endpoints:
            raise TransportError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self, name, inbox_limit)
        self._endpoints[name] = endpoint
        return endpoint

    @property
    def codec(self) -> Codec:
        """The wire codec every delivered message round-trips through."""
        return self._codec

    def deliver(self, source: str, destination: str, message: Message) -> None:
        """Schedule a message for delayed delivery.

        The message is serialised and re-parsed through the network's
        codec before scheduling, so the receiver observes exactly what
        the wire format preserves and codec bugs surface synchronously
        at the sender.

        Raises:
            TransportError: If the destination endpoint does not exist.
            RuntimeProtocolError: If the message does not survive the
                wire codec.
        """
        target = self._endpoints.get(destination)
        if target is None:
            # Before any counter moves: a frame that was never sent must
            # not unbalance ``sent == settled``.
            raise TransportError(f"unknown endpoint {destination!r}")
        message = self._codec.decode(self._codec.encode(message))
        ledger = self.ledger
        ledger.frames_sent += 1
        ledger.bytes_sent += message.body_bytes
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
            ledger.bytes_dropped += message.body_bytes
            return
        propagation = self._base_latency
        if self._jitter > 0:
            propagation *= 1.0 + self._jitter * float(link.rng.random())
        delay = link.hops * (propagation + message.body_bytes / self._bandwidth)
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
        ledger.bytes_inflight += message.body_bytes
        loop.call_at(arrival, target._land, message, context=target._context)

    def stats(self) -> dict[str, int]:
        """The :class:`FrameLedger` counts, for tests, metrics and debugging."""
        return self.ledger.stats()


# -- real TCP ----------------------------------------------------------------

#: Handler tasks one server connection may have alive.  At the cap the
#: server stops reading that socket until one finishes, so the peer's
#: frames back up in the kernel and then in the peer.
MAX_INFLIGHT = 128


class _FrameProtocol(asyncio.Protocol):
    """Cuts length-prefixed frames out of a socket's reads.

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

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._cut()

    def _cut(self) -> None:
        buffer = self._buffer
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
                self._message(Message.decode(body), body)  # type: ignore[attr-defined]
        except RuntimeProtocolError as err:
            offset = end
            self.dead = True
            self._violated(err)  # type: ignore[attr-defined]
        del buffer[:offset]

    async def close(self) -> None:
        """Flush what is written, close the socket, wait until it is gone."""
        self.transport.close()
        await self._lost


class TcpConnection(_FrameProtocol):
    """The dialing end of one socket, shared by every caller to its peer.

    :meth:`call` writes its request at once, so any number of calls are
    in flight together, each resolved by the reply that echoes its
    ``request_id`` under the :class:`PendingCalls` rules; a reply nobody
    waits for leaves the connection usable.  A reply that breaks the
    protocol fails every pending caller and marks the connection
    :attr:`dead` in the same turn.  Obtain instances from :func:`dial`.
    """

    def __init__(self, peer: str, max_frame_bytes: int, ledger: FrameLedger):
        super().__init__(max_frame_bytes)
        self._peer = peer
        self.ledger = ledger
        # Per connection, not per mesh: a lost socket fails its own
        # callers and nobody else's.
        self._pending = PendingCalls()

    def _message(self, message: Message, body: bytes) -> None:
        if message.request_id:
            self._pending.settle(message, self.ledger)
        else:  # the server rejecting the stream itself
            self.dead = True
            self._violated(RuntimeProtocolError(str(message.payload.get("reason"))))

    def _violated(self, err: RuntimeProtocolError) -> None:
        self._pending.fail(err)
        self.transport.abort()

    def connection_lost(self, exc: Exception | None) -> None:
        detail = f": {exc}" if exc is not None else ""
        super().connection_lost(exc)
        self._pending.fail(TransportError(f"connection to {self._peer} lost{detail}"))

    async def call(
        self,
        message: Message,
        codec: str | Codec | None = None,
        *,
        timeout: float | None = None,
    ) -> Message:
        """Send a request and await the reply with its ``request_id``.

        Raises:
            TransportError: Timeout, dead or lost connection, or a
                transport-kind error reply.
            RuntimeProtocolError: A protocol-kind error reply, or the
                peer violating the protocol while the call waits.
        """
        if self.dead:
            raise TransportError(f"connection to {self._peer} is closed")
        self.transport.write(frame(message, codec))
        self.ledger.frames_sent += 1
        self.ledger.bytes_sent += message.body_bytes
        return await self._pending.wait(message.request_id, self._peer, timeout)


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
    """One accepted socket: a handler task per frame, replies as they finish."""

    def __init__(self, server: "TcpServer"):
        super().__init__(server._max_frame_bytes)
        self._server = server
        self._codec = server._forced_codec
        self._inflight = 0
        self._choked = False  # the peer lets its replies pile up unread

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        super().connection_lost(exc)

    def _message(self, message: Message, body: bytes) -> None:
        server = self._server
        if self._codec is None:
            # Negotiation: replies mirror the first inbound frame's codec.
            self._codec = sniff_codec(body)
        server.ledger.frames_delivered += 1
        server.ledger.bytes_delivered += message.body_bytes
        self._inflight += 1
        server._tasks.add(self._loop.create_task(self._serve(message)))
        if self._inflight >= MAX_INFLIGHT:
            self._flow()

    def _violated(self, err: RuntimeProtocolError) -> None:
        # Hostile or broken peer: report the violation on the codec in
        # force and hang up instead of trusting any further byte.
        self._server.protocol_errors += 1
        error = make_error("server", "", "protocol", str(err))
        self.transport.write(frame(error, self._codec))
        self.transport.close()

    def pause_writing(self) -> None:
        self._choked = True
        self._flow()

    def resume_writing(self) -> None:
        self._choked = False
        self._flow()

    def _flow(self) -> None:
        """Read only while open, replies drain and tasks are under the cap."""
        hold = self._choked or self._server._closing or self._inflight >= MAX_INFLIGHT
        if hold and not self._paused:
            self._paused = True
            self.transport.pause_reading()
        elif self._paused and not hold and not self.transport.is_closing():
            self._paused = False
            self.transport.resume_reading()
            self._cut()

    async def _serve(self, message: Message) -> None:
        server = self._server
        ledger = server.ledger
        try:
            reply = await _answer(
                server._handler, message, "server", ledger, server._tasks
            )
        finally:
            self._inflight -= 1
        if reply is not None and not self.transport.is_closing():
            self.transport.write(frame(reply, self._codec))
            ledger.frames_sent += 1
            ledger.bytes_sent += reply.body_bytes
        server.requests_served += 1
        if self._paused:
            self._flow()


class TcpServer:
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
        codec: Reply wire format: ``None`` (the default) mirrors each
            connection's first inbound frame, ``"binary"``/``"json"``
            force one (``--codec json``); inbound is always sniffed.
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
        codec: str | Codec | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        drain_timeout: float = 5.0,
    ):
        self._handler = handler
        self._host = host
        self._forced_codec = None if codec is None else resolve_codec(codec)
        self._max_frame_bytes = max_frame_bytes
        self._drain_timeout = drain_timeout
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_ServerConnection] = set()
        self._tasks: set[asyncio.Task[None]] = set()
        self._closing = False
        self.port: int = port
        self.requests_served = 0
        self.protocol_errors = 0
        self.ledger = FrameLedger()

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
        self._closing = True
        if self._server is not None:
            self._server.close()
        for connection in self._connections:
            connection._flow()
        if self._tasks:
            await asyncio.wait(self._tasks, timeout=self._drain_timeout)
        stuck = list(self._tasks)
        for task in stuck:
            task.cancel()
        await asyncio.gather(*stuck, return_exceptions=True)
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
    codec: str | Codec | None = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Message:
    """One request/reply round trip on a :class:`TcpConnection` of its
    own, for the CLI and tests (binary by default; ``codec="json"`` is
    the debug/interop format).

    Raises:
        TransportError: On connect failure, timeout or a lost socket.
        RuntimeProtocolError: When the peer reports a protocol error.
    """
    link = await dial(host, port, timeout=timeout, max_frame_bytes=max_frame_bytes)
    try:
        return await link.call(message, codec, timeout=timeout)
    finally:
        await link.close()


__all__: list[str] = [
    "Endpoint",
    "FrameLedger",
    "Handler",
    "InMemoryNetwork",
    "PendingCalls",
    "TcpConnection",
    "TcpServer",
    "dial",
    "tcp_call",
]

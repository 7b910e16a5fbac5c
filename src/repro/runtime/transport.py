"""Pluggable transports: a simulated in-memory network and real TCP.

Two transports implement the same request/reply contract over
:class:`~repro.runtime.messages.Message`:

* :class:`InMemoryNetwork` — endpoints exchange messages with
  **seeded** latency/bandwidth/jitter and optional frame drops.  Each
  frame costs one ``loop.call_at`` timer whose callback handles the
  arrival itself — a reply is handed to its waiting :meth:`Endpoint.call`,
  a request spawns its handler task — so there is no queue and no
  pump task between the wire and the handler.  Run it under
  :func:`~repro.runtime.clock.run_virtual` and the whole system is
  deterministic: same seed and workload → same delivery order → same
  metrics snapshot.  Per-link delivery is FIFO (a later message never
  overtakes an earlier one on the same src→dst link, mirroring a TCP
  stream).
* :class:`TcpServer` / :func:`tcp_call` — the same messages as codec
  frames behind a 4-byte big-endian length prefix on real sockets, for
  ``repro serve``.

Both transports speak a negotiated wire codec (see
:mod:`~repro.runtime.messages`): the packed binary codec by default,
canonical JSON as the debug/interop mode.  The in-memory network
round-trips every delivered message through its codec so simulated runs
exercise the same serialisation path as real sockets; the TCP server
mirrors each connection's first inbound frame unless a codec is forced.

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
import time
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultInjector

#: An async message handler: returns a reply message or None.
Handler = Callable[[Message], Awaitable[Message | None]]


class Endpoint:
    """One addressable node on an :class:`InMemoryNetwork`.

    Owns the pending-reply futures for requests issued via :meth:`call`
    and the handler tasks of requests being served.  A started endpoint
    has no inbox: the network's delivery timer hands each arriving
    frame straight to :meth:`_arrive`.  Frames that arrive before
    :meth:`start` (or after :meth:`close`) are held, up to
    ``inbox_limit``, and handled in arrival order once it is called.
    Obtain instances from :meth:`InMemoryNetwork.endpoint`.
    """

    def __init__(self, network: "InMemoryNetwork", name: str, inbox_limit: int):
        self._network = network
        self.name = name
        self._inbox_limit = inbox_limit
        #: Frames held while not started; ``None`` once started.
        self._held: list[Message] | None = []
        #: The context ``start()`` was called in: arrivals run in it, not
        #: in whatever context the remote sender happened to send from.
        self._context: contextvars.Context | None = None
        self._pending: dict[str, asyncio.Future[Message]] = {}
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

    def _accept(self, message: Message) -> bool:
        """Take one frame off the wire; ``False`` when it must be
        rejected (not started and ``inbox_limit`` frames already held)."""
        held = self._held
        if held is None:
            self._arrive(message)
        elif len(held) < self._inbox_limit:
            held.append(message)
        else:
            return False
        return True

    def _arrive(self, message: Message) -> None:
        """Handle one frame now: a reply goes to its waiting call, a
        request gets its handler task."""
        loop = asyncio.get_running_loop()
        if message.kind in REPLY_KINDS:
            future = self._pending.pop(message.request_id, None)
            if future is not None:
                # One ready-queue hop between arrival and the caller's
                # wake-up, not zero: setting the result right here is
                # cheaper still and leaves every counter equal, but it
                # moves callers ahead of handler tasks spawned at the
                # same instant, which reorders their draws from the
                # network's single jitter RNG and so shifts virtual
                # times (the golden digests pin them).  Dropping this
                # hop needs per-link jitter streams first.
                loop.call_soon(_resolve, future, message)
            # else: the requester gave up (timed out); drop the reply.
        elif self._handler is not None:
            self._dispatch_tasks.add(loop.create_task(self._dispatch(message)))

    async def _dispatch(self, message: Message) -> None:
        assert self._handler is not None
        try:
            reply = await self._handler(message)
        except asyncio.CancelledError:
            raise
        except Exception as err:  # repro-lint: disable=H002
            # Deliberately broad: this is the dispatch boundary, and ANY
            # handler crash must become an error reply instead of
            # stranding the requester until its timeout.  The error-kind
            # mapping preserves the exception class across the wire.
            self._network.handler_errors += 1
            kind = "transport" if isinstance(err, TransportError) else "protocol"
            reply = make_error(
                self.name,
                message.request_id,
                kind,
                f"handler failed: {type(err).__name__}: {err}",
            )
        finally:
            # Nothing below awaits, so the task is as good as done.
            self._dispatch_tasks.discard(
                asyncio.current_task()  # type: ignore[arg-type]
            )
        if reply is not None:
            try:
                self._network.deliver(self.name, message.sender, reply)
            except TransportError:
                # The request named a sender no endpoint answers to:
                # there is nobody to raise at, so the reply is a frame
                # the network took and lost.
                self._network._drop_unroutable(reply)

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """Send a message and await the reply with its ``request_id``.

        Raises:
            TransportError: On timeout, or when the peer reports a
                transport-level failure.
            RuntimeProtocolError: When the peer reports a protocol
                violation.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Message] = loop.create_future()
        self._pending[message.request_id] = future
        self._network.deliver(self.name, destination, message)
        timer = (
            None if timeout is None else loop.call_later(timeout, _expire, future)
        )
        try:
            reply = await future
        except asyncio.TimeoutError:
            raise TransportError(
                f"request {message.request_id} to {destination!r} "
                f"timed out after {timeout}s"
            ) from None
        finally:
            # Cleans up after timeouts AND cancellation of the awaiting
            # task; without this, a cancelled call leaks its future in
            # _pending forever.
            if timer is not None:
                timer.cancel()
            self._pending.pop(message.request_id, None)
        return raise_if_error(reply)

    def cast(self, destination: str, message: Message) -> None:
        """Fire-and-forget send (no reply expected)."""
        self._network.deliver(self.name, destination, message)

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


def _resolve(future: "asyncio.Future[Message]", reply: Message) -> None:
    if not future.done():
        future.set_result(reply)


def _expire(future: "asyncio.Future[Message]") -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class InMemoryNetwork:
    """A deterministic simulated network connecting named endpoints.

    Args:
        seed: Seeds the latency-jitter / frame-drop RNG.
        base_latency: Propagation delay per hop in seconds.
        bandwidth: Link bandwidth in bytes/second (transfer delay is
            ``body_bytes / bandwidth`` per hop).
        jitter: Uniform multiplicative jitter on propagation delay
            (0.2 → up to +20%).
        drop_probability: Chance a frame silently vanishes (senders see
            a timeout) — the retry-path test knob.
        hop_count: Maps ``(src, dst)`` to the hop distance; defaults to
            1 hop for every pair.  The service harness wires in routing
            tree distances here.
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
        self._rng = np.random.default_rng(seed)
        self._base_latency = base_latency
        self._bandwidth = bandwidth
        self._jitter = jitter
        self._drop_probability = drop_probability
        self._hop_count = hop_count
        self._codec = resolve_codec(codec)
        self._endpoints: dict[str, Endpoint] = {}
        self._link_clear_at: dict[tuple[str, str], float] = {}
        self._faults: FaultInjector | None = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_rejected = 0  # inbox full (backpressure overflow)
        self.frames_inflight = 0  # scheduled, not yet delivered/rejected
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.bytes_dropped = 0
        self.bytes_rejected = 0
        self.bytes_inflight = 0
        self.handler_errors = 0  # handler exceptions converted to replies

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

    def _latency(self, source: str, destination: str, body_bytes: int) -> float:
        hops = 1
        if self._hop_count is not None:
            hops = max(1, self._hop_count(source, destination))
        propagation = self._base_latency
        if self._jitter > 0:
            propagation *= 1.0 + self._jitter * float(self._rng.random())
        delay = hops * (propagation + body_bytes / self._bandwidth)
        if self._faults is not None:
            delay += self._faults.extra_latency(source, destination)
        return delay

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
        self.frames_sent += 1
        self.bytes_sent += message.body_bytes
        if self._faults is not None and self._faults.intercept(
            source, destination
        ):
            # Injected fault: crashed node, cut link, or extra drop rate.
            self.frames_dropped += 1
            self.bytes_dropped += message.body_bytes
            return
        if self._drop_probability > 0 and (
            float(self._rng.random()) < self._drop_probability
        ):
            self.frames_dropped += 1
            self.bytes_dropped += message.body_bytes
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        arrival = now + self._latency(source, destination, message.body_bytes)
        # FIFO per link: arrivals are *strictly* increasing, because the
        # loop's timer heap is not stable — two frames due at the exact
        # same instant may fire in either order.
        link = (source, destination)
        previous = self._link_clear_at.get(link)
        if previous is not None and arrival <= previous:
            arrival = math.nextafter(previous, math.inf)
        self._link_clear_at[link] = arrival
        self.frames_inflight += 1
        self.bytes_inflight += message.body_bytes
        loop.call_at(arrival, self._put, target, message, context=target._context)

    def _put(self, target: Endpoint, message: Message) -> None:
        """Delivery-timer callback: the frame has crossed the wire."""
        self.frames_inflight -= 1
        self.bytes_inflight -= message.body_bytes
        if not target._accept(message):
            # Bounded-inbox backpressure: overflow frames are dropped and
            # the sender's timeout fires, exactly like a full router queue.
            self.frames_rejected += 1
            self.bytes_rejected += message.body_bytes
            return
        self.frames_delivered += 1
        self.bytes_delivered += message.body_bytes

    def _drop_unroutable(self, message: Message) -> None:
        """Book a reply whose requester names no endpoint as sent and
        dropped, keeping ``sent == settled`` (see :meth:`stats`)."""
        self.frames_sent += 1
        self.bytes_sent += message.body_bytes
        self.frames_dropped += 1
        self.bytes_dropped += message.body_bytes

    def stats(self) -> dict[str, int]:
        """Frame and byte accounting for tests, metrics and debugging.

        The frame and byte families each satisfy the conservation
        identity ``sent == delivered + dropped + rejected + inflight``
        (checked by :func:`~repro.runtime.metrics.verify_conservation`).
        """
        return {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_dropped": self.frames_dropped,
            "frames_rejected": self.frames_rejected,
            "frames_inflight": self.frames_inflight,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "bytes_dropped": self.bytes_dropped,
            "bytes_rejected": self.bytes_rejected,
            "bytes_inflight": self.bytes_inflight,
            "handler_errors": self.handler_errors,
        }


# -- real TCP ----------------------------------------------------------------


async def _read_body(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> bytes:
    """Read one length-prefixed frame body without decoding it.

    Raises:
        TransportError: On a truncated stream.
        RuntimeProtocolError: When the peer announces a frame larger
            than ``max_frame_bytes`` — the declared length is rejected
            *before* any body byte is read, so a hostile peer cannot
            make the server buffer an unbounded frame.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
        length = int.from_bytes(header, "big")
        if length > max_frame_bytes:
            raise RuntimeProtocolError(
                f"peer announced a {length}-byte frame "
                f"(cap {max_frame_bytes})"
            )
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as err:
        raise TransportError("stream closed mid-frame") from err
    return body


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Message:
    """Read one length-prefixed message from a stream (codec sniffed).

    Raises:
        TransportError: On a truncated stream.
        RuntimeProtocolError: On an oversized or undecodable frame.
    """
    return Message.decode(await _read_body(reader, max_frame_bytes))


def write_frame(
    writer: asyncio.StreamWriter,
    message: Message,
    codec: str | Codec | None = None,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Queue one length-prefixed message on a stream.

    ``codec`` selects the wire format (default: binary).
    """
    writer.write(frame(message, codec, max_frame_bytes=max_frame_bytes))


class TcpServer:
    """Serves a message handler over real TCP, one frame per request.

    Connections are persistent: a client may send many frames and
    receives one reply frame per request, in order.

    Args:
        handler: Async callable answering each inbound message.
        host: Interface to bind.
        port: Port to bind; 0 picks an ephemeral port (read it back
            from :attr:`port` after :meth:`start`).
        codec: Reply wire format.  ``None`` (the default) negotiates
            per connection by mirroring the codec of the connection's
            first inbound frame; ``"binary"`` or ``"json"`` forces one
            format regardless of what clients send (``repro serve
            --codec json`` is the debug/interop mode).  Inbound frames
            are always decoded by sniffing, so a forced codec never
            rejects a well-formed client.
        max_frame_bytes: Per-frame size cap enforced on the *declared*
            length before any body byte is read.
        drain_timeout: Seconds :meth:`close` waits for connections that
            are mid-request (handler running or reply being written) to
            flush their final frame before cancelling them.
        stats_hook: Optional ``(direction, message)`` callback invoked
            with ``"delivered"`` for each decoded inbound frame and
            ``"sent"`` for each flushed reply — the deploy layer's
            server-side half of the frame-conservation ledger.
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
        stats_hook: Callable[[str, Message], None] | None = None,
    ):
        self._handler = handler
        self._host = host
        self._requested_port = port
        self._forced_codec = None if codec is None else resolve_codec(codec)
        self._max_frame_bytes = max_frame_bytes
        self._drain_timeout = drain_timeout
        self._stats_hook = stats_hook
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._busy: set[asyncio.Task[None]] = set()
        self._closing = False
        self.port: int = port
        self.requests_served = 0
        self.protocol_errors = 0

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # server closing: drop the connection quietly
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        codec = self._forced_codec
        while True:
            try:
                body = await _read_body(reader, self._max_frame_bytes)
                message = Message.decode(body)
            except TransportError:
                return  # client closed the connection
            except RuntimeProtocolError as err:
                # Hostile or broken peer (oversize announcement,
                # undecodable frame): report the violation on whichever
                # codec is in force and drop the connection instead of
                # trusting any further bytes from the stream.
                self.protocol_errors += 1
                error = make_error("server", "", "protocol", str(err))
                write_frame(writer, error, codec)
                await writer.drain()
                return
            if codec is None:
                # Negotiation: replies mirror the codec of this
                # connection's first inbound frame.
                codec = sniff_codec(body)
            if self._stats_hook is not None:
                self._stats_hook("delivered", message)
            # The handler + reply write is the connection's *busy*
            # window: close() must not cancel it, or the final reply
            # frame of a request already accepted is dropped on the
            # floor (the graceful-shutdown bug this set guards against).
            task = asyncio.current_task()
            if task is not None:
                self._busy.add(task)
            try:
                # Wall-clock is banned repo-wide (D004) because it breaks
                # replayability — but a real-socket round trip has no
                # virtual clock, and the served duration is reporting-only
                # (never feeds a simulation decision).  time.monotonic is
                # the narrow sanctioned exception, scoped by the linter to
                # this module.
                started = time.monotonic()
                reply = await self._handler(message)
                if reply is not None:
                    elapsed = time.monotonic() - started
                    reply.payload["service_seconds"] = round(elapsed, 6)
                    write_frame(writer, reply, codec)
                    await writer.drain()
                    if self._stats_hook is not None:
                        self._stats_hook("sent", reply)
                self.requests_served += 1
            finally:
                if task is not None:
                    self._busy.discard(task)
            if self._closing:
                return  # shutdown requested; reply flushed, now exit

    async def close(self) -> None:
        """Stop accepting, drain in-flight replies, then drop connections.

        Ordering matters: cancelling every connection task immediately
        (the old behaviour) could kill a handler mid-flight or a reply
        mid-write, so a fast shutdown dropped the final frame and the
        client burned a full timeout.  Now busy connections get up to
        ``drain_timeout`` seconds to flush the reply they are serving;
        only idle connections (parked on the next read) are cancelled
        straight away.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self._drain_timeout
        while True:
            busy = [task for task in self._busy if not task.done()]
            remaining = deadline - time.monotonic()
            if not busy or remaining <= 0:
                break
            await asyncio.wait(busy, timeout=remaining)
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)


async def tcp_call(
    host: str,
    port: int,
    message: Message,
    *,
    timeout: float = 5.0,
    codec: str | Codec | None = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Message:
    """One request/reply round trip against a :class:`TcpServer`.

    Opens a connection, sends one frame (binary by default; pass
    ``codec="json"`` for the debug/interop format), awaits one reply
    frame and closes.  (The load generator keeps persistent
    connections; this helper is for the CLI and tests.)

    Raises:
        TransportError: On connect failure, timeout or truncation.
        RuntimeProtocolError: When the peer reports a protocol error.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except asyncio.TimeoutError:
        raise TransportError(
            f"connect to {host}:{port} timed out after {timeout}s"
        ) from None
    except (ConnectionError, OSError) as err:
        raise TransportError(f"connect to {host}:{port} failed: {err}") from err
    try:
        write_frame(writer, message, codec)
        await writer.drain()
        reply = await asyncio.wait_for(
            read_frame(reader, max_frame_bytes=max_frame_bytes), timeout
        )
    except asyncio.TimeoutError:
        raise TransportError(
            f"request {message.request_id} to {host}:{port} "
            f"timed out after {timeout}s"
        ) from None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return raise_if_error(reply)


__all__: list[str] = [
    "Endpoint",
    "Handler",
    "InMemoryNetwork",
    "TcpServer",
    "read_frame",
    "tcp_call",
    "write_frame",
]

"""Client-side TCP fabric: the in-memory network's duck type on sockets.

A :class:`TcpMesh` gives the unmodified
:class:`~repro.runtime.loadgen.LoadGenerator` and
:class:`~repro.runtime.node.CacheNode` a real-socket transport with the
same endpoint surface as
:class:`~repro.runtime.transport.InMemoryNetwork`: ``endpoint(name)``
returns an object with ``name`` / ``start`` / ``next_request_id`` /
``call`` / ``cast`` / ``close``.  Destinations are resolved through a
static ``node → (host, port)`` directory assembled from the event bus's
``ready`` topic.

Connections are persistent and per ``(endpoint, destination)``; a lock
is held across each write+read pair, so replies correlate by order on
the stream exactly as :class:`~repro.runtime.transport.TcpServer`
produces them.  The mesh keeps the sender's half of the
frame-conservation ledger — ``frames_sent`` counted after a successful
write, ``frames_delivered`` when the reply frame is read — mirroring
the server-side ``stats_hook`` counts, so the merged cross-process
registries satisfy the same ``sent == delivered + dropped + rejected +
inflight`` identity as a single-loop run.
"""

from __future__ import annotations

import asyncio

from ..errors import TransportError
from ..runtime.messages import MAX_FRAME_BYTES, Codec, Message, raise_if_error
from ..runtime.transport import read_frame, write_frame

__all__ = ["GatedEndpoint", "TcpMesh", "TcpMeshEndpoint"]


class TcpMesh:
    """A directory of TCP listeners plus the endpoints that dial them.

    Args:
        directory: ``node name → (host, port)`` of every listener.
        codec: Wire codec for outbound frames (replies are sniffed).
        timeout: Default per-call timeout when the caller passes None.
        max_frame_bytes: Per-frame cap applied to inbound replies.
    """

    def __init__(
        self,
        directory: dict[str, tuple[str, int]],
        *,
        codec: str | Codec = "binary",
        timeout: float | None = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._directory = dict(directory)
        self._codec = codec
        self._timeout = timeout
        self._max_frame_bytes = max_frame_bytes
        self._endpoints: dict[str, TcpMeshEndpoint] = {}
        self.frames_sent = 0
        self.frames_delivered = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0

    def address_of(self, destination: str) -> tuple[str, int]:
        """Resolve one directory entry.

        Raises:
            TransportError: The name is not in the directory.
        """
        address = self._directory.get(destination)
        if address is None:
            raise TransportError(f"unknown endpoint {destination!r}")
        return address

    def endpoint(self, name: str, *, inbox_limit: int = 1024) -> "TcpMeshEndpoint":
        """Register a new dialing endpoint (``inbox_limit`` is vestigial).

        Raises:
            TransportError: If the name is taken or empty.
        """
        del inbox_limit  # socket buffers replace the simulated inbox
        if not name:
            raise TransportError("endpoint name must be non-empty")
        if name in self._endpoints:
            raise TransportError(f"endpoint {name!r} already registered")
        endpoint = TcpMeshEndpoint(self, name)
        self._endpoints[name] = endpoint
        return endpoint

    def stats(self) -> dict[str, int]:
        """Sender-side frame/byte ledger in the in-memory network's keys.

        Dropped, rejected and in-flight are structurally zero on the
        mesh: a frame either lands on a stream or the call raises.
        """
        return {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_dropped": 0,
            "frames_rejected": 0,
            "frames_inflight": 0,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "bytes_dropped": 0,
            "bytes_rejected": 0,
            "bytes_inflight": 0,
            "handler_errors": 0,
        }

    async def close(self) -> None:
        """Close every endpoint's connections."""
        for endpoint in self._endpoints.values():
            await endpoint.close()


class TcpMeshEndpoint:
    """One named caller on the mesh (a client worker or a proxy)."""

    def __init__(self, mesh: TcpMesh, name: str):
        self._mesh = mesh
        self.name = name
        self._connections: dict[
            str, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._next_id = 0

    def start(self, handler=None) -> None:
        """Accepted for endpoint-surface parity; mesh endpoints only dial."""
        del handler  # inbound service is TcpServer's job in a deployment

    def next_request_id(self) -> str:
        """A fresh, globally-unique correlation id."""
        self._next_id += 1
        return f"{self.name}#{self._next_id}"

    async def _connection(
        self, destination: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        live = self._connections.get(destination)
        if live is not None:
            return live
        host, port = self._mesh.address_of(destination)
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as err:
            raise TransportError(
                f"connect to {destination!r} ({host}:{port}) failed: {err}"
            ) from err
        self._connections[destination] = (reader, writer)
        return reader, writer

    def _drop_connection(self, destination: str) -> None:
        live = self._connections.pop(destination, None)
        if live is not None:
            live[1].close()

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """One request/reply round trip on the persistent connection.

        Raises:
            TransportError: On connect failure, timeout, truncation, or
                a transport-kind error reply.
            RuntimeProtocolError: On a protocol-kind error reply or an
                undecodable frame.
        """
        if timeout is None:
            timeout = self._mesh._timeout
        lock = self._locks.setdefault(destination, asyncio.Lock())
        async with lock:
            reader, writer = await self._connection(destination)
            try:
                write_frame(writer, message, self._mesh._codec)
                await writer.drain()
                self._mesh.frames_sent += 1
                self._mesh.bytes_sent += message.body_bytes
                awaitable = read_frame(
                    reader, max_frame_bytes=self._mesh._max_frame_bytes
                )
                if timeout is not None:
                    reply = await asyncio.wait_for(awaitable, timeout)
                else:
                    reply = await awaitable
            except asyncio.TimeoutError:
                self._drop_connection(destination)
                raise TransportError(
                    f"request {message.request_id} to {destination!r} "
                    f"timed out after {timeout}s"
                ) from None
            except (ConnectionError, OSError, TransportError) as err:
                self._drop_connection(destination)
                if isinstance(err, TransportError):
                    raise
                raise TransportError(
                    f"stream to {destination!r} failed: {err}"
                ) from err
            self._mesh.frames_delivered += 1
            self._mesh.bytes_delivered += reply.body_bytes
        return raise_if_error(reply)

    def cast(self, destination: str, message: Message) -> None:
        """Fire-and-forget is not part of the deployment protocol.

        Coordination travels on the event bus, not as unsolicited
        frames; keeping this a hard error preserves the one-reply-per-
        request stream framing :meth:`call` relies on.

        Raises:
            TransportError: Always.
        """
        raise TransportError(
            f"cast({destination!r}) unsupported on a TCP mesh; "
            "publish on the event bus instead"
        )

    async def close(self) -> None:
        """Close every persistent connection."""
        for destination in list(self._connections):
            _, writer = self._connections.pop(destination)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class GatedEndpoint:
    """An endpoint decorator that injects partitions at the caller.

    Wraps a :class:`TcpMeshEndpoint` (or anything endpoint-shaped) and
    fails :meth:`call` with :class:`~repro.errors.TransportError`
    *before dialing* while the gate is down — the deployment fault
    plan's network partition.  No frame is written, so the
    frame-conservation ledger stays exact through the fault.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._down = False

    @property
    def name(self) -> str:
        """The wrapped endpoint's name."""
        return self._inner.name

    def partition(self) -> None:
        """Cut the link: every call fails fast until :meth:`heal`."""
        self._down = True

    def heal(self) -> None:
        """Restore the link."""
        self._down = False

    def start(self, handler=None) -> None:
        """Delegate (mesh endpoints ignore handlers anyway)."""
        self._inner.start(handler)

    def next_request_id(self) -> str:
        """Delegate to the wrapped endpoint's id sequence."""
        return self._inner.next_request_id()

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """Delegate, unless the link is partitioned.

        Raises:
            TransportError: While partitioned (without dialing), or
                whatever the wrapped call raises.
        """
        if self._down:
            raise TransportError(
                f"link to {destination!r} partitioned (injected fault)"
            )
        return await self._inner.call(destination, message, timeout=timeout)

    def cast(self, destination: str, message: Message) -> None:
        """Delegate (still raises on a mesh endpoint)."""
        if self._down:
            raise TransportError(
                f"link to {destination!r} partitioned (injected fault)"
            )
        self._inner.cast(destination, message)

    async def close(self) -> None:
        """Delegate."""
        await self._inner.close()

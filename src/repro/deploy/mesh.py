"""Client-side TCP fabric: the in-memory network's duck type on sockets.

A :class:`TcpMesh` gives the unmodified
:class:`~repro.runtime.loadgen.LoadGenerator` and
:class:`~repro.runtime.node.CacheNode` a real-socket transport with the
endpoint surface they use of
:class:`~repro.runtime.transport.InMemoryNetwork`: ``endpoint(name)``
returns an object with ``name`` / ``start`` / ``next_request_id`` /
``call`` / ``close``.  Destinations resolve through a static ``node →
(host, port)`` directory assembled from the bus's ``ready`` topic.

The mesh keeps **one** persistent
:class:`~repro.runtime.transport.TcpConnection` per destination, shared
by all its endpoints: replies find their caller by ``request_id``
(unique across the mesh: ``name#n``), so calls from any number of
endpoints overlap on the socket.  A call that times out leaves the
connection up — its late reply is read and booked as dropped — and a
dead connection is redialled by the next call.  Every connection books
into the mesh's one :class:`~repro.runtime.transport.FrameLedger`, the
sender's half of frame conservation (each ``TcpServer.ledger`` is the
other half).
"""

from __future__ import annotations

import asyncio

from ..errors import TransportError
from ..runtime.messages import MAX_FRAME_BYTES, Message
from ..runtime.transport import FrameLedger, TcpConnection, dial

__all__ = ["TcpMesh", "TcpMeshEndpoint"]


class TcpMesh:
    """A directory of TCP listeners plus the endpoints that dial them.

    Args:
        directory: ``node name → (host, port)`` of every listener.
        timeout: Default per-call timeout; it also bounds each dial.
        max_frame_bytes: Per-frame cap applied to inbound replies.
    """

    def __init__(
        self,
        directory: dict[str, tuple[str, int]],
        *,
        timeout: float | None = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._directory = dict(directory)
        self._timeout = timeout
        self._max_frame_bytes = max_frame_bytes
        self._endpoints: dict[str, TcpMeshEndpoint] = {}
        self._links: dict[str, TcpConnection] = {}
        self._dials: dict[str, asyncio.Task[TcpConnection]] = {}
        self.ledger = FrameLedger()

    def endpoint(self, name: str) -> "TcpMeshEndpoint":
        """Register a new dialing endpoint.

        Raises:
            TransportError: If the name is taken or empty.
        """
        if not name:
            raise TransportError("endpoint name must be non-empty")
        if name in self._endpoints:
            raise TransportError(f"endpoint {name!r} already registered")
        endpoint = TcpMeshEndpoint(self, name)
        self._endpoints[name] = endpoint
        return endpoint

    async def _connect(self, destination: str) -> TcpConnection:
        """Body of the one dial task a destination has at a time."""
        try:
            address = self._directory.get(destination)
            if address is None:
                raise TransportError(f"unknown endpoint {destination!r}")
            link = self._links[destination] = await dial(
                *address,
                timeout=self._timeout,
                peer=f"{destination!r} ({address[0]}:{address[1]})",
                max_frame_bytes=self._max_frame_bytes,
                ledger=self.ledger,
            )
        finally:
            del self._dials[destination]
        return link

    def stats(self) -> dict[str, int]:
        """The sender's half of the frame ledger, in the in-memory keys.

        Requests written are ``sent``, their replies ``delivered`` to a
        caller or ``dropped`` (caller gone).  Nothing is booked rejected
        or in flight: a request is settled on the server's ledger when
        read, so the identity holds for both halves merged, once drained.
        """
        return self.ledger.stats()

    async def close(self) -> None:
        """Close every connection."""
        for task in list(self._dials.values()):
            task.cancel()
        links, self._links = self._links, {}
        for link in links.values():
            await link.close()


class TcpMeshEndpoint:
    """One named caller on the mesh (a client worker or a proxy).

    Setting :attr:`partitioned` is the deployment fault plan's network
    partition, injected at the caller: :meth:`call` then fails *before*
    anything is written, so the ledger stays exact through the fault.
    """

    def __init__(self, mesh: TcpMesh, name: str):
        self._mesh = mesh
        self.name = name
        self._next_id = 0
        self.partitioned = False

    def start(self, handler=None) -> None:
        """Parity only: inbound service is ``TcpServer``'s job here."""

    def next_request_id(self) -> str:
        """A fresh correlation id, unique across the mesh."""
        self._next_id += 1
        return f"{self.name}#{self._next_id}"

    async def call(
        self, destination: str, message: Message, *, timeout: float | None = None
    ) -> Message:
        """One request/reply round trip on the mesh's connection.

        Raises:
            TransportError: While partitioned; on connect failure,
                timeout, a lost connection or a transport-kind reply.
            RuntimeProtocolError: On a protocol-kind error reply or a
                peer that violates the protocol.
        """
        mesh = self._mesh
        if self.partitioned:
            raise TransportError(
                f"link to {destination!r} partitioned (injected fault)"
            )
        link = mesh._links.get(destination)
        if link is None or link.dead:
            # Concurrent callers share one dial; shielded, so none of
            # them can cancel it for the others.
            task = mesh._dials.get(destination)
            if task is None:
                task = asyncio.get_running_loop().create_task(
                    mesh._connect(destination)
                )
                mesh._dials[destination] = task
            link = await asyncio.shield(task)
        if timeout is None:
            timeout = mesh._timeout
        return await link.call(message, timeout=timeout)

    async def close(self) -> None:
        """Nothing to release: the connections are the mesh's."""

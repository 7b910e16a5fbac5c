"""The live origin (home) server.

Answers ``request`` messages with the demand document plus any
speculated riders its rider table lists — the paper's *speculative
service*: the server, not the client, decides what else to send
(section 3.1).  Each served request also feeds the online dependency
estimator and a bounded history buffer the dissemination daemon
replans from.
"""

from __future__ import annotations

from collections import deque

from ..speculation.riders import RiderTable
from ..trace.records import Document, Request, Trace
from .estimator import OnlineDependencyEstimator
from .messages import Message, make_error, make_response
from .metrics import MetricsRegistry, default_registry
from .resilience import DuplicateFilter


class OriginServer:
    """Protocol logic of the origin; transport-agnostic.

    Wire ``handle`` into either transport: an in-memory
    :class:`~repro.runtime.transport.Endpoint` or a
    :class:`~repro.runtime.transport.TcpServer`.

    Args:
        catalog: The servable documents.
        estimator: Online dependency estimator (already warmed, or
            learning in-band).
        riders: Rider table over ``estimator.model`` and ``catalog``
            (its MaxSize caps speculated documents); None serves
            demand-only (the baseline arm).
        metrics: Shared metrics registry.
        name: Endpoint name used in replies.
        history_limit: Served requests kept for the dissemination
            daemon's replans.
    """

    def __init__(
        self,
        catalog: dict[str, Document],
        *,
        estimator: OnlineDependencyEstimator,
        riders: RiderTable | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "home-server",
        history_limit: int = 200_000,
    ):
        self._catalog = catalog
        self._estimator = estimator
        self._riders = riders
        self.metrics = metrics if metrics is not None else default_registry()
        self.name = name
        # Served demand as (timestamp, client, doc_id, size) rows; the
        # requests are built only when a replan reads recent_trace().
        self._history: deque[tuple[float, str, str, int]] = deque(
            maxlen=history_limit
        )
        self._dedupe = DuplicateFilter()

    async def handle(self, message: Message) -> Message | None:
        """Answer one inbound message; never raises to the transport."""
        if message.kind == "request":
            return self._respond(message)
        if message.kind == "stats":
            return Message(
                kind="stats-reply",
                sender=self.name,
                request_id=message.request_id,
                payload=self.metrics.snapshot(),
                body_bytes=256,
            )
        return make_error(
            self.name,
            message.request_id,
            "protocol",
            f"origin cannot handle kind {message.kind!r}",
        )

    def _respond(self, message: Message) -> Message:
        payload = message.payload
        doc_id = payload.get("doc_id")
        client = payload.get("client") or message.sender
        timestamp = payload.get("timestamp")
        if not isinstance(doc_id, str) or not isinstance(timestamp, (int, float)):
            return make_error(
                self.name, message.request_id, "protocol",
                "request needs doc_id and a numeric timestamp",
            )
        document = self._catalog.get(doc_id)
        if document is None:
            return make_error(
                self.name, message.request_id, "protocol",
                f"unknown document {doc_id!r}",
            )

        # At-least-once accounting: a retry of a demand the origin
        # already served (its reply was lost in flight) is served again
        # but counted as duplicate service, not fresh load — otherwise
        # every dropped reply would inflate server load and speculative
        # push bytes beyond what the batch replay can reproduce.
        demand_key = payload.get("req")
        duplicate = (
            isinstance(demand_key, str)
            and bool(demand_key)
            and self._dedupe.seen(demand_key)
        )
        if duplicate:
            self.metrics.counter("origin.duplicate_requests").inc()
            self.metrics.counter("origin.duplicate_bytes").inc(document.size)
        else:
            self.metrics.counter("origin.requests").inc()
            self.metrics.counter("origin.bytes_served").inc(document.size)
            self._history.append(
                (float(timestamp), str(client), doc_id, document.size)
            )
            self._estimator.observe(str(client), doc_id, float(timestamp))

        riders: list[tuple[str, int]] = []
        if self._riders is not None:
            cached = set(payload.get("digest", ()))
            cached.add(doc_id)  # the demand document rides anyway
            for rider, size, _ in self._riders.riders(doc_id):
                if rider in cached:
                    continue
                riders.append((rider, size))
                if duplicate:
                    self.metrics.counter("origin.duplicate_bytes").inc(size)
                else:
                    self.metrics.counter("origin.speculated_documents").inc()
                    self.metrics.counter("origin.speculated_bytes").inc(size)
                    self.metrics.trace_event(
                        "speculation",
                        time=float(timestamp),
                        demand=doc_id,
                        rider=rider,
                        bytes=size,
                        client=str(client),
                    )

        return make_response(
            self.name,
            message.request_id,
            doc_id,
            document.size,
            self.name,
            speculated=riders,
        )

    def recent_trace(self) -> Trace:
        """The buffered served requests as a trace (daemon replan input)."""
        requests = [Request(*served) for served in self._history]
        return Trace(requests, self._catalog.values(), sort=True)

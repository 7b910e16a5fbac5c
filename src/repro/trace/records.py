"""Immutable record types for access traces.

A trace is a time-ordered sequence of :class:`Request` records plus a
catalog of the :class:`Document` objects those requests touch.  These
types carry exactly the fields the paper's protocols can observe in a
server log — timestamp, client, document, size, status — and nothing
else, honouring the paper's constraint that the protocols use only
log-derivable information (section 2.1).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..errors import TraceFormatError

#: HTTP status codes treated as successful document deliveries.
SUCCESS_STATUSES = frozenset({200, 203, 206, 304})


@dataclass(frozen=True, slots=True)
class Document:
    """A servable object ("document" in the paper's broad sense).

    The paper uses *document* for any multimedia object — HTML pages,
    inline images, audio, etc.

    Attributes:
        doc_id: Stable identifier (URL path for real logs).
        size: Size in bytes; must be non-negative.
        kind: Coarse type tag, e.g. ``"page"`` or ``"embedded"``.
        home_server: Identifier of the home server that produces it.
        mutable: Whether the document belongs to the frequently-updated
            ("mutable") class of section 2.
    """

    doc_id: str
    size: int
    kind: str = "page"
    home_server: str = "origin"
    mutable: bool = False

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise TraceFormatError("document id must be non-empty")
        if self.size < 0:
            raise TraceFormatError(f"document {self.doc_id!r} has negative size")


@dataclass(frozen=True, slots=True)
class Request:
    """One logged access.

    Attributes:
        timestamp: Seconds since the trace epoch (monotone within a trace).
        client: Client (host) identifier.
        doc_id: Identifier of the requested document.
        size: Bytes delivered for this access.
        status: HTTP status code (200 for synthetic traces).
        method: HTTP method; only ``GET`` requests carry documents.
        remote: True if the client is outside the server's own
            organisation — the remote/local split of section 2.
    """

    timestamp: float
    client: str
    doc_id: str
    size: int
    status: int = 200
    method: str = "GET"
    remote: bool = True

    def __post_init__(self) -> None:
        if not self.client:
            raise TraceFormatError("request client must be non-empty")
        if not self.doc_id:
            raise TraceFormatError("request doc_id must be non-empty")
        if self.size < 0:
            raise TraceFormatError("request size must be non-negative")

    @property
    def ok(self) -> bool:
        """True when the access successfully delivered a document."""
        return self.status in SUCCESS_STATUSES


class Trace:
    """A time-ordered sequence of requests with a document catalog.

    The constructor validates ordering; use ``sort=True`` to accept
    unordered input (e.g. merged logs) and sort it on ingest.

    Args:
        requests: The access records.
        documents: Catalog of documents; missing entries are synthesised
            from the largest size observed per ``doc_id`` so that real
            logs (which carry no catalog) still work.
        sort: Sort requests by timestamp instead of requiring order.
    """

    def __init__(
        self,
        requests: Iterable[Request],
        documents: Iterable[Document] = (),
        *,
        sort: bool = False,
    ):
        reqs = list(requests)
        if sort:
            reqs.sort(key=lambda r: r.timestamp)
        else:
            for earlier, later in zip(reqs, reqs[1:]):
                if later.timestamp < earlier.timestamp:
                    raise TraceFormatError(
                        "requests out of order; pass sort=True to sort on ingest"
                    )
        self._requests: list[Request] = reqs
        self._timestamps: list[float] = [r.timestamp for r in reqs]

        # Colliding catalog ids keep the largest cataloged size — the
        # same rule merge() documents, so merging traces and building
        # one from concatenated catalogs agree.
        catalog: dict[str, Document] = {}
        for document in documents:
            known = catalog.get(document.doc_id)
            if known is None or document.size > known.size:
                catalog[document.doc_id] = document
        for request in reqs:
            known = catalog.get(request.doc_id)
            if known is None or request.size > known.size:
                catalog[request.doc_id] = Document(
                    doc_id=request.doc_id,
                    size=max(request.size, known.size if known else 0),
                    kind=known.kind if known else "page",
                    home_server=known.home_server if known else "origin",
                    mutable=known.mutable if known else False,
                )
        self._documents = catalog

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    def __repr__(self) -> str:
        span = self.duration
        return (
            f"Trace({len(self._requests)} requests, "
            f"{len(self._documents)} documents, {span:.0f}s span)"
        )

    # -- accessors -----------------------------------------------------------

    @property
    def requests(self) -> Sequence[Request]:
        """The underlying request list (read-only view by convention)."""
        return self._requests

    @property
    def timestamps(self) -> Sequence[float]:
        """Request timestamps in trace order (read-only by convention).

        Kept alongside the requests for binary searches; exposed so
        vectorized consumers can build arrays without re-walking the
        request objects.
        """
        return self._timestamps

    @property
    def documents(self) -> dict[str, Document]:
        """Catalog mapping ``doc_id`` to :class:`Document`."""
        return self._documents

    @property
    def start_time(self) -> float:
        """Timestamp of the first request (0.0 for an empty trace)."""
        return self._timestamps[0] if self._timestamps else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last request (0.0 for an empty trace)."""
        return self._timestamps[-1] if self._timestamps else 0.0

    @property
    def duration(self) -> float:
        """Seconds between first and last request."""
        return self.end_time - self.start_time

    def clients(self) -> set[str]:
        """The set of distinct client identifiers."""
        return {r.client for r in self._requests}

    def document_size(self, doc_id: str) -> int:
        """Size in bytes of a cataloged document.

        Raises:
            TraceFormatError: If the document is unknown.
        """
        try:
            return self._documents[doc_id].size
        except KeyError:
            raise TraceFormatError(f"unknown document {doc_id!r}") from None

    def total_bytes(self) -> int:
        """Total bytes delivered across all requests."""
        return sum(r.size for r in self._requests)

    # -- derived traces -------------------------------------------------------

    def window(self, start: float, end: float) -> "Trace":
        """Return the sub-trace with ``start <= timestamp < end``.

        Uses binary search, so slicing a long trace into daily windows
        is cheap.  The catalog keeps this trace's entries for the
        documents the window's requests reference.
        """
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_left(self._timestamps, end)
        return self._derived(self._requests[lo:hi], self._timestamps[lo:hi])

    def filter(self, predicate) -> "Trace":
        """Return a new trace keeping requests where ``predicate(r)`` holds."""
        subset = [r for r in self._requests if predicate(r)]
        return self._derived(subset, [r.timestamp for r in subset])

    def _derived(self, subset: list[Request], timestamps: list[float]) -> "Trace":
        """``Trace(subset, [its documents])`` without re-checking what
        this trace guarantees: order, and each document's largest size."""
        trace = Trace.__new__(Trace)
        trace._requests = subset
        trace._timestamps = timestamps
        catalog = self._documents
        trace._documents = {r.doc_id: catalog[r.doc_id] for r in subset}
        return trace

    def remote_only(self) -> "Trace":
        """The sub-trace of remote accesses (section 2's focus)."""
        return self.filter(lambda r: r.remote)

    def by_client(self) -> dict[str, list[Request]]:
        """Group requests per client, preserving time order."""
        groups: dict[str, list[Request]] = {}
        for request in self._requests:
            groups.setdefault(request.client, []).append(request)
        return groups

    @classmethod
    def merge(cls, traces: Iterable["Trace"]) -> "Trace":
        """Merge several traces into one time-ordered trace.

        Useful for combining multiple log files of one server, or the
        logs of several servers whose document ids do not collide
        (colliding ids keep the largest cataloged size).
        """
        requests: list[Request] = []
        documents: list[Document] = []
        for trace in traces:
            requests.extend(trace.requests)
            documents.extend(trace.documents.values())
        return cls(requests, documents, sort=True)

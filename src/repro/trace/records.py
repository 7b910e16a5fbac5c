"""Immutable record types for access traces.

A trace is a time-ordered sequence of accesses plus a catalog of the
:class:`Document` objects they touch.  An access carries exactly the
fields the paper's protocols can observe in a server log — timestamp,
client, document, size, status, method and the remote/local flag — and
nothing else, honouring the paper's constraint that the protocols use
only log-derivable information (section 2.1).

A :class:`Trace` stores those fields as :class:`TraceColumns`: numpy
columns over interned id tables.  Engines read the columns; a
:class:`Request` object is built only where code needs one (a load
generator's stream, the general replay loop, the CLF writer), at most
once per trace.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class TraceColumns:
    """A trace's accesses as parallel columns over interned id tables.

    Row ``k`` is the ``k``-th access.  ``doc``, ``client`` and ``method``
    hold codes into ``doc_ids``, ``client_ids`` and ``methods``; a table
    may name ids no row uses (a window shares its parent's tables).
    Columns are read-only arrays.

    Attributes:
        doc_ids: Document id per doc code.
        client_ids: Client id per client code.
        methods: HTTP method per method code.
        timestamp: Seconds since the trace epoch (float64, ascending).
        doc: Document code per access (int64).
        client: Client code per access (int64).
        size: Bytes delivered per access (int64).
        remote: Remote/local flag per access (bool).
        status: HTTP status per access (int64).
        method: Method code per access (int64).
    """

    doc_ids: tuple[str, ...]
    client_ids: tuple[str, ...]
    methods: tuple[str, ...]
    timestamp: np.ndarray
    doc: np.ndarray
    client: np.ndarray
    size: np.ndarray
    remote: np.ndarray
    status: np.ndarray
    method: np.ndarray

    def __post_init__(self) -> None:
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (
            self.timestamp,
            self.doc,
            self.client,
            self.size,
            self.remote,
            self.status,
            self.method,
        )

    def __len__(self) -> int:
        return self.timestamp.size

    def take(self, index: slice | np.ndarray) -> "TraceColumns":
        """The rows a slice or a boolean mask selects (same id tables)."""
        return TraceColumns(
            self.doc_ids,
            self.client_ids,
            self.methods,
            *(array[index] for array in self._arrays()),
        )

    def doc_id_list(self) -> list[str]:
        """The document id of every access, in row order."""
        return list(map(self.doc_ids.__getitem__, self.doc.tolist()))

    def client_id_list(self) -> list[str]:
        """The client id of every access, in row order."""
        return list(map(self.client_ids.__getitem__, self.client.tolist()))

    @classmethod
    def of_requests(cls, requests: Sequence[Request]) -> "TraceColumns":
        """Columns of request objects; ids are coded in first-seen order."""
        doc_ids, doc = _intern([r.doc_id for r in requests])
        client_ids, client = _intern([r.client for r in requests])
        methods, method = _intern([r.method for r in requests])
        n = len(requests)
        return cls(
            doc_ids,
            client_ids,
            methods,
            np.fromiter((r.timestamp for r in requests), np.float64, n),
            doc,
            client,
            np.fromiter((r.size for r in requests), np.int64, n),
            np.fromiter((r.remote for r in requests), bool, n),
            np.fromiter((r.status for r in requests), np.int64, n),
            method,
        )


def _first_seen(codes: np.ndarray, n_ids: int) -> np.ndarray:
    """The distinct values of a code column in order of first appearance."""
    first = np.full(n_ids, codes.size, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(codes.size, dtype=np.int64))
    present = np.flatnonzero(first < codes.size)
    return present[np.argsort(first[present])]


def _intern(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """``(table, codes)``: the distinct values in first-seen order, and
    each value's index in that table."""
    index = {value: code for code, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return tuple(index), codes


class TraceRequests(Sequence[Request]):
    """A trace's accesses as a read-only sequence of :class:`Request`.

    Reading an element builds the trace's request objects (once per
    trace).  ``Trace(trace.requests, documents)`` adopts the columns
    instead and builds nothing.
    """

    __slots__ = ("trace",)

    def __init__(self, trace: "Trace"):
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace)

    def __getitem__(self, index):
        return self.trace._materialized()[index]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.trace._materialized())


class Trace:
    """A time-ordered sequence of requests with a document catalog.

    The constructor validates ordering; use ``sort=True`` to accept
    unordered input (e.g. merged logs) and sort it on ingest.

    Args:
        requests: The access records, or another trace's
            :attr:`requests` view (whose columns are adopted as they are).
        documents: Catalog of documents.  Colliding ids keep the largest
            cataloged size; an entry smaller than a request for it, or a
            missing one, is synthesised from the largest size requested,
            so that real logs (which carry no catalog) still work.
        sort: Sort requests by timestamp instead of requiring order.
    """

    def __init__(
        self,
        requests: Iterable[Request],
        documents: Iterable[Document] = (),
        *,
        sort: bool = False,
    ):
        if isinstance(requests, TraceRequests):
            source = requests.trace
            self._adopt(source._columns, source._objects, documents)
        else:
            objects = list(requests)
            if sort:
                objects.sort(key=lambda r: r.timestamp)
            self._adopt(TraceColumns.of_requests(objects), objects, documents)

    @classmethod
    def from_columns(
        cls, columns: TraceColumns, documents: Iterable[Document] = ()
    ) -> "Trace":
        """A trace over time-ordered columns; ``documents`` as in the
        constructor.

        Raises:
            TraceFormatError: If the timestamps are out of order.
        """
        trace = cls.__new__(cls)
        trace._adopt(columns, None, documents)
        return trace

    def _adopt(
        self,
        columns: TraceColumns,
        objects: list[Request] | None,
        documents: Iterable[Document],
    ) -> None:
        times = columns.timestamp
        if np.any(times[1:] < times[:-1]):
            raise TraceFormatError(
                "requests out of order; pass sort=True to sort on ingest"
            )
        self._columns = columns
        self._objects = objects
        self._documents = _catalog(documents, columns)

    def _materialized(self) -> list[Request]:
        """The request objects, built on first use."""
        if self._objects is None:
            columns = self._columns
            self._objects = list(
                map(
                    Request,
                    columns.timestamp.tolist(),
                    columns.client_id_list(),
                    columns.doc_id_list(),
                    columns.size.tolist(),
                    columns.status.tolist(),
                    map(columns.methods.__getitem__, columns.method.tolist()),
                    columns.remote.tolist(),
                )
            )
        return self._objects

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._materialized())

    def __getitem__(self, index: int) -> Request:
        return self._materialized()[index]

    def __repr__(self) -> str:
        span = self.duration
        return (
            f"Trace({len(self)} requests, "
            f"{len(self._documents)} documents, {span:.0f}s span)"
        )

    # -- accessors -----------------------------------------------------------

    @property
    def columns(self) -> TraceColumns:
        """The accesses as columns (what the vectorized engines read)."""
        return self._columns

    @property
    def requests(self) -> TraceRequests:
        """The accesses as a read-only sequence of :class:`Request`."""
        return TraceRequests(self)

    @property
    def timestamps(self) -> np.ndarray:
        """Request timestamps in trace order (a read-only float64 column)."""
        return self._columns.timestamp

    @property
    def documents(self) -> dict[str, Document]:
        """Catalog mapping ``doc_id`` to :class:`Document`."""
        return self._documents

    @property
    def start_time(self) -> float:
        """Timestamp of the first request (0.0 for an empty trace)."""
        times = self._columns.timestamp
        return float(times[0]) if times.size else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last request (0.0 for an empty trace)."""
        times = self._columns.timestamp
        return float(times[-1]) if times.size else 0.0

    @property
    def duration(self) -> float:
        """Seconds between first and last request."""
        return self.end_time - self.start_time

    def clients(self) -> set[str]:
        """The set of distinct client identifiers."""
        columns = self._columns
        codes = _first_seen(columns.client, len(columns.client_ids))
        return set(map(columns.client_ids.__getitem__, codes.tolist()))

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
        return int(self._columns.size.sum())

    # -- derived traces -------------------------------------------------------

    def window(self, start: float, end: float) -> "Trace":
        """Return the sub-trace with ``start <= timestamp < end``.

        Uses binary search, so slicing a long trace into daily windows
        is cheap.  The catalog keeps this trace's entries for the
        documents the window's requests reference.
        """
        lo, hi = np.searchsorted(self._columns.timestamp, (start, end)).tolist()
        return self._subtrace(slice(lo, hi))

    def filter(self, predicate) -> "Trace":
        """Return a new trace keeping requests where ``predicate(r)`` holds."""
        keep = np.fromiter(map(predicate, self._materialized()), bool, len(self))
        return self._subtrace(keep)

    def remote_only(self) -> "Trace":
        """The sub-trace of remote accesses (section 2's focus)."""
        return self._subtrace(self._columns.remote)

    def _subtrace(self, rows: slice | np.ndarray) -> "Trace":
        """The sub-trace of ``rows`` (a slice or a boolean mask), without
        re-checking what this trace guarantees: order, and each
        document's largest size.  Built objects are shared."""
        trace = Trace.__new__(Trace)
        columns = trace._columns = self._columns.take(rows)
        objects = self._objects
        if objects is not None:
            if isinstance(rows, slice):
                objects = objects[rows]
            else:
                objects = list(itertools.compress(objects, rows.tolist()))
        trace._objects = objects
        catalog, doc_ids = self._documents, columns.doc_ids
        codes = _first_seen(columns.doc, len(doc_ids))
        trace._documents = {
            doc_ids[code]: catalog[doc_ids[code]] for code in codes.tolist()
        }
        return trace

    def by_client(self) -> dict[str, list[Request]]:
        """Group requests per client, preserving time order."""
        groups: dict[str, list[Request]] = {}
        for request in self._materialized():
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


def _catalog(
    documents: Iterable[Document], columns: TraceColumns
) -> dict[str, Document]:
    """The catalog rule: colliding ids keep the largest cataloged size
    (the rule :meth:`Trace.merge` documents, so merging traces and
    building one from concatenated catalogs agree); every requested
    document then gets at least its largest requested size, and missing
    ones are appended in first-request order."""
    catalog: dict[str, Document] = {}
    for document in documents:
        known = catalog.get(document.doc_id)
        if known is None or document.size > known.size:
            catalog[document.doc_id] = document
    doc_ids = columns.doc_ids
    codes = _first_seen(columns.doc, len(doc_ids))
    largest = np.zeros(len(doc_ids), dtype=np.int64)
    np.maximum.at(largest, columns.doc, columns.size)
    for code, size in zip(codes.tolist(), largest[codes].tolist()):
        doc_id = doc_ids[code]
        known = catalog.get(doc_id)
        if known is None:
            catalog[doc_id] = Document(doc_id=doc_id, size=size)
        elif size > known.size:
            catalog[doc_id] = dataclasses.replace(known, size=size)
    return catalog

"""Pure-list reference for :class:`repro.trace.records.Trace`.

A trace as a plain time-ordered list of :class:`Request` objects plus a
catalog dict — the container semantics restated with no columns, no
interning and no vectorization, so the property tests in
``tests/test_trace_columns.py`` compare the columnar implementation
against code it shares nothing with beyond the two record types.
"""

from __future__ import annotations

import bisect

from repro.errors import TraceFormatError
from repro.trace.records import Document, Request


class ReferenceTrace:
    """List-of-``Request`` trace with the documented catalog rules."""

    def __init__(self, requests, documents=(), *, sort=False):
        reqs = list(requests)
        if sort:
            reqs.sort(key=lambda r: r.timestamp)
        else:
            for earlier, later in zip(reqs, reqs[1:]):
                if later.timestamp < earlier.timestamp:
                    raise TraceFormatError("requests out of order")
        self.requests: list[Request] = reqs
        # Colliding catalog ids keep the largest size; then every
        # request raises its document to at least its own size.
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
        self.documents = catalog

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    @property
    def timestamps(self) -> list[float]:
        return [r.timestamp for r in self.requests]

    def clients(self) -> set[str]:
        return {r.client for r in self.requests}

    def total_bytes(self) -> int:
        return sum(r.size for r in self.requests)

    def _derived(self, subset: list[Request]) -> "ReferenceTrace":
        # A sub-trace keeps this catalog's entries for the documents
        # its requests reference, in first-request order.
        derived = ReferenceTrace.__new__(ReferenceTrace)
        derived.requests = subset
        derived.documents = {r.doc_id: self.documents[r.doc_id] for r in subset}
        return derived

    def window(self, start: float, end: float) -> "ReferenceTrace":
        times = self.timestamps
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end)
        return self._derived(self.requests[lo:hi])

    def filter(self, predicate) -> "ReferenceTrace":
        return self._derived([r for r in self.requests if predicate(r)])

    def remote_only(self) -> "ReferenceTrace":
        return self.filter(lambda r: r.remote)

    def by_client(self) -> dict[str, list[Request]]:
        groups: dict[str, list[Request]] = {}
        for request in self.requests:
            groups.setdefault(request.client, []).append(request)
        return groups

    @classmethod
    def merge(cls, traces) -> "ReferenceTrace":
        requests: list[Request] = []
        documents: list[Document] = []
        for trace in traces:
            requests.extend(trace.requests)
            documents.extend(trace.documents.values())
        return cls(requests, documents, sort=True)

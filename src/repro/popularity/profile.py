"""Per-document popularity statistics and the empirical coverage curve.

The dissemination model needs two log-derivable quantities per home
server (section 2.2): the serviced byte rate ``R`` and the coverage
function ``H(b)`` — the probability that a request can be served from
the most popular ``b`` bytes.  :class:`PopularityProfile` computes both
from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..trace.records import Trace


@dataclass(frozen=True, slots=True)
class DocumentStats:
    """Access statistics of one document.

    Attributes:
        doc_id: Document identifier.
        size: Size in bytes.
        requests: Total accesses.
        remote_requests: Accesses from outside the organisation.
        bytes_served: Total bytes delivered for this document.
        remote_bytes: Bytes delivered to remote clients.
    """

    doc_id: str
    size: int
    requests: int
    remote_requests: int
    bytes_served: int
    remote_bytes: int

    @property
    def local_requests(self) -> int:
        return self.requests - self.remote_requests

    @property
    def remote_ratio(self) -> float:
        """Remote-to-total access ratio (0.0 for never-accessed docs)."""
        return self.remote_requests / self.requests if self.requests else 0.0


class PopularityProfile:
    """Popularity statistics of every document in a trace.

    Build with :meth:`from_trace`; documents in the catalog that were
    never accessed get zero-count entries (the paper's "only 656 of
    2000+ files were remotely accessed" observation needs them).
    """

    def __init__(self, stats: dict[str, DocumentStats]):
        if not stats:
            raise ReproError("popularity profile needs at least one document")
        self._stats = dict(stats)

    @classmethod
    def from_trace(cls, trace: Trace) -> "PopularityProfile":
        """Count accesses per document over a trace (from its columns)."""
        columns = trace.columns
        # One slot per doc code, plus a last one that nothing counts into
        # for cataloged documents outside the id table.
        slots = len(columns.doc_ids) + 1
        doc, size, remote = columns.doc, columns.size, columns.remote

        def byte_totals(rows: np.ndarray, sizes: np.ndarray) -> list[int]:
            totals = np.zeros(slots, dtype=np.int64)
            np.add.at(totals, rows, sizes)
            return totals.tolist()

        requests = np.bincount(doc, minlength=slots).tolist()
        remote_requests = np.bincount(doc[remote], minlength=slots).tolist()
        bytes_served = byte_totals(doc, size)
        remote_bytes = byte_totals(doc[remote], size[remote])
        code = {doc_id: index for index, doc_id in enumerate(columns.doc_ids)}
        stats = {}
        for doc_id, document in trace.documents.items():
            index = code.get(doc_id, slots - 1)
            stats[doc_id] = DocumentStats(
                doc_id=doc_id,
                size=document.size,
                requests=requests[index],
                remote_requests=remote_requests[index],
                bytes_served=bytes_served[index],
                remote_bytes=remote_bytes[index],
            )
        return cls(stats)

    # -- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stats)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._stats

    def get(self, doc_id: str) -> DocumentStats:
        """Statistics of one document (raises on unknown ids)."""
        try:
            return self._stats[doc_id]
        except KeyError:
            raise ReproError(f"unknown document {doc_id!r}") from None

    def all_stats(self) -> list[DocumentStats]:
        """All documents' statistics (unordered)."""
        return list(self._stats.values())

    def accessed_count(self, *, remote_only: bool = False) -> int:
        """How many documents were accessed at least once."""
        if remote_only:
            return sum(1 for s in self._stats.values() if s.remote_requests)
        return sum(1 for s in self._stats.values() if s.requests)

    def total_requests(self, *, remote_only: bool = False) -> int:
        """Total accesses counted in the profile."""
        if remote_only:
            return sum(s.remote_requests for s in self._stats.values())
        return sum(s.requests for s in self._stats.values())

    def total_bytes_served(self, *, remote_only: bool = False) -> int:
        """The paper's ``R``: bytes served (optionally remote only)."""
        if remote_only:
            return sum(s.remote_bytes for s in self._stats.values())
        return sum(s.bytes_served for s in self._stats.values())

    # -- derived curves ----------------------------------------------------------

    def ranked(self, *, remote_only: bool = True) -> list[DocumentStats]:
        """Documents sorted by decreasing popularity.

        Popularity is measured in requests (remote requests when
        ``remote_only``); ties break by doc id for determinism.
        """
        key = (
            (lambda s: (-s.remote_requests, s.doc_id))
            if remote_only
            else (lambda s: (-s.requests, s.doc_id))
        )
        return sorted(self._stats.values(), key=key)

    def coverage_curve(
        self, *, remote_only: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The empirical coverage function ``H(b)``.

        Returns:
            ``(bytes, fraction)`` arrays: after disseminating the most
            popular documents totalling ``bytes[i]`` bytes, a fraction
            ``fraction[i]`` of (remote) requests hits the disseminated
            set.  Both arrays have one entry per document with at least
            one counted request, in decreasing popularity order, and the
            fractions are measured in **requests**, matching
            ``H_i(b)``'s definition as a request-hit probability.
        """
        ranked = self.ranked(remote_only=remote_only)
        counts = []
        sizes = []
        for stat in ranked:
            hits = stat.remote_requests if remote_only else stat.requests
            if hits <= 0:
                break
            counts.append(hits)
            sizes.append(stat.size)
        if not counts:
            return np.array([]), np.array([])
        cumulative_bytes = np.cumsum(np.array(sizes, dtype=np.float64))
        cumulative_hits = np.cumsum(np.array(counts, dtype=np.float64))
        return cumulative_bytes, cumulative_hits / cumulative_hits[-1]

    def hit_fraction(self, budget_bytes: float, *, remote_only: bool = True) -> float:
        """Empirical ``H(budget)``: request fraction covered by the most
        popular documents that fit in ``budget_bytes``.

        Documents are packed greedily in popularity order; a document
        that does not fit whole is skipped (documents are atomic).
        """
        if budget_bytes <= 0:
            return 0.0
        used = 0.0
        hits = 0
        total = 0
        for stat in self.ranked(remote_only=remote_only):
            count = stat.remote_requests if remote_only else stat.requests
            total += count
            if count > 0 and used + stat.size <= budget_bytes:
                used += stat.size
                hits += count
        return hits / total if total else 0.0

"""The vectorized engine behind :class:`DependencyModel`.

Two hot paths of the reproduction are vectorized here:

* **Pair counting** — :func:`estimate_pair_counts` replays the stride
  rule of :meth:`DependencyModel.estimate` over numpy arrays: one global
  pass builds per-client segments, stride ids, and candidate follower
  windows (binary search), then a key-based ``np.unique`` performs the
  per-occurrence dedup and the final ``(D_i, D_j)`` aggregation.
* **Closure batches** — :class:`SparseDependencyEngine` stores ``P`` as
  a CSR adjacency and computes many ``P*`` rows at once by hop-bounded
  relaxation in the max-product semiring (the truncated-Neumann form of
  the paper's ``P* = P^N`` under the best-chain reading; see
  ``dependency.py``).

Bit-exactness contract: both paths must reproduce the pure-Python
reference (``tests/oracles/dependency_reference.py``) *exactly*, not
approximately.  Pair counting produces whole numbers (exact in
float64).  The closure takes whatever counts it is given — whole from
:func:`estimate_pair_counts` and ``observe``, fractional once
:class:`~repro.speculation.aging.AgingDependencyCounter` has decayed
them — and never adds or rescales them: each probability is one
``count / base`` division of the caller's own floats, and closure
values chain the same IEEE-754 multiplications the reference relaxation
performs.  ``max`` and comparisons introduce no rounding, so equal
inputs give equal outputs.  The parity tests in
``tests/test_sparse_backend.py`` pin this contract, fractional counts
included.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from ..errors import DependencyModelError
from ..trace.records import Trace

#: Candidate (source, follower) pairs materialized per vectorized block;
#: bounds peak memory on dense windows (e.g. an infinite ``T_w``).
_BLOCK_PAIR_BUDGET = 4_000_000

#: Sources relaxed together by :meth:`SparseDependencyEngine.closure_rows`;
#: bounds its dense ``block × documents`` matrices for any batch size.
_CLOSURE_BLOCK = 64

def estimate_pair_counts(
    trace: Trace,
    *,
    window: float = 5.0,
    stride_timeout: float | None = None,
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Vectorized pair/occurrence counting (the ``estimate`` hot loop).

    Implements exactly the stride rule of
    :meth:`repro.speculation.dependency.DependencyModel.estimate`: for
    every request for ``D_i``, each *distinct* later document requested
    by the same client within ``window`` seconds and in the same
    traversal stride counts one ``(i, j)`` pair.

    Args:
        trace: The (training) trace.
        window: ``T_w`` in seconds.
        stride_timeout: ``StrideTimeout``; defaults to ``window``.

    Returns:
        ``(pair_counts, occurrence_counts)`` dicts, value-identical to
        the pure-Python counting loop.
    """
    if window <= 0:
        raise DependencyModelError("window must be positive")
    timeout = window if stride_timeout is None else stride_timeout
    n_requests = len(trace)
    if n_requests == 0:
        return {}, {}

    columns = trace.columns
    docs = columns.doc_ids
    n_docs = len(docs)

    # Regroup per client; the stable sort preserves the trace's time
    # order inside each client segment.
    order = np.argsort(columns.client, kind="stable")
    t = columns.timestamp[order]
    d = columns.doc[order]
    c = columns.client[order]

    occurrences = np.bincount(d, minlength=n_docs)

    # Stride boundaries, mirroring trace.sessions._split_by_gap: an
    # infinite timeout never splits inside a client, a non-positive one
    # always does, otherwise split where the gap reaches the timeout.
    new_run = np.ones(n_requests, dtype=bool)
    if n_requests > 1:
        same_client = c[1:] == c[:-1]
        if timeout <= 0:
            within = np.zeros(n_requests - 1, dtype=bool)
        elif math.isinf(timeout):
            within = same_client
        else:
            within = same_client & ((t[1:] - t[:-1]) < timeout)
        new_run[1:] = ~within
    stride_id = np.cumsum(new_run)

    # Candidate follower windows by binary search.  Each client segment
    # is shifted onto its own stretch of a sorted axis; the search bound
    # deliberately overshoots (slack ≫ rounding error of the shift), and
    # the exact mask below re-applies the reference float comparison
    # ``t[j] - t[i] <= window`` on the *original* timestamps, so the
    # accepted set is identical to the scalar loop's.
    t0 = t - float(t[0] if t.size else 0.0)
    t0 -= float(t0.min()) if t0.size else 0.0
    span = float(t0.max()) if t0.size else 0.0
    finite_window = window if not math.isinf(window) else span + 1.0
    step = span + finite_window + 2.0
    t_adj = t0 + c.astype(np.float64) * step
    bound = t_adj + finite_window
    bound += np.abs(bound) * 1e-9 + 1e-9
    j_end = np.searchsorted(t_adj, bound, side="right")
    j_begin = np.arange(n_requests, dtype=np.int64) + 1
    per_source = np.maximum(j_end - j_begin, 0)
    cumulative = np.concatenate(([0], np.cumsum(per_source)))

    pair_key_blocks: list[np.ndarray] = []
    start = 0
    while start < n_requests:
        stop = (
            int(
                np.searchsorted(
                    cumulative,
                    cumulative[start] + _BLOCK_PAIR_BUDGET,
                    side="right",
                )
            )
            - 1
        )
        stop = min(max(stop, start + 1), n_requests)
        counts = per_source[start:stop]
        total = int(counts.sum())
        if total:
            source_rep = np.repeat(
                np.arange(start, stop, dtype=np.int64), counts
            )
            offsets = np.cumsum(counts) - counts
            follower = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets, counts)
                + np.repeat(j_begin[start:stop], counts)
            )
            keep = (
                (stride_id[follower] == stride_id[source_rep])
                & ((t[follower] - t[source_rep]) <= window)
                & (d[follower] != d[source_rep])
            )
            # Dedup per source *occurrence* (the reference loop's `seen`
            # set) with a plain sort — faster than np.unique here —
            # then reduce occurrences to document pairs.
            occurrence_keys = np.sort(
                source_rep[keep] * n_docs + d[follower[keep]]
            )
            if occurrence_keys.size:
                fresh = np.ones(occurrence_keys.size, dtype=bool)
                fresh[1:] = occurrence_keys[1:] != occurrence_keys[:-1]
                occurrence_keys = occurrence_keys[fresh]
                pair_key_blocks.append(
                    d[occurrence_keys // n_docs] * n_docs
                    + occurrence_keys % n_docs
                )
        start = stop

    pair_counts: dict[str, dict[str, float]] = {}
    if pair_key_blocks:
        pair_keys = np.concatenate(pair_key_blocks)
        if n_docs * n_docs <= 1 << 24:
            totals = np.bincount(pair_keys, minlength=n_docs * n_docs)
            unique_pairs = np.nonzero(totals)[0]
            pair_totals = totals[unique_pairs]
        else:  # huge catalogs: avoid the quadratic bincount table
            unique_pairs, pair_totals = np.unique(
                pair_keys, return_counts=True
            )
        # unique_pairs is sorted, so each source's targets form one
        # contiguous slice — build each row dict in a single zip.
        source_codes = unique_pairs // n_docs
        target_list = (unique_pairs % n_docs).tolist()
        count_list = pair_totals.astype(np.float64).tolist()
        breaks = np.nonzero(source_codes[1:] != source_codes[:-1])[0] + 1
        row_starts = np.concatenate(([0], breaks)).tolist()
        row_ends = np.concatenate((breaks, [source_codes.size])).tolist()
        for row_start, row_end in zip(row_starts, row_ends):
            pair_counts[docs[int(source_codes[row_start])]] = {
                docs[code]: count
                for code, count in zip(
                    target_list[row_start:row_end],
                    count_list[row_start:row_end],
                )
            }
    occurrence_counts = {
        docs[code]: float(count)
        for code, count in enumerate(occurrences.tolist())
        if count
    }
    return pair_counts, occurrence_counts


class SparseDependencyEngine:
    """CSR form of ``P`` with batched ``P*`` rows (max-product closure).

    Built once from a model's raw counts; immutable afterwards (the
    owning :class:`DependencyModel` rebuilds it when ``observe`` dirties
    the counts).  Documents are indexed in sorted order so the layout —
    and therefore every computed value — is a pure function of the
    counts.

    Args:
        pair_counts: ``source -> target -> count`` raw pair counts.
        occurrences: ``doc -> occurrence count`` (row normalizers).
    """

    __slots__ = ("_docs", "_index", "_indptr", "_indices", "_probs")

    def __init__(
        self,
        pair_counts: Mapping[str, Mapping[str, float]],
        occurrences: Mapping[str, float],
    ) -> None:
        universe: set[str] = set(occurrences)
        for source, row in pair_counts.items():
            universe.add(source)
            universe.update(row)
        self._docs: list[str] = sorted(universe)
        self._index: dict[str, int] = {
            doc: code for code, doc in enumerate(self._docs)
        }
        indptr = np.zeros(len(self._docs) + 1, dtype=np.int64)
        columns: list[int] = []
        probabilities: list[float] = []
        for code, doc in enumerate(self._docs):
            base = occurrences.get(doc, 0.0)
            row = pair_counts.get(doc)
            if base > 0 and row:
                for target, count in row.items():
                    if count > 0:
                        columns.append(self._index[target])
                        # The same float division successors() and
                        # the reference perform — bit-identical edges.
                        probabilities.append(count / base)
            indptr[code + 1] = len(columns)
        self._indptr = indptr
        self._indices = np.asarray(columns, dtype=np.int64)
        self._probs = np.asarray(probabilities, dtype=np.float64)

    @property
    def n_documents(self) -> int:
        return len(self._docs)

    @property
    def n_edges(self) -> int:
        return int(self._indices.size)

    def closure_rows(
        self,
        sources: Iterable[str],
        *,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ) -> list[dict[str, float]]:
        """Batched ``P*`` rows for many sources at once.

        Level-synchronous relaxation: level ``h`` holds the best chain
        products over at most ``h`` hops; only entries that improved in
        a level propagate in the next.  Every arithmetic step mirrors
        the reference relaxation (same multiplies, same
        ``>= min_probability`` prune before the clamp to 1.0, same
        strict-improvement test), so the two return identical floats.
        Sources are relaxed in blocks of ``_CLOSURE_BLOCK``; rows are
        independent, so the blocking never changes a value.

        Args:
            sources: Source documents (unknown ids yield empty rows).
            min_probability: Chains below this probability are pruned.
            max_hops: Maximum chain length.

        Returns:
            One ``target -> p*`` dict per source, in input order, the
            source itself excluded.
        """
        source_list = list(sources)
        rows: list[dict[str, float]] = [{} for _ in source_list]
        if not source_list or not self._docs or self._indices.size == 0:
            return rows
        src_idx = np.array(
            [self._index.get(source, -1) for source in source_list],
            dtype=np.int64,
        )
        known = np.flatnonzero(src_idx >= 0)
        for start in range(0, known.size, _CLOSURE_BLOCK):
            block = known[start : start + _CLOSURE_BLOCK]
            codes = src_idx[block]
            best = self._relax(codes, min_probability, max_hops)
            best[np.arange(codes.size), codes] = 0.0  # the source itself
            owner, target = np.nonzero(best)  # row-major: grouped by owner
            names = list(map(self._docs.__getitem__, target.tolist()))
            values = best[owner, target].tolist()
            bounds = np.searchsorted(owner, np.arange(codes.size + 1)).tolist()
            for k, lo, hi in zip(block.tolist(), bounds, bounds[1:]):
                rows[k] = dict(zip(names[lo:hi], values[lo:hi]))
        return rows

    def _relax(self, codes: np.ndarray, min_probability: float, max_hops: int):
        """Best chain products from each source code to every document."""
        n = len(self._docs)
        sources = np.arange(codes.size)
        best = np.zeros((codes.size, n), dtype=np.float64)
        best[sources, codes] = 1.0
        frontier = np.zeros((codes.size, n), dtype=bool)
        frontier[sources, codes] = True
        flat = best.reshape(-1)
        previous = np.empty_like(best)
        indptr, indices, probs = self._indptr, self._indices, self._probs

        for _ in range(max_hops):
            s_front, u_front = np.nonzero(frontier)
            if s_front.size == 0:
                break
            row_start = indptr[u_front]
            row_len = indptr[u_front + 1] - row_start
            total = int(row_len.sum())
            if total == 0:
                break
            offsets = np.cumsum(row_len) - row_len
            position = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets, row_len)
                + np.repeat(row_start, row_len)
            )
            chained = np.repeat(best[s_front, u_front], row_len) * probs[position]
            keep = chained >= min_probability
            if not keep.any():
                break
            chained = np.minimum(chained[keep], 1.0)
            targets = (
                np.repeat(s_front, row_len)[keep] * n + indices[position[keep]]
            )
            np.copyto(previous, best)
            np.maximum.at(flat, targets, chained)
            np.greater(best, previous, out=frontier)
        return best

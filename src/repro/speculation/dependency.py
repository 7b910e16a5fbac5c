"""Document access interdependencies: the ``P`` matrix and closure ``P*``.

Section 3.1 defines ``p[i, j]`` as the conditional probability that
document ``D_j`` is requested within a window ``T_w`` of a request for
``D_i``.  Estimation follows the paper's stride rule: two requests from
the same client within ``StrideTimeout`` seconds are *dependent*, so
counting is confined to traversal strides.

The closure is written ``P* = P^N`` in the paper — the probability of a
*sequence* of requests leading from ``D_i`` to ``D_j`` with every gap at
most ``T_w``.  ``P`` is not a stochastic matrix (rows need not sum
to 1), so a literal matrix power has no probabilistic reading and is
O(N⁴) besides.  This implementation realizes the stated semantics as the
**best-path product**: ``p*[i, j]`` is the maximum over request chains
``i → … → j`` of the product of the per-hop conditional probabilities,
computed by hop-bounded relaxation in the max-product semiring — the
truncated-Neumann form of ``P^N``, run for ``max_hops`` levels with
chains pruned below ``min_probability`` (and ``p*[i, j] >= p[i, j]``
always, with equality on direct links).  The substitution is recorded
in DESIGN.md.

Counting and closure both run through one vectorized engine
(:mod:`repro.speculation.sparse`: numpy pair counting, CSR adjacency,
batched relaxation).  The pure-Python counting loop and relaxation the
engine was derived from live on as the test oracle
(``tests/oracles/dependency_reference.py``); the engine must equal it
with ``==`` — every probability is the same ``count / base`` division
and the relaxations chain the same IEEE-754 multiplications.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import DependencyModelError
from ..trace.records import Trace
from .sparse import SparseDependencyEngine, estimate_pair_counts


@dataclass(slots=True)
class _OpenOccurrence:
    """One not-yet-expired source occurrence inside an open stride."""

    timestamp: float
    doc_id: str
    #: Distinct followers already counted for this occurrence.
    seen: set[str] = field(default_factory=set)


@dataclass(slots=True)
class _OpenStride:
    """Per-client state of the traversal stride currently being built."""

    last_time: float | None = None
    #: Occurrences still young enough (within ``T_w``) to gain followers,
    #: in timestamp order.
    entries: deque[_OpenOccurrence] = field(default_factory=deque)


@dataclass(frozen=True)
class PairHistogram:
    """Histogram of ``(D_i, D_j)`` pair counts by probability range.

    This is the paper's Figure 4: the number of document pairs whose
    ``p[i, j]`` falls in each bin.  With link anchors followed uniformly
    the mass piles up near ``1/k`` for small integers ``k``, and the
    rightmost bin collects the embedding dependencies (``p ≈ 1``).
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.bin_edges) - 1:
            raise DependencyModelError("counts must have one entry per bin")

    @property
    def total_pairs(self) -> int:
        return sum(self.counts)

    def fraction_in_bin(self, index: int) -> float:
        """Share of all pairs falling in one probability bin.

        Raises:
            IndexError: If ``index`` is not a valid bin index (negative
                indices do not wrap).
        """
        if not 0 <= index < len(self.counts):
            raise IndexError(
                f"bin index {index} out of range; "
                f"valid bins are 0..{len(self.counts) - 1}"
            )
        return self.counts[index] / self.total_pairs if self.total_pairs else 0.0


class DependencyModel:
    """The estimated ``P`` matrix with on-demand ``P*`` closure rows.

    Build with :meth:`estimate` (from a trace), :meth:`from_counts`
    (from raw pair/occurrence counts, as the aging machinery does), or
    :meth:`incremental` (empty, fed one live request at a time through
    :meth:`observe` — the runtime's in-band estimation path).
    """

    def __init__(
        self,
        pair_counts: dict[str, dict[str, float]],
        occurrences: dict[str, float],
        *,
        window: float = 5.0,
        stride_timeout: float | None = None,
        validate: bool = True,
    ):
        if window <= 0:
            raise DependencyModelError("window must be positive")
        if validate:
            for source, row in pair_counts.items():
                base = occurrences.get(source, 0.0)
                if base <= 0 and row:
                    raise DependencyModelError(
                        f"pairs recorded for {source!r} with no occurrences"
                    )
                for target, count in row.items():
                    if count < 0:
                        raise DependencyModelError("negative pair count")
                    if count > base * (1 + 1e-9):
                        raise DependencyModelError(
                            f"pair count for ({source!r}, {target!r}) "
                            "exceeds source occurrences"
                        )
        self._pairs = {s: dict(row) for s, row in pair_counts.items()}
        self._occurrences = dict(occurrences)
        self._closure_cache: dict[tuple[str, float, int], dict[str, float]] = {}
        self._window = window
        self._stride_timeout = window if stride_timeout is None else stride_timeout
        self._strides: dict[str, _OpenStride] = {}
        #: Documents whose row of ``P`` (outgoing probabilities) changed
        #: since the last closure refresh; drives the fine-grained cache
        #: invalidation in :meth:`refresh_closure`.
        self._dirty: set[str] = set()
        self._engine: SparseDependencyEngine | None = None
        #: Monotone mutation counter; bumped by :meth:`observe` and by
        #: a :meth:`refresh_closure` that flushes rows, so derived
        #: caches (rider tables, the columnar replay's push tables) can
        #: key on ``(model, version)`` and never serve riders the model
        #: would no longer return.
        self._version = 0

    # -- estimation --------------------------------------------------------------

    @classmethod
    def estimate(
        cls,
        trace: Trace,
        *,
        window: float = 5.0,
        stride_timeout: float | None = None,
    ) -> "DependencyModel":
        """Estimate ``P`` from a trace.

        For every request for ``D_i`` at time ``t``, each *distinct*
        later document requested by the same client in ``(t, t + window]``
        and in the same traversal stride counts one ``(i, j)`` pair
        (repeats of ``D_j`` inside one window count once, mirroring the
        conditional-probability definition).

        Args:
            trace: The (training) trace.
            window: ``T_w`` in seconds (paper: 5 s).
            stride_timeout: ``StrideTimeout``; defaults to ``window``,
                the paper's baseline coupling.
        """
        counted_pairs, counted_occurrences = estimate_pair_counts(
            trace, window=window, stride_timeout=stride_timeout
        )
        return cls(
            counted_pairs,
            counted_occurrences,
            window=window,
            stride_timeout=stride_timeout,
            # Counts are correct by construction (and parity-tested
            # against the reference loop), so skip re-validation.
            validate=False,
        )

    @classmethod
    def incremental(
        cls,
        *,
        window: float = 5.0,
        stride_timeout: float | None = None,
    ) -> "DependencyModel":
        """An empty model ready for online :meth:`observe` updates.

        The runtime's origin server estimates ``P`` in-band from the
        live request stream; feeding the same requests (in per-client
        timestamp order) through :meth:`observe` yields counts identical
        to :meth:`estimate` over the equivalent trace.
        """
        return cls({}, {}, window=window, stride_timeout=stride_timeout)

    @classmethod
    def from_counts(
        cls,
        pair_counts: dict[str, dict[str, float]],
        occurrences: dict[str, float],
    ) -> "DependencyModel":
        """Wrap precomputed counts (used by aging / merging)."""
        return cls(pair_counts, occurrences)

    # -- incremental estimation ---------------------------------------------------

    def observe(self, client: str, doc_id: str, timestamp: float) -> None:
        """Fold one live request into the pair/occurrence counts.

        Implements the same stride rule as :meth:`estimate`, one request
        at a time: a gap of at least ``StrideTimeout`` since the
        client's previous request opens a new traversal stride, and the
        new request counts one ``(i, j)`` pair for every open source
        occurrence within ``T_w`` that has not already seen ``D_j``.

        Updating the counts does **not** invalidate memoized closure
        rows — the paper re-derives ``P*`` on its UpdateCycle, not per
        request.  Call :meth:`refresh_closure` on whatever cadence the
        caller's update cycle dictates; direct reads (:meth:`p`,
        :meth:`successors`) always see the live counts.

        Raises:
            DependencyModelError: On an empty client/document id, or a
                client whose timestamps run backwards.
        """
        if not client or not doc_id:
            raise DependencyModelError("client and doc_id must be non-empty")
        state = self._strides.get(client)
        if state is None:
            state = _OpenStride()
            self._strides[client] = state
        if state.last_time is not None:
            gap = timestamp - state.last_time
            if gap < 0:
                raise DependencyModelError(
                    f"client {client!r} requests out of order"
                )
            # Mirror trace.sessions._split_by_gap: an infinite timeout
            # never splits, a non-positive one always does.
            if self._stride_timeout <= 0 or (
                not math.isinf(self._stride_timeout)
                and gap >= self._stride_timeout
            ):
                state.entries.clear()
        state.last_time = timestamp

        self._occurrences[doc_id] = self._occurrences.get(doc_id, 0.0) + 1.0
        # The occurrence base dilutes every outgoing probability of
        # doc_id, so its row of P is dirty even if no pair changes.
        self._dirty.add(doc_id)
        entries = state.entries
        while entries and timestamp - entries[0].timestamp > self._window:
            entries.popleft()  # too old to gain any further followers
        for occurrence in entries:
            if occurrence.doc_id == doc_id or doc_id in occurrence.seen:
                continue
            occurrence.seen.add(doc_id)
            row = self._pairs.setdefault(occurrence.doc_id, {})
            row[doc_id] = row.get(doc_id, 0.0) + 1.0
            self._dirty.add(occurrence.doc_id)
        entries.append(_OpenOccurrence(timestamp=timestamp, doc_id=doc_id))
        self._engine = None  # counts changed; rebuild lazily on next miss
        self._version += 1

    def refresh_closure(
        self,
        sources: Iterable[str] | None = None,
        *,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ) -> int:
        """Drop stale memoized ``P*`` rows and optionally precompute.

        Invalidation is fine-grained: only rows that the observations
        since the last refresh can actually have changed are dropped.
        A cached row for source ``i`` is stale iff some dirty document
        is ``i`` itself or appears in the row: edges never exceed 1, so
        every intermediate node of a surviving chain carries a prefix
        product at or above the row's pruning floor and is therefore
        *in* the row — any new or re-weighted chain must pass through
        ``i`` or a node the old row already contains.

        Args:
            sources: Documents whose closure rows to precompute after
                the flush (e.g. the currently hot sources); ``None``
                leaves recomputation lazy.
            min_probability: Pruning floor for precomputed rows.
            max_hops: Chain-length cap for precomputed rows.

        Returns:
            Number of closure rows precomputed.
        """
        if self._dirty:
            dirty = self._dirty
            stale = [
                key
                for key, row in self._closure_cache.items()
                if key[0] in dirty or not dirty.isdisjoint(row)
            ]
            for key in stale:
                del self._closure_cache[key]
            self._dirty = set()
            self._version += 1  # rows read from now on may differ
        wanted = list(sources or ())
        if wanted:
            self.closure_rows(
                wanted, min_probability=min_probability, max_hops=max_hops
            )
        return len(wanted)

    # -- raw access --------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: increments whenever :meth:`observe` changes
        the counts or :meth:`refresh_closure` flushes their stale rows.
        Derived caches key on it to stay coherent."""
        return self._version

    @property
    def pair_counts(self) -> dict[str, dict[str, float]]:
        """Raw pair counts (copies; safe to mutate)."""
        return {s: dict(row) for s, row in self._pairs.items()}

    @property
    def occurrence_counts(self) -> dict[str, float]:
        return dict(self._occurrences)

    def documents(self) -> set[str]:
        """All documents seen as a source or target."""
        docs = set(self._occurrences)
        for row in self._pairs.values():
            docs.update(row)
        return docs

    # -- probabilities ------------------------------------------------------------

    def p(self, source: str, target: str) -> float:
        """Direct conditional probability ``p[i, j]``."""
        base = self._occurrences.get(source, 0.0)
        if base <= 0:
            return 0.0
        return self._pairs.get(source, {}).get(target, 0.0) / base

    def successors(self, source: str) -> dict[str, float]:
        """The non-zero entries of row ``i`` of ``P``."""
        base = self._occurrences.get(source, 0.0)
        if base <= 0:
            return {}
        return {
            target: count / base
            for target, count in self._pairs.get(source, {}).items()
            if count > 0
        }

    def _sparse_engine(self) -> SparseDependencyEngine:
        if self._engine is None:
            self._engine = SparseDependencyEngine(self._pairs, self._occurrences)
        return self._engine

    def closure_row(
        self,
        source: str,
        *,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ) -> dict[str, float]:
        """Row ``i`` of ``P*``: best-chain probability to every target.

        Computed by hop-bounded relaxation in the max-product semiring,
        pruning chains whose product falls below ``min_probability`` or
        longer than ``max_hops`` hops.  Results are memoized per
        (source, pruning) triple.

        Args:
            source: The requested document ``D_i``.
            min_probability: Chains below this probability are pruned.
            max_hops: Maximum chain length.

        Returns:
            Mapping target → ``p*[i, target]`` (source excluded).
        """
        if not 0.0 < min_probability <= 1.0:
            raise DependencyModelError("min_probability must be in (0, 1]")
        if max_hops < 1:
            raise DependencyModelError("max_hops must be >= 1")
        key = (source, min_probability, max_hops)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return dict(cached)
        row = self._sparse_engine().closure_rows(
            [source], min_probability=min_probability, max_hops=max_hops
        )[0]
        self._closure_cache[key] = row
        return dict(row)

    def closure_rows(
        self,
        sources: Iterable[str],
        *,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ) -> dict[str, dict[str, float]]:
        """Many ``P*`` rows at once (the batched form of
        :meth:`closure_row`).

        All cache-missing sources are computed in one vectorized batch
        and land in the same memoization cache.

        Returns:
            Mapping source → closure row (duplicates collapse).
        """
        if not 0.0 < min_probability <= 1.0:
            raise DependencyModelError("min_probability must be in (0, 1]")
        if max_hops < 1:
            raise DependencyModelError("max_hops must be >= 1")
        wanted = list(dict.fromkeys(sources))
        result: dict[str, dict[str, float]] = {}
        missing: list[str] = []
        for source in wanted:
            cached = self._closure_cache.get((source, min_probability, max_hops))
            if cached is not None:
                result[source] = dict(cached)
            else:
                missing.append(source)
        if missing:
            computed = self._sparse_engine().closure_rows(
                missing, min_probability=min_probability, max_hops=max_hops
            )
            for source, row in zip(missing, computed):
                self._closure_cache[(source, min_probability, max_hops)] = row
                result[source] = dict(row)
        return result

    def p_star(
        self,
        source: str,
        target: str,
        *,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ) -> float:
        """``p*[i, j]`` under the same pruning as :meth:`closure_row`."""
        return self.closure_row(
            source, min_probability=min_probability, max_hops=max_hops
        ).get(target, 0.0)

    # -- analyses -----------------------------------------------------------------

    def pair_histogram(self, n_bins: int = 20) -> PairHistogram:
        """Figure 4: histogram of pair counts over ``p[i, j]`` ranges.

        ``n_bins`` is clamped to at least one bin, so degenerate
        requests collapse to a single [0, 1] bucket instead of failing.
        """
        n_bins = max(1, n_bins)
        edges = [k / n_bins for k in range(n_bins + 1)]
        counts = [0] * n_bins
        for source, row in self._pairs.items():
            base = self._occurrences.get(source, 0.0)
            if base <= 0:
                continue
            for count in row.values():
                # A pair cannot co-occur more often than its source
                # occurs, but clamp so the histogram stays in-range
                # even if counters are perturbed by aging.
                probability = min(1.0, count / base)
                if probability <= 0:
                    continue
                index = min(int(probability * n_bins), n_bins - 1)
                counts[index] += 1
        return PairHistogram(bin_edges=tuple(edges), counts=tuple(counts))

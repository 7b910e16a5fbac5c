"""Columnar (vectorized) replay of the speculative-service simulator.

The event loop in :mod:`repro.speculation.simulator` walks the trace one
request at a time.  This module replays the *same* semantics over numpy
column arrays — timestamps, client codes, document codes, sizes — in a
handful of vectorized passes:

1. **Sessions.**  A stable sort by client groups each client's requests
   contiguously (preserving time order); session boundaries fall where a
   client changes or an inter-request gap reaches ``SessionTimeout``.
   Session caches are cleared at boundaries, so hit/miss resolution is
   independent across sessions.  Everything that does not depend on
   ``T_p`` — the client-sorted order, the first-occurrence tables, each
   first occurrence's rank in its session, and the merge keys of step
   4 — depends only on ``(trace, SessionTimeout)`` and is memoized per
   trace.
2. **Hit/miss fixpoint.**  Within a session, a document is cached from
   its first event (demand request or speculative push) onward.  Only
   the *first* request of each ``(session, document)`` pair can miss,
   and only documents that appear in some push list can be covered
   before their first request — every other first occurrence misses
   outright.  Sessions are replayed in blocks of ``_SESSION_BLOCK``:
   each block expands its first occurrences' push lists once and looks
   every push's target up among the session's first occurrences, a few
   hundred sessions at a time in a dense lookup window that lives only
   as long as the replay.  The *pushable* first occurrences are then
   decided once each, in rank order within their session: round ``k``
   decides every session's ``k``-th pushable occurrence (a hit iff an
   earlier miss pushed its document), and only the pushes of the
   round's new misses are scattered.
3. **Counters.**  All byte counters are exact integer sums.
   ``service_time`` accumulates ``ServCost + CommCost × size`` over the
   misses *in original trace order* via ``np.add.accumulate`` — a
   strict left fold, bit-identical to the event loop's running ``+=``.
4. **Wasted bytes.**  Every pushed byte is wasted except a push whose
   pending entry a cache hit consumes.  A push that lands ahead of its
   target's first request in the session is consumed by that request,
   a *covered* hit.  A push to a document the session never requests
   stays pending until a later session of the client: per block, one
   sort of single int64 keys — ``(client, document)`` pair, position,
   event kind — merges those pushes with the covered hits and with the
   second request of each missed document, and such a push is consumed
   iff its successor in that order is a second request, the event
   loop's pending-dict semantics.  Pending pushes outlive sessions, so
   a client's pushes still pending at a block's end carry into the
   next block.

Bit-exactness contract: for every configuration this engine covers the
returned metrics equal the event loop's **exactly** (``==`` on every
counter, including the float ``service_time``), pinned by
``tests/test_columnar_replay.py``.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..config import BaselineConfig
from ..trace.records import Trace, TraceColumns
from .dependency import DependencyModel
from .metrics import SpeculationMetrics
from .policies import ThresholdPolicy
from .riders import Ranked, pruning, rank_sources

#: Sessions replayed per block.  A block's push events are the replay's
#: working set, so the block size bounds its memory whatever the trace's
#: length.
_SESSION_BLOCK = 4096

#: Cells of the dense lookup window that maps a block's pushes to their
#: targets' first occurrences (int32, so 1 MiB), a few hundred sessions
#: at a time; allocated per replay and freed on return.
_LOOKUP_CELLS = 1 << 18

#: Event kinds in the pending-push merge (the low two key bits).
_REPEAT, _COVERED, _PUSH = 0, 1, 2

#: Per-trace session tables, keyed by ``SessionTimeout`` inside the
#: weak entry — sweeps and benchmark repeats reuse them across runs.
_trace_sessions: "weakref.WeakKeyDictionary[Trace, dict[float, _SessionTables]]" = (
    weakref.WeakKeyDictionary()
)

#: Per-trace, per-model memoized push tables and ranked rider tables.
#: The inner keys pin the policy (frozen dataclass) or its pruning, the
#: MaxSize caps, and the model's mutation counter, so an ``observe`` (or
#: a flushing ``refresh_closure``) on the model invalidates every entry.
_trace_pushes: "weakref.WeakKeyDictionary[Trace, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class ColumnarReplay:
    """Result of one columnar replay.

    Attributes:
        metrics: Raw totals, field-for-field equal to the event loop's.
        accesses: Requests replayed.
        cache_hits: Requests satisfied by the client session cache.
    """

    metrics: SpeculationMetrics
    accesses: int
    cache_hits: int


@dataclass(frozen=True)
class _SessionTables:
    """Client-sorted columns and session structure for one timeout.

    ``order`` maps sorted positions back to original trace indices;
    documents are coded by their index into ``docs``, the requested
    documents (:func:`_requested`); ``session_client`` is each session's
    client code, non-decreasing.  ``key_base`` exceeds every document
    code, push-only codes included.  ``fo_*`` list the first
    occurrences — the first request of each ``(session, document)``
    pair — in position order, ``fo_rank`` being each one's rank among
    its session's and ``fo_later`` whether its client has a later
    session.  The ``*_key`` arrays are each first occurrence's
    keys in the pending-push merge (:func:`_used_bytes`): a
    ``(client, document)`` pair shifted left by ``key_shift`` bits,
    then ``4 × position`` plus an event kind.
    """

    docs: list[str]
    order: np.ndarray
    session_client: np.ndarray
    n_sessions: int
    key_base: int
    fo_pos: np.ndarray
    fo_sess: np.ndarray
    fo_doc: np.ndarray
    fo_rank: np.ndarray
    fo_later: np.ndarray
    push_key: np.ndarray
    cover_key: np.ndarray
    repeat_key: np.ndarray
    key_shift: int


def _requested(columns: TraceColumns) -> tuple[list[str], np.ndarray]:
    """The replay's document coding: the documents the trace requests,
    in id-table order, and each request's index into them.

    A window shares its parent's id table; coding only what it requests
    keeps the code universe — and the replay's pair lookup — at the
    window's own size.
    """
    present = np.bincount(columns.doc, minlength=len(columns.doc_ids)) > 0
    docs = list(map(columns.doc_ids.__getitem__, np.flatnonzero(present).tolist()))
    return docs, (np.cumsum(present) - 1)[columns.doc]


def _session_tables(trace: Trace, timeout: float) -> _SessionTables:
    """Build (or fetch) the session tables for ``(trace, timeout)``."""
    per_trace = _trace_sessions.get(trace)
    if per_trace is None:
        per_trace = {}
        _trace_sessions[trace] = per_trace
    cached = per_trace.get(timeout)
    if cached is not None:
        return cached

    columns = trace.columns
    docs, doc_codes = _requested(columns)
    n = len(trace)
    order = np.argsort(columns.client, kind="stable")
    t = columns.timestamp[order]
    d = doc_codes[order]
    c = columns.client[order]
    boundary = np.ones(n, dtype=bool)
    if n > 1:
        same_client = c[1:] == c[:-1]
        if math.isinf(timeout):
            boundary[1:] = ~same_client
        else:
            boundary[1:] = ~(same_client & ((t[1:] - t[:-1]) < timeout))
    session = np.cumsum(boundary) - 1
    session_client = c[np.flatnonzero(boundary)]
    later = np.append(session_client[1:] == session_client[:-1], False)
    # Any push target lives in the catalog, so catalog size bounds the
    # whole code universe — the keys stay valid for every policy.
    key_base = len(trace.documents) + 1
    key_shift = (4 * n).bit_length()
    if (len(columns.client_ids) * key_base).bit_length() + key_shift > 63:
        raise OverflowError("trace too large for the columnar merge keys")

    # Each (session, document) pair's requests, in position order: the
    # first is the pair's first occurrence, the second a sure cache hit.
    session_doc = session * np.int64(key_base) + d
    by_pair = np.argsort(session_doc, kind="stable")
    grouped = session_doc[by_pair]
    heads = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    repeats = heads[np.diff(np.append(heads, n)) > 1]
    second = np.full(n, -1)
    second[by_pair[repeats]] = by_pair[repeats + 1]
    fo_pos = np.sort(by_pair[heads])
    second = second[fo_pos]
    fo_sess = session[fo_pos]
    fo_doc = d[fo_pos]
    owner = (c[fo_pos] * np.int64(key_base)) << key_shift
    pair = owner + (fo_doc << key_shift)
    tables = _SessionTables(
        docs=docs,
        order=order,
        session_client=session_client,
        n_sessions=session_client.size,
        key_base=key_base,
        fo_pos=fo_pos,
        fo_sess=fo_sess,
        fo_doc=fo_doc,
        fo_rank=np.arange(fo_pos.size) - np.searchsorted(fo_sess, fo_sess),
        fo_later=later[fo_sess],
        push_key=owner + (fo_pos << 2) + _PUSH,
        cover_key=pair + (fo_pos << 2) + _COVERED,
        repeat_key=np.where(second >= 0, pair + (second << 2) + _REPEAT, -1),
        key_shift=key_shift,
    )
    per_trace[timeout] = tables
    return tables


@dataclass(frozen=True)
class _PushTables:
    """CSR push lists per demanded document code.

    ``targets`` are codes in a universe that extends the requested
    documents with push-only catalog documents; ``target_sizes`` holds
    one catalog size per target code (pushes always ship the cataloged
    size, which may differ from a request's logged size).
    """

    universe: int
    indptr: np.ndarray
    targets: np.ndarray
    lengths: np.ndarray
    byte_sums: np.ndarray
    target_sizes: np.ndarray


def _cut_push_tables(cut: Ranked, docs: list[str]) -> _PushTables:
    """CSR push tables from ranked riders cut at ``T_p``.

    Rider codes are the trace's document codes; push-only catalog
    documents are numbered densely after ``docs``, in ``doc_id`` order.
    """
    n_docs = len(docs)
    index = {doc: code for code, doc in enumerate(docs)}
    name_codes = np.array([index.get(name, -1) for name in cut.names], np.int64)
    targets = name_codes[cut.target]
    extra = targets < 0
    used = np.unique(cut.target[extra])
    targets[extra] = n_docs + np.searchsorted(used, cut.target[extra])
    universe = n_docs + used.size
    lengths = np.bincount(cut.row, minlength=n_docs)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    running = np.concatenate(([0], np.cumsum(cut.size)))
    target_sizes = np.zeros(universe, dtype=np.int64)
    target_sizes[targets] = cut.size
    return _PushTables(
        universe=universe,
        indptr=indptr,
        targets=targets,
        lengths=lengths,
        byte_sums=running[indptr[1:]] - running[indptr[:-1]],
        target_sizes=target_sizes,
    )


def _push_tables(
    trace: Trace,
    docs: list[str],
    policy: ThresholdPolicy,
    model: DependencyModel,
    max_size: float,
) -> _PushTables:
    """Memoized push tables: rebuilt only when the model's rows move.

    Keyed by the trace and model (weak keys), the model's ``version``,
    the frozen policy and the ``MaxSize`` cap.  They are a ``T_p`` cut
    of one :func:`~repro.speculation.riders.rank_sources` table over
    ``docs`` (the documents the trace requests), memoized per
    :func:`~repro.speculation.riders.pruning`, so a sweep ranks once
    and calls no ``select``.
    """
    per_trace = _trace_pushes.get(trace)
    if per_trace is None:
        per_trace = weakref.WeakKeyDictionary()
        _trace_pushes[trace] = per_trace
    per_model = per_trace.get(model)
    if per_model is None:
        per_model = {}
        per_trace[model] = per_model
    version = getattr(model, "version", None)

    def memo(key: tuple, build):
        entry = per_model.get(key)
        if entry is not None and entry[0] == version and version is not None:
            return entry[1]
        value = build()
        if version is not None:
            per_model[key] = (version, value)
        return value

    ranked = memo(
        pruning(policy, max_size),
        lambda: rank_sources(policy, model, docs, trace.documents, max_size),
    )
    return memo(
        (policy, float(max_size)),
        lambda: _cut_push_tables(ranked.cut(policy.threshold), docs),
    )


def _service_fold(sizes: np.ndarray, config: BaselineConfig) -> float:
    """Left-fold ``ServCost + CommCost × size`` exactly as ``+=`` does."""
    if sizes.size == 0:
        return 0.0
    terms = config.serv_cost + config.comm_cost * sizes.astype(np.float64)
    return float(np.add.accumulate(terms)[-1])


def _session_blocks(tables: _SessionTables) -> Iterator[tuple[slice, int]]:
    """``(first_occurrences, next_client)`` per block of
    ``_SESSION_BLOCK`` sessions: the block's slice of the first
    occurrences, and the client of the next block's first session
    (``-1`` after the last block)."""
    for start in range(0, tables.n_sessions, _SESSION_BLOCK):
        stop = min(start + _SESSION_BLOCK, tables.n_sessions)
        f_lo, f_hi = np.searchsorted(tables.fo_sess, (start, stop)).tolist()
        next_client = (
            int(tables.session_client[stop]) if stop < tables.n_sessions else -1
        )
        yield slice(f_lo, f_hi), next_client


def _target_occurrences(
    tables: _SessionTables,
    fos: slice,
    src: np.ndarray,
    tgt: np.ndarray,
    ends: np.ndarray,
    lookup: np.ndarray,
) -> np.ndarray:
    """Each push's target as a block-local first-occurrence index, or
    ``-1`` where the source's session never requests it.

    ``src``/``tgt`` are the pushes' sources (block-local) and targets,
    ``ends`` the cumulative push counts of the block's sources.  The
    sessions are looked up ``len(lookup) // key_base`` at a time in the
    dense ``lookup`` window (all ``-1``, one row per session), which
    each window fills with its first occurrences and resets after.
    """
    key_base = tables.key_base
    span = lookup.size // key_base
    sessions = tables.fo_sess[fos]
    rows = (sessions % span) * key_base
    firsts = rows + tables.fo_doc[fos]
    cells = rows.take(src) + tgt
    starts = np.arange(sessions[0] // span, sessions[-1] // span + 2) * span
    bounds = np.searchsorted(sessions, starts).tolist()
    targets = np.empty(src.size, dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        lookup[firsts[lo:hi]] = np.arange(lo, hi)
        pushes = slice(ends[lo], ends[hi])
        targets[pushes] = lookup[cells[pushes]]
        lookup[firsts[lo:hi]] = -1
    return targets


def _resolve_misses(
    tables: _SessionTables, push: _PushTables | None
) -> tuple[np.ndarray, int]:
    """Miss flags per first occurrence, and the pushed bytes a hit used.

    Baseline runs (no pushes) miss on every first occurrence.  With
    pushes, a first occurrence of a document no push list names misses
    outright; the *pushable* ones are decided once each, block by block.

    Per block, every first occurrence's push list is expanded once and
    each push's target is looked up among the session's first
    occurrences (:func:`_target_occurrences`).  A push matters for
    hit/miss only when it lands *ahead* of the target's first request.
    The known misses' pushes mark their targets covered up front.  The
    pushable first occurrences are then decided in rank order within
    their session: round ``k`` takes each session's ``k``-th pushable
    occurrence, which is a hit iff covered — every push that can cover
    it comes from an earlier occurrence, already decided — and
    scatters the pushes of the round's misses.  That is the event
    loop's miss set, by induction on the rank.

    Each covered hit used one push of its document's catalog size; the
    misses' pushes to documents their session never requests can only
    be used in a later session of the client (:func:`_used_bytes`).
    """
    miss = np.ones(tables.fo_pos.size, dtype=bool)
    if push is None or push.targets.size == 0:
        return miss, 0
    pushable = np.zeros(push.universe, dtype=bool)
    pushable[push.targets] = True
    lookup = np.full(max(_LOOKUP_CELLS, tables.key_base), -1, dtype=np.int32)
    used = 0
    carry = np.zeros(0, dtype=np.int64)
    for fos, next_client in _session_blocks(tables):
        docs = tables.fo_doc[fos]
        n_fo = docs.size
        lengths = push.lengths[docs]
        ends = np.concatenate(([0], np.cumsum(lengths)))
        src = np.repeat(np.arange(n_fo), lengths)
        offsets = push.indptr[docs] - ends[:-1]
        tgt = push.targets[np.arange(src.size) + offsets.take(src)]
        tfo = _target_occurrences(tables, fos, src, tgt, ends, lookup)
        # Block-local indices are in position order: a push from ``src``
        # lands ahead of its target's first request iff ``src < tfo``.
        ahead = src < tfo

        block_miss = ~pushable[docs]
        covered = np.zeros(n_fo, dtype=bool)
        covered[tfo[ahead & block_miss.take(src)]] = True
        undecided = ~block_miss
        seen = np.cumsum(undecided)
        seen -= undecided
        rank = seen - seen[np.arange(n_fo) - tables.fo_rank[fos]]
        events = np.flatnonzero(undecided)
        edges = np.flatnonzero(ahead & undecided.take(src))
        rounds = int(rank[events].max()) + 1 if events.size else 0
        # Group events and their pushes by round: a radix sort on small
        # unsigned ranks.
        rank = rank.astype(np.min_scalar_type(rounds))
        events = events[np.argsort(rank[events], kind="stable")]
        edges = edges[np.argsort(rank.take(src[edges]), kind="stable")]
        edge_src, edge_tgt = src[edges], tfo[edges]
        event_bounds = np.searchsorted(rank[events], np.arange(rounds + 1)).tolist()
        edge_bounds = np.searchsorted(rank[edge_src], np.arange(rounds + 1)).tolist()
        for k in range(rounds):
            now = events[event_bounds[k] : event_bounds[k + 1]]
            block_miss[now] = ~covered[now]
            pushes = slice(edge_bounds[k], edge_bounds[k + 1])
            covered[edge_tgt[pushes][block_miss[edge_src[pushes]]]] = True
        miss[fos] = block_miss

        hits = ~block_miss
        used += int(push.target_sizes[docs] @ hits)
        # Pushes to documents the session never requests stay pending;
        # only a later session of the client can consume them.
        stray = (block_miss & tables.fo_later[fos]).take(src) & (tfo < 0)
        if carry.size or stray.any():
            merged = np.concatenate(
                (
                    carry,
                    tables.push_key[fos].take(src[stray])
                    + (tgt[stray] << tables.key_shift),
                    tables.cover_key[fos][hits],
                    tables.repeat_key[fos][block_miss],
                )
            )
            block_used, carry = _used_bytes(tables, push, merged, next_client)
            used += block_used
    return miss, used


def _used_bytes(
    tables: _SessionTables, push: _PushTables, events: np.ndarray, next_client: int
) -> tuple[int, np.ndarray]:
    """Bytes of pushes left pending across sessions that a hit consumed,
    and the pushes still pending for ``next_client``.

    Per ``(client, document)`` pair the event loop keeps one pending
    push: a push that lands on an uncached document sets it —
    replacing, and so wasting, the one before — and a cache hit
    consumes it.  A push that lands ahead of the document's first
    request in its session is always consumed by that request, a
    *covered* hit (counted by the caller).  What stays open are the
    pushes to documents the session never requests.  Their run per
    ``(session, document)`` is never split by another event of the
    pair and every push of it has the catalog size, so in key order
    such a push is consumed iff its successor is the pair's *repeat* —
    the second request in the session of a document whose first request
    missed.  A covered hit in between means a push replaced it.

    ``events`` are merge keys (:class:`_SessionTables`); entries of
    ``-1`` (first occurrences with no repeat) are skipped.  Pushes still
    pending at the block's end for ``next_client``, whose sessions go on
    in the next block, are returned to carry over.
    """
    events = np.sort(events[events >= 0])
    pair = events >> tables.key_shift
    kind = events & 3
    same_pair = pair[1:] == pair[:-1]
    pushed = kind == _PUSH
    consumed = pushed[:-1] & (kind[1:] == _REPEAT) & same_pair
    used = int(push.target_sizes[pair[:-1][consumed] % tables.key_base].sum())
    pending = np.append(~same_pair, True) & pushed
    carry = events[pending][pair[pending] // tables.key_base == next_client]
    return used, carry


def replay_columnar(
    trace: Trace,
    config: BaselineConfig,
    *,
    model: DependencyModel | None = None,
    policy: ThresholdPolicy | None = None,
) -> ColumnarReplay:
    """Replay a trace in vectorized columnar passes.

    Semantically identical to the simulator's general event loop for the
    default configuration: per-client ``SessionTimeout`` caches, no
    cooperation, no digests, no prefetchers, and either no policy
    (baseline) or a :class:`ThresholdPolicy` over a fixed model.

    Args:
        trace: The access trace to replay.
        config: Cost model and timeouts.
        model: Fixed dependency model (required when ``policy`` given).
        policy: The threshold policy; ``None`` replays the baseline.

    Returns:
        A :class:`ColumnarReplay` whose counters are bit-identical to
        the event loop's.
    """
    n = len(trace)
    if n == 0:
        return ColumnarReplay(
            metrics=SpeculationMetrics(
                bytes_sent=0,
                server_requests=0,
                service_time=0.0,
                miss_bytes=0,
                accessed_bytes=0,
            ),
            accesses=0,
            cache_hits=0,
        )
    sizes = trace.columns.size
    timeout = config.session_timeout
    caching = timeout > 0
    if caching:
        tables = _session_tables(trace, timeout)
        docs = tables.docs
    else:
        docs, doc_codes = _requested(trace.columns)

    push: _PushTables | None = None
    if policy is not None:
        if model is None:
            raise ValueError("columnar replay with a policy requires a model")
        push = _push_tables(trace, docs, policy, model, config.max_size)

    accessed_bytes = int(sizes.sum())

    if not caching:
        # No client cache: every request misses and every pushed byte is
        # eventually wasted (nothing is ever served from cache).
        if push is None:
            speculated_documents = 0
            speculated_bytes = 0
        else:
            speculated_documents = int(push.lengths[doc_codes].sum())
            speculated_bytes = int(push.byte_sums[doc_codes].sum())
        return ColumnarReplay(
            metrics=SpeculationMetrics(
                bytes_sent=accessed_bytes + speculated_bytes,
                server_requests=n,
                service_time=_service_fold(sizes, config),
                miss_bytes=accessed_bytes,
                accessed_bytes=accessed_bytes,
                speculated_documents=speculated_documents,
                speculated_bytes=speculated_bytes,
                wasted_bytes=speculated_bytes,
            ),
            accesses=n,
            cache_hits=0,
        )

    miss_fo, used_bytes = _resolve_misses(tables, push)
    miss_pos = tables.fo_pos[miss_fo]

    # Misses in original trace order drive the exact service-time fold.
    miss_original = np.zeros(n, dtype=bool)
    miss_original[tables.order[miss_pos]] = True
    miss_sizes = sizes[miss_original]
    miss_bytes = int(miss_sizes.sum())
    n_miss = int(miss_pos.size)
    service_time = _service_fold(miss_sizes, config)

    if push is None:
        return ColumnarReplay(
            metrics=SpeculationMetrics(
                bytes_sent=miss_bytes,
                server_requests=n_miss,
                service_time=service_time,
                miss_bytes=miss_bytes,
                accessed_bytes=accessed_bytes,
            ),
            accesses=n,
            cache_hits=n - n_miss,
        )

    miss_docs = tables.fo_doc[miss_fo]
    speculated_documents = int(push.lengths[miss_docs].sum())
    speculated_bytes = int(push.byte_sums[miss_docs].sum())
    return ColumnarReplay(
        metrics=SpeculationMetrics(
            bytes_sent=miss_bytes + speculated_bytes,
            server_requests=n_miss,
            service_time=service_time,
            miss_bytes=miss_bytes,
            accessed_bytes=accessed_bytes,
            speculated_documents=speculated_documents,
            speculated_bytes=speculated_bytes,
            wasted_bytes=speculated_bytes - used_bytes,
        ),
        accesses=n,
        cache_hits=n - n_miss,
    )

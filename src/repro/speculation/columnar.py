"""Columnar (vectorized) replay of the speculative-service simulator.

The event loop in :mod:`repro.speculation.simulator` walks the trace one
request at a time.  This module replays the *same* semantics over numpy
column arrays — timestamps, client codes, document codes, sizes — in a
handful of vectorized passes:

1. **Sessions.**  A stable sort by client groups each client's requests
   contiguously (preserving time order); session boundaries fall where a
   client changes or an inter-request gap reaches ``SessionTimeout``.
   Session caches are cleared at boundaries, so hit/miss resolution is
   independent across sessions.  The sorted columns, session ids and
   first-occurrence tables depend only on ``(trace, SessionTimeout)``
   and are memoized per trace.
2. **Hit/miss fixpoint.**  Within a session, a document is cached from
   its first event (demand request or speculative push) onward.  Only
   the *first* request of each ``(session, document)`` pair can miss,
   and only documents that appear in some push list can be covered
   before their first request — every other first occurrence misses
   outright, and its push list seeds a coverage matrix holding the
   earliest covering position per ``(session, document)``.  The
   remaining *pushable* first occurrences are resolved in
   level-synchronous rounds over their rank within the session: round
   ``k`` decides every session's ``k``-th pushable occurrence at once
   (hit iff covered at an earlier position), then scatters the new
   misses' push lists.  Sessions are chunked so the dense matrix stays
   bounded.
3. **Counters.**  All byte counters are exact integer sums.
   ``service_time`` accumulates ``ServCost + CommCost × size`` over the
   misses *in original trace order* via ``np.add.accumulate`` — a
   strict left fold, bit-identical to the event loop's running ``+=``.
4. **Wasted bytes.**  Ineffective pushes (target already cached in the
   session) are charged immediately; effective pushes are charged iff
   the pending entry they create is later *replaced* by another push or
   survives to the end of the trace — resolved by merging effective
   pushes and cache hits per ``(client, document)`` and checking each
   push's successor event, exactly the event loop's pending-dict
   semantics.

Bit-exactness contract: for every configuration this engine covers the
returned metrics equal the event loop's **exactly** (``==`` on every
counter, including the float ``service_time``), pinned by
``tests/test_columnar_replay.py``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from ..config import BaselineConfig
from ..trace.records import Trace, TraceColumns
from .dependency import DependencyModel
from .metrics import SpeculationMetrics
from .policies import ThresholdPolicy
from .riders import Ranked, pruning, rank_sources

#: Sessions resolved per dense coverage matrix; bounds peak memory of
#: the hit/miss fixpoint at ``chunk × universe`` int64 cells.
_SESSION_CHUNK = 4096

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

#: Reusable scratch for the dense ``session × document`` pair map; a
#: fresh multi-megabyte allocation per replay costs more in page
#: faults than the fill itself.  Grown on demand, never shrunk.
_pairmap_scratch = np.zeros(0, dtype=np.int32)


def _pairmap_buffer(size: int) -> np.ndarray:
    """A reusable int32 scratch array of at least ``size`` elements."""
    global _pairmap_scratch
    if _pairmap_scratch.size < size:
        _pairmap_scratch = np.empty(size, dtype=np.int32)
    return _pairmap_scratch[:size]


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
    ``doc`` codes index ``docs``, the requested documents
    (:func:`_requested`), and client codes are the trace's own;
    ``key_base`` (> any document code, including push-only codes) turns
    ``(session, document)`` pairs into single int64 keys;
    ``unique_sd``/``first_index`` give, per pair, the sorted position of
    the session's first request for the document; ``fo_*`` list those
    first occurrences in position order.
    """

    docs: list[str]
    order: np.ndarray
    times: np.ndarray
    doc: np.ndarray
    client: np.ndarray
    session: np.ndarray
    session_client: np.ndarray
    n_sessions: int
    key_base: int
    unique_sd: np.ndarray
    first_index: np.ndarray
    fo_pos: np.ndarray
    fo_sess: np.ndarray
    fo_doc: np.ndarray


def _requested(columns: TraceColumns) -> tuple[list[str], np.ndarray]:
    """The replay's document coding: the documents the trace requests,
    in id-table order, and each request's index into them.

    A window shares its parent's id table; coding only what it requests
    keeps the code universe — and the dense ``session × document`` maps
    of the fixpoint — at the window's own size.
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
    n_sessions = int(session[-1]) + 1
    # Any push target lives in the catalog, so catalog size bounds the
    # whole code universe — the keys stay valid for every policy.
    key_base = len(trace.documents) + 1
    session_doc = session * np.int64(key_base) + d
    unique_sd, first_index = np.unique(session_doc, return_index=True)
    fo_pos = np.sort(first_index)
    tables = _SessionTables(
        docs=docs,
        order=order,
        times=t,
        doc=d,
        client=c,
        session=session,
        session_client=c[np.flatnonzero(boundary)],
        n_sessions=n_sessions,
        key_base=key_base,
        unique_sd=unique_sd,
        first_index=first_index,
        fo_pos=fo_pos,
        fo_sess=session[fo_pos],
        fo_doc=d[fo_pos],
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


def _expand_csr(
    row_codes: np.ndarray, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR positions and within-row offsets for many rows at once.

    Returns ``(positions, offsets)`` where ``positions`` indexes the CSR
    data arrays row by row and ``offsets`` is each element's 0-based
    position inside its row.
    """
    lengths = indptr[row_codes + 1] - indptr[row_codes]
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    positions = offsets + np.repeat(indptr[row_codes], lengths)
    return positions, offsets


def _service_fold(sizes: np.ndarray, config: BaselineConfig) -> float:
    """Left-fold ``ServCost + CommCost × size`` exactly as ``+=`` does."""
    if sizes.size == 0:
        return 0.0
    terms = config.serv_cost + config.comm_cost * sizes.astype(np.float64)
    return float(np.add.accumulate(terms)[-1])


@dataclass(frozen=True)
class _EffectivePushes:
    """One row per ``(session, target)`` push group with a live head.

    A group's earliest push is *effective* when it lands before the
    target's first demand request in the session (or the target is
    never requested there); every other push in the group is wasted on
    arrival.  ``position`` is the effective push's trigger position in
    the client-sorted order.
    """

    session: np.ndarray
    target: np.ndarray
    position: np.ndarray


def _resolve_misses(
    tables: _SessionTables, push: _PushTables | None
) -> tuple[np.ndarray, _EffectivePushes | None]:
    """Miss positions (sorted order) and effective pushes, via fixpoint.

    Baseline runs (no pushes) miss on every first occurrence.  With
    pushes, only first occurrences of *pushable* documents need
    resolution; everything else misses outright and merely seeds the
    coverage map with its push list.

    The undecided events are solved by alternating (Jacobi) iteration
    of the antitone operator ``F(S) = {e : no earlier event of S pushes
    e's document}`` starting from the all-miss state.  ``F``'s unique
    fixpoint is the event loop's miss set (uniqueness by induction on
    each event's rank in its session), successive iterates bracket it
    from both sides, and after ``k`` steps the iterate is exact on the
    first ``k`` ranks — so iterate-equality certifies the fixpoint and
    the rank bound caps the loop.  In practice coverage chains are
    shallow and a handful of passes converge, independent of session
    length.

    Each pass recomputes earliest-push positions over the *compressed
    pair domain* — one slot per requested ``(session, document)`` pair,
    i.e. per first occurrence — with one masked scatter: push events
    are expanded once in trigger-position order, and a reversed
    fancy-index assignment makes the *smallest* position win every slot
    — no ``np.minimum.at``.  Pushes from the always-missing (known)
    events form a static base folded in with one ``np.minimum``; only
    the undecided events' pushes are re-scattered per pass.  At the
    fixpoint the coverage map holds, per requested pair, the earliest
    push among the actual misses: the head push of a pair's group is
    effective iff that position precedes the pair's first request.
    Groups whose target is never requested in the session always keep
    an effective head; they are recovered in one dense
    ``session × universe`` pass at the end.
    """
    fo_pos = tables.fo_pos
    if push is None or push.targets.size == 0:
        return fo_pos, None
    universe = push.universe
    pushable = np.zeros(universe, dtype=bool)
    pushable[push.targets] = True
    fo_pushable = pushable[tables.fo_doc]
    miss_fo = ~fo_pushable
    sentinel = tables.order.size  # larger than any sorted position
    ep_sess: list[np.ndarray] = []
    ep_target: list[np.ndarray] = []
    ep_position: list[np.ndarray] = []

    for chunk_start in range(0, tables.n_sessions, _SESSION_CHUNK):
        chunk_stop = min(chunk_start + _SESSION_CHUNK, tables.n_sessions)
        f_lo = int(np.searchsorted(tables.fo_sess, chunk_start, side="left"))
        f_hi = int(np.searchsorted(tables.fo_sess, chunk_stop, side="left"))
        n_pairs = f_hi - f_lo
        if n_pairs == 0:
            continue
        sess_rel = tables.fo_sess[f_lo:f_hi] - chunk_start
        docs_c = tables.fo_doc[f_lo:f_hi]
        pos_c = tables.fo_pos[f_lo:f_hi]
        und_mask = fo_pushable[f_lo:f_hi]
        dense_size = (chunk_stop - chunk_start) * universe

        # Map dense (session, target) cells to pair slots: every
        # requested pair is a first occurrence, so the chunk's first
        # occurrences enumerate the slots.
        pairmap = _pairmap_buffer(dense_size)
        pairmap.fill(-1)
        dense_req = sess_rel * np.int64(universe) + docs_c
        pairmap[dense_req] = np.arange(n_pairs, dtype=np.int32)

        # Expand every first occurrence's push list once, in trigger
        # (position) order, so reversed assignment is a min-scatter.
        positions, _ = _expand_csr(docs_c, push.indptr)
        counts = push.lengths[docs_c]
        src_fo = np.repeat(np.arange(n_pairs, dtype=np.int64), counts)
        p_tgt = push.targets[positions]
        p_cell = sess_rel[src_fo] * np.int64(universe) + p_tgt
        p_at = pos_c[src_fo]
        p_code = pairmap[p_cell]
        src_known = ~und_mask[src_fo]

        # Static base: pushes from always-missing events onto requested
        # pairs (earliest position per slot via reversed assignment).
        base = np.full(n_pairs, sentinel, dtype=np.int64)
        in_base = src_known & (p_code >= 0)
        base[p_code[in_base][::-1]] = p_at[in_base][::-1]

        # Dynamic half: undecided events' pushes onto requested pairs.
        in_iter = ~src_known & (p_code >= 0)
        u_code = p_code[in_iter][::-1]
        u_at = p_at[in_iter][::-1]
        u_src = src_fo[in_iter][::-1]

        und_idx = np.flatnonzero(und_mask)
        und_pos = pos_c[und_idx]
        miss_pairs = np.ones(n_pairs, dtype=bool)
        cover = np.empty(n_pairs, dtype=np.int64)
        for _ in range(und_idx.size + 1):
            active = miss_pairs[u_src]
            cover.fill(sentinel)
            cover[u_code[active]] = u_at[active]
            np.minimum(cover, base, out=cover)
            new_miss = cover[und_idx] >= und_pos
            if np.array_equal(new_miss, miss_pairs[und_idx]):
                break
            miss_pairs[und_idx] = new_miss
        else:  # exhausted the rank bound: re-derive coverage once
            active = miss_pairs[u_src]
            cover.fill(sentinel)
            cover[u_code[active]] = u_at[active]
            np.minimum(cover, base, out=cover)
        miss_fo[f_lo:f_hi] = miss_pairs

        # Effective pushes on requested pairs: straight off the cover.
        eff = cover < pos_c
        if eff.any():
            ep_sess.append(sess_rel[eff] + chunk_start)
            ep_target.append(docs_c[eff])
            ep_position.append(cover[eff])

        # Effective pushes on never-requested targets: each such group
        # keeps its earliest push.  The push events are position-
        # ordered, so ``np.unique``'s first-occurrence index is the
        # group minimum.
        stray = (p_code < 0) & miss_pairs[src_fo]
        if stray.any():
            cells, first = np.unique(p_cell[stray], return_index=True)
            ep_sess.append(cells // universe + chunk_start)
            ep_target.append(cells % universe)
            ep_position.append(p_at[stray][first])
    eps = _EffectivePushes(
        session=np.concatenate(ep_sess) if ep_sess else np.zeros(0, np.int64),
        target=np.concatenate(ep_target)
        if ep_target
        else np.zeros(0, np.int64),
        position=np.concatenate(ep_position)
        if ep_position
        else np.zeros(0, np.int64),
    )
    return fo_pos[miss_fo], eps


def _wasted_bytes(
    tables: _SessionTables,
    push: _PushTables,
    eps: _EffectivePushes,
    miss_pos: np.ndarray,
    speculated_bytes: int,
) -> int:
    """Total bytes of speculated documents never used, exactly.

    Part 1 — ineffective pushes: every pushed byte except the effective
    group heads (:class:`_EffectivePushes`) is wasted on arrival, so
    their total is ``speculated_bytes`` minus the heads'.

    Part 2 — pending replacement and leftovers: per ``(client,
    document)``, an effective push's bytes are *used* only when the
    next effective-push-or-hit event is a hit (the hit deletes the
    pending entry); a successor push replaces — and wastes — it, and a
    push with no successor is wasted at the end of the trace.  Pushes
    and requests never share a position, so doubling positions (+1 for
    pushes) gives a collision-free merge key.
    """
    ep_sizes = push.target_sizes[eps.target]
    wasted = speculated_bytes - int(ep_sizes.sum())
    if eps.target.size == 0:
        return wasted

    hit_mask = np.ones(tables.order.size, dtype=bool)
    hit_mask[miss_pos] = False
    hit_pos = np.flatnonzero(hit_mask)
    ev_client = np.concatenate(
        [tables.session_client[eps.session], tables.client[hit_pos]]
    )
    ev_doc = np.concatenate([eps.target, tables.doc[hit_pos]])
    ev_key = np.concatenate([eps.position * 2 + 1, hit_pos * 2])
    ev_is_hit = np.concatenate(
        [
            np.zeros(eps.target.size, dtype=bool),
            np.ones(hit_pos.size, dtype=bool),
        ]
    )
    ev_size = np.concatenate(
        [ep_sizes, np.zeros(hit_pos.size, dtype=np.int64)]
    )
    merged = np.lexsort(
        (ev_key, ev_client * np.int64(tables.key_base) + ev_doc)
    )
    m_client = ev_client[merged]
    m_doc = ev_doc[merged]
    m_is_hit = ev_is_hit[merged]
    m_size = ev_size[merged]
    used = np.zeros(merged.size, dtype=bool)
    if merged.size > 1:
        same_pair = (m_client[:-1] == m_client[1:]) & (m_doc[:-1] == m_doc[1:])
        used[:-1] = same_pair & m_is_hit[1:]
    return wasted + int(m_size[~m_is_hit & ~used].sum())


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

    miss_pos, eps = _resolve_misses(tables, push)

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

    miss_docs = tables.doc[miss_pos]
    speculated_documents = int(push.lengths[miss_docs].sum())
    speculated_bytes = int(push.byte_sums[miss_docs].sum())
    # ``eps`` is None only when the policy never pushes anything, in
    # which case nothing was speculated and nothing can be wasted.
    wasted_bytes = (
        0
        if eps is None
        else _wasted_bytes(tables, push, eps, miss_pos, speculated_bytes)
    )

    return ColumnarReplay(
        metrics=SpeculationMetrics(
            bytes_sent=miss_bytes + speculated_bytes,
            server_requests=n_miss,
            service_time=service_time,
            miss_bytes=miss_bytes,
            accessed_bytes=accessed_bytes,
            speculated_documents=speculated_documents,
            speculated_bytes=speculated_bytes,
            wasted_bytes=wasted_bytes,
        ),
        accesses=n,
        cache_hits=n - n_miss,
    )

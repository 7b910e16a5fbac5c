"""Pure-Python reference for ``P`` counting and ``P*`` relaxation.

The arithmetic ``repro.speculation.sparse`` vectorizes, kept verbatim
from the loop and relaxation ``DependencyModel`` originally ran (the
body of ``estimate`` and ``_relaxed_row``).  The engine must reproduce
both with ``==``, never approximately; nothing in ``src/`` can select
this code, so a parity test never compares the engine with itself.
"""

from __future__ import annotations

from collections import Counter

from repro.trace.records import Trace
from repro.trace.sessions import split_strides


def reference_pair_counts(
    trace: Trace, window: float, stride_timeout: float
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """``(pair_counts, occurrences)`` by the paper's stride rule.

    For every request for ``D_i`` at time ``t``, each *distinct* later
    document requested by the same client in ``(t, t + window]`` and in
    the same traversal stride counts one ``(i, j)`` pair.
    """
    pair_counts: dict[str, dict[str, float]] = {}
    occurrences: Counter[str] = Counter()
    for stride in split_strides(trace, stride_timeout):
        requests = stride.requests
        for index, source in enumerate(requests):
            occurrences[source.doc_id] += 1
            seen: set[str] = set()
            for follower in requests[index + 1 :]:
                if follower.timestamp - source.timestamp > window:
                    break
                if follower.doc_id == source.doc_id:
                    continue
                if follower.doc_id in seen:
                    continue
                seen.add(follower.doc_id)
                row = pair_counts.setdefault(source.doc_id, {})
                row[follower.doc_id] = row.get(follower.doc_id, 0.0) + 1.0
    return pair_counts, dict(occurrences)


def _successors(
    pair_counts: dict[str, dict[str, float]],
    occurrences: dict[str, float],
    source: str,
) -> dict[str, float]:
    """The non-zero entries of row ``i`` of ``P``."""
    base = occurrences.get(source, 0.0)
    if base <= 0:
        return {}
    return {
        target: count / base
        for target, count in pair_counts.get(source, {}).items()
        if count > 0
    }


def reference_closure_row(
    pair_counts: dict[str, dict[str, float]],
    occurrences: dict[str, float],
    source: str,
    min_probability: float = 0.01,
    max_hops: int = 8,
) -> dict[str, float]:
    """One ``P*`` row by pure-Python max-product relaxation.

    Per level, extend every improved chain by one hop, prune products
    below ``min_probability`` *before* clamping to 1.0, and keep a value
    only on strict improvement.
    """
    best: dict[str, float] = {source: 1.0}
    frontier: dict[str, float] = {source: 1.0}
    for __ in range(max_hops):
        next_frontier: dict[str, float] = {}
        for node, through in frontier.items():
            for target, edge in _successors(pair_counts, occurrences, node).items():
                chained = through * edge
                if chained < min_probability:
                    continue
                if chained > 1.0:
                    chained = 1.0
                if chained > best.get(target, 0.0):
                    best[target] = chained
                    next_frontier[target] = chained
        if not next_frontier:
            break
        frontier = next_frontier
    best.pop(source, None)
    return best


class ReferenceModel:
    """The slice of the model interface the policies read, from the
    reference arithmetic alone — so a replay under it shares neither
    counting nor closure code with ``DependencyModel``."""

    def __init__(self, trace: Trace, window: float, stride_timeout: float):
        self.pair_counts, self.occurrence_counts = reference_pair_counts(
            trace, window, stride_timeout
        )

    def successors(self, source: str) -> dict[str, float]:
        """The non-zero entries of row ``i`` of ``P``."""
        return _successors(self.pair_counts, self.occurrence_counts, source)

    def closure_row(
        self, source: str, *, min_probability: float = 0.01, max_hops: int = 8
    ) -> dict[str, float]:
        """Row ``i`` of ``P*``."""
        return reference_closure_row(
            self.pair_counts,
            self.occurrence_counts,
            source,
            min_probability,
            max_hops,
        )

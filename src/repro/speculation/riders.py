"""Which documents ride along with a response: the paper's rule, once.

Section 3: the server sends ``D_j`` with ``D_i`` iff ``p*[i,j] >= T_p``
and ``size(D_j) <= MaxSize``, so one ranked row per document answers
every request and every threshold.  :func:`rank` is the one ranking and
filter; a :class:`RiderTable` serves it per document (origin, cache
nodes, general replay loops) and :func:`rank_sources` for a whole trace
(the columnar replay).  Call sites keep only their per-request filter:
client digest, node holdings, client cache, pending pushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from ..errors import PolicyError
from ..trace.records import Document
from .dependency import DependencyModel

#: One rider: ``(doc_id, catalog size, probability)``.
Rider = tuple[str, int, float]


@dataclass(frozen=True, slots=True)
class Candidate:
    """One document a policy proposes to speculate.

    Attributes:
        doc_id: The candidate document.
        probability: The policy's estimate that it will be requested.
    """

    doc_id: str
    probability: float


class SpeculationPolicy(Protocol):
    """Protocol implemented by all speculation policies."""

    def select(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
    ) -> list[Candidate]:
        """Candidates to send along with ``requested``, best first."""
        ...


@dataclass(frozen=True)
class ThresholdRule:
    """The paper's rule: ``p*[i,j] >= T_p`` and ``size <= MaxSize``.

    :class:`~repro.speculation.policies.ThresholdPolicy` is this rule as
    a policy; a :class:`RiderTable` ranks its rows and never calls
    ``select``.

    Attributes:
        threshold: ``T_p`` in (0, 1].
        max_size: MaxSize cap in bytes (``inf`` = no limit).
        use_closure: Use ``P*`` (default, the paper's baseline) or the
            direct ``P`` row only.
        min_probability: Pruning floor for closure computation.
        max_hops: Chain-length cap for closure computation.
    """

    threshold: float
    max_size: float = math.inf
    use_closure: bool = True
    min_probability: float = 0.01
    max_hops: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise PolicyError("threshold must be in (0, 1]")
        if self.max_size <= 0:
            raise PolicyError("max_size must be positive")


@dataclass(frozen=True)
class Ranked:
    """Ranked riders of many sources, flattened: ``row`` (source index),
    ``target`` (index into ``names``, the distinct ids in ``doc_id``
    order), catalog ``size`` and ``p`` per entry.  Entries are grouped
    by row, ordered ``(-p, doc_id)``, so a threshold keeps a prefix."""

    names: list[str]
    row: np.ndarray
    target: np.ndarray
    size: np.ndarray
    p: np.ndarray

    def cut(self, threshold: float) -> "Ranked":
        """The entries with ``p >= threshold``: every row's prefix."""
        keep = self.p >= threshold
        return Ranked(
            self.names, self.row[keep], self.target[keep], self.size[keep], self.p[keep]
        )

    def riders(self) -> list[Rider]:
        """The entries as ``(doc_id, size, p)`` tuples, in rank order."""
        targets, sizes, ps = self.target.tolist(), self.size.tolist(), self.p.tolist()
        return [(self.names[t], s, p) for t, s, p in zip(targets, sizes, ps)]


def rank(
    rows: Sequence[Mapping[str, float]],
    catalog: Mapping[str, Document],
    max_size: float,
    threshold: float = 0.0,
) -> Ranked:
    """Rank each ``target → p`` row's entries with ``p >= threshold`` that
    are catalog members of ``<= max_size`` bytes."""
    kept = [[(t, p) for t, p in row.items() if p >= threshold] for row in rows]
    ids = [target for row in kept for target, _ in row]
    probabilities = np.fromiter(
        (p for row in kept for _, p in row), np.float64, len(ids)
    )
    sources = np.repeat(
        np.arange(len(kept), dtype=np.int64), [len(row) for row in kept]
    )
    names = sorted(set(ids))
    position = {name: index for index, name in enumerate(names)}
    # Per distinct target: its catalog size, or -1 when filtered out.
    sizes = np.array(
        [getattr(catalog.get(name), "size", -1) for name in names], np.int64
    )
    sizes[sizes > max_size] = -1
    targets = np.fromiter(map(position.__getitem__, ids), np.int64, len(ids))
    order = np.lexsort((targets, -probabilities, sources))
    order = order[sizes[targets[order]] >= 0]
    ranked = targets[order]
    return Ranked(names, sources[order], ranked, sizes[ranked], probabilities[order])


def _floor(rule: ThresholdRule) -> float:
    """The pruning floor a rule's ``P*`` rows are read at."""
    return min(rule.min_probability, rule.threshold)


def pruning(rule: ThresholdRule, max_size: float) -> tuple:
    """What :func:`rank_sources` depends on besides model and sources:
    every ``T_p`` at or above the floor shares it (a sweep ranks once)."""
    cap = min(rule.max_size, max_size)
    return (rule.use_closure, _floor(rule), rule.max_hops, cap)


def rank_sources(
    rule: ThresholdRule,
    model: DependencyModel,
    sources: Sequence[str],
    catalog: Mapping[str, Document],
    max_size: float,
) -> Ranked:
    """Every source's riders down to the pruning floor, uncut, from one
    ``model.closure_rows`` call (memoized rows: stale after ``observe``
    until ``refresh_closure``)."""
    if rule.use_closure:
        found = model.closure_rows(
            sources, min_probability=_floor(rule), max_hops=rule.max_hops
        )
        rows = [found[source] for source in sources]
    else:
        rows = [model.successors(source) for source in sources]
    return rank(rows, catalog, min(rule.max_size, max_size))


class RiderTable:
    """The riders of every document under one policy, model and catalog.

    A :class:`ThresholdRule` row is read from ``model.closure_row``
    (``successors`` without closure) at the pruning floor, ranked and
    cut at ``T_p``, and memoized for one ``model.version``: the model
    bumps it on ``observe`` and on a flushing ``refresh_closure``, so a
    learning model's rows are re-read through its own closure cache.
    A model without ``version`` is never memoized.  Any other policy is
    asked through ``select`` on every call (it may keep state, as
    :class:`~repro.speculation.adaptive.AdaptiveBudgetPolicy` does),
    and its candidates pass the same :func:`rank`.

    Args:
        policy: The speculation policy.
        model: The dependency model the rows are read from.
        catalog: The servable documents; only they ride.
        max_size: The deployment's MaxSize; a rider must also fit the
            policy's own ``max_size``.
    """

    def __init__(
        self,
        policy: ThresholdRule | SpeculationPolicy,
        model: DependencyModel,
        catalog: Mapping[str, Document],
        max_size: float = math.inf,
    ):
        self.policy = policy
        self.model = model
        self._catalog = catalog
        self._max_size = min(getattr(policy, "max_size", math.inf), max_size)
        self._rows: dict[str, list[Rider]] = {}
        self._version: int | None = None

    def riders(self, doc_id: str) -> list[Rider]:
        """``doc_id``'s riders, best first (shared: do not mutate)."""
        policy = self.policy
        if not isinstance(policy, ThresholdRule):
            chosen = policy.select(doc_id, self.model, self._catalog)
            row = {candidate.doc_id: candidate.probability for candidate in chosen}
            return rank([row], self._catalog, self._max_size).riders()
        version = getattr(self.model, "version", None)
        if version != self._version or version is None:
            self._rows = {}
            self._version = version
        found = self._rows.get(doc_id)
        if found is not None:
            return found
        if policy.use_closure:
            row = self.model.closure_row(
                doc_id, min_probability=_floor(policy), max_hops=policy.max_hops
            )
        else:
            row = self.model.successors(doc_id)
        ranked = rank([row], self._catalog, self._max_size, policy.threshold)
        found = self._rows[doc_id] = ranked.riders()
        return found

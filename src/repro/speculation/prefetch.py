"""Server-assisted prefetching and the hybrid protocol (section 3.4).

Instead of pushing documents outright, the server can *assist* clients:
it attaches to each response a list of document URLs highly likely to be
requested soon, and clients decide what to prefetch.  Prefetching moves
the bandwidth decision to the client but — unlike speculative service —
each prefetched document costs the server a request.

The **hybrid** protocol combines both: server-initiated speculation is
restricted to near-certain documents (embeddings), while less probable
future accesses are left to client-initiated prefetching from the hint
list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PolicyError
from ..trace.records import Document
from .dependency import DependencyModel
from .policies import ThresholdPolicy
from .riders import Candidate, RiderTable, ThresholdRule


@dataclass(frozen=True)
class PrefetchHints:
    """Server-side hint generator.

    Attributes:
        max_hints: Hints attached per response.
        min_probability: Follow-ups below this are never hinted.
        use_closure: Rank hints by ``P*`` (default) or direct ``P``.
        max_hops: Chain-length cap for closure computation.
    """

    max_hints: int = 10
    min_probability: float = 0.05
    use_closure: bool = True
    max_hops: int = 8

    def __post_init__(self) -> None:
        if self.max_hints < 1:
            raise PolicyError("max_hints must be >= 1")
        if not 0.0 < self.min_probability <= 1.0:
            raise PolicyError("min_probability must be in (0, 1]")

    def hints(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
    ) -> list[Candidate]:
        """The hint list the server attaches to a response: the best
        ``max_hints`` riders of the rule ``p >= min_probability``."""
        rule = ThresholdRule(
            threshold=self.min_probability,
            use_closure=self.use_closure,
            min_probability=self.min_probability,
            max_hops=self.max_hops,
        )
        riders = RiderTable(rule, model, catalog).riders(requested)
        return [Candidate(doc_id, p) for doc_id, _, p in riders[: self.max_hints]]


@dataclass(frozen=True)
class ClientPrefetcher:
    """Client-side prefetch decision from server hints.

    Attributes:
        hints: The server's hint generator.
        threshold: The client prefetches hinted documents with
            probability at least this value.
        max_size: The client skips hinted documents larger than this.
    """

    hints: PrefetchHints = PrefetchHints()
    threshold: float = 0.25
    max_size: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise PolicyError("threshold must be in (0, 1]")
        if self.max_size <= 0:
            raise PolicyError("max_size must be positive")

    def choose(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
    ) -> list[str]:
        """Documents the client decides to prefetch, best first."""
        return [
            hint.doc_id
            for hint in self.hints.hints(requested, model, catalog)
            if hint.probability >= self.threshold
            and catalog[hint.doc_id].size <= self.max_size
        ]


@dataclass(frozen=True)
class HybridProtocol:
    """Speculation for embeddings + client prefetch for traversals.

    Server-initiated speculative service handles documents that are
    near-certainly needed (embedding dependencies — no wasted
    bandwidth: direct ``p >= 1 - embedding_tolerance``); the remaining
    probable accesses are hinted and left to client-initiated
    prefetching.

    Pass :attr:`policy` and :attr:`prefetcher` to
    :meth:`repro.speculation.simulator.SpeculativeServiceSimulator.run`.
    """

    policy: ThresholdPolicy = ThresholdPolicy(
        threshold=1.0 - 0.05, use_closure=False
    )
    prefetcher: ClientPrefetcher = ClientPrefetcher()

    @classmethod
    def with_thresholds(
        cls,
        *,
        embedding_tolerance: float = 0.05,
        prefetch_threshold: float = 0.25,
        max_size: float = math.inf,
    ) -> "HybridProtocol":
        """Build a hybrid protocol from the two decision thresholds."""
        return cls(
            policy=ThresholdPolicy(
                threshold=1.0 - embedding_tolerance,
                max_size=max_size,
                use_closure=False,
            ),
            prefetcher=ClientPrefetcher(
                threshold=prefetch_threshold, max_size=max_size
            ),
        )

"""The speculative service protocol (paper section 3).

* :mod:`repro.speculation.dependency` — the document access
  interdependency matrix ``P`` and its closure ``P*``, estimated from
  traversal strides.
* :mod:`repro.speculation.aging` — aging and rolling re-estimation of
  the dependency counts (HistoryLength / UpdateCycle).
* :mod:`repro.speculation.policies` — the speculation policy: threshold
  on ``p*`` (or on direct ``p``), with the MaxSize cap.
* :mod:`repro.speculation.riders` — which documents ride with a
  response: the one ranked, catalog- and MaxSize-filtered row per
  document that the origin, the cache nodes and both replay engines
  read.
* :mod:`repro.speculation.caches` — client cache models: none,
  single-session, infinite multi-session, finite LRU; cooperative cache
  digests.
* :mod:`repro.speculation.simulator` — the trace-driven simulator with
  the paper's cost model (CommCost / ServCost).
* :mod:`repro.speculation.metrics` — the four ratios (bandwidth, server
  load, service time, byte miss rate).
* :mod:`repro.speculation.prefetch` — server-assisted prefetching and
  the hybrid speculation+prefetch protocol.
* :mod:`repro.speculation.user_profiles` — per-user access profiles and
  pure client-initiated prefetching (the paper's reference [5]).
"""

from .dependency import DependencyModel, PairHistogram
from .aging import AgingDependencyCounter, RollingEstimator
from .policies import SpeculationPolicy, ThresholdPolicy
from .riders import RiderTable
from .caches import (
    ClientCache,
    InfiniteCache,
    LRUCache,
    NoCache,
    SessionCache,
    make_cache_factory,
)
from .metrics import (
    SpeculationMetrics,
    SpeculationRatios,
    compare,
    ratios_from_totals,
)
from .simulator import SimulationRun, SpeculativeServiceSimulator
from .prefetch import ClientPrefetcher, HybridProtocol, PrefetchHints
from .user_profiles import UserProfile, UserProfilePrefetcher
from .adaptive import AdaptiveBudgetPolicy
from .digests import BloomFilter, digest_size_bytes

__all__ = [
    "DependencyModel",
    "PairHistogram",
    "AgingDependencyCounter",
    "RollingEstimator",
    "SpeculationPolicy",
    "ThresholdPolicy",
    "RiderTable",
    "ClientCache",
    "NoCache",
    "SessionCache",
    "InfiniteCache",
    "LRUCache",
    "make_cache_factory",
    "SpeculationMetrics",
    "SpeculationRatios",
    "compare",
    "ratios_from_totals",
    "SimulationRun",
    "SpeculativeServiceSimulator",
    "PrefetchHints",
    "ClientPrefetcher",
    "HybridProtocol",
    "UserProfile",
    "UserProfilePrefetcher",
    "AdaptiveBudgetPolicy",
    "BloomFilter",
    "digest_size_bytes",
]

"""The popularity-based data dissemination protocol (paper section 2).

* :mod:`repro.dissemination.allocation` — optimal division of a proxy's
  storage among its constituent servers: the exponential closed form of
  equations 4–5 (with non-negativity handled by an active-set
  water-filling loop) and a model-free greedy allocator for arbitrary
  empirical popularity curves.
* :mod:`repro.dissemination.special_cases` — the closed forms of
  equations 6 (equal effectiveness), 7 (equal popularity) and 8–10
  (symmetric clusters), including the paper's proxy-sizing estimates.
* :mod:`repro.dissemination.simulator` — the trace-driven bytes×hops
  simulation behind Figure 3.
* :mod:`repro.dissemination.shielding` — dynamic shielding: a proxy
  sheds load by shrinking its dissemination budget when overloaded.
* :mod:`repro.dissemination.hierarchy` — multi-level dissemination:
  the "continue for another level" answer to the proxy bottleneck.
"""

from .allocation import (
    ServerModel,
    AllocationResult,
    exponential_allocation,
    greedy_document_allocation,
    alpha_for_allocation,
)
from .special_cases import (
    equal_effectiveness_allocation,
    equal_popularity_allocation,
    symmetric_allocation,
    symmetric_alpha,
    symmetric_storage_for_reduction,
)
from .simulator import (
    DisseminationResult,
    DisseminationSimulator,
    per_proxy_popular_docs,
    select_popular_bytes,
)
from .shielding import DynamicShield, ShieldSnapshot
from .hierarchy import HierarchicalShielding, LevelLoad, ProxyLevel
from .freshness import FreshnessResult, FreshnessSimulator

__all__ = [
    "ServerModel",
    "AllocationResult",
    "exponential_allocation",
    "greedy_document_allocation",
    "alpha_for_allocation",
    "equal_effectiveness_allocation",
    "equal_popularity_allocation",
    "symmetric_allocation",
    "symmetric_alpha",
    "symmetric_storage_for_reduction",
    "DisseminationResult",
    "DisseminationSimulator",
    "select_popular_bytes",
    "per_proxy_popular_docs",
    "DynamicShield",
    "ShieldSnapshot",
    "HierarchicalShielding",
    "ProxyLevel",
    "LevelLoad",
    "FreshnessSimulator",
    "FreshnessResult",
]

"""``repro.fleet`` — hierarchical cooperative caching over the routing tree.

The paper's footnote-5 refinement, run live: instead of one origin plus
a single tier of region proxies, a *fleet* of caching nodes occupies
both the per-region and per-subnet levels of the clientele
:class:`~repro.topology.tree.RoutingTree`.  Each node's holdings are
planned from its **own subtree's demand**, the total storage budget is
divided across nodes by the storage-partition optimizer, and lookups
run the deterministic local → sibling probe → parent → origin protocol
of :class:`~repro.runtime.node.CacheNode` — the same node class the flat
tier uses, with siblings and caching ancestors in its specs.  Pluggable placement
policies cover the paper's log-driven and geographic baselines plus the
cooperative (Avrachenkov et al.) and power-of-d (Pourmiri et al.)
refinements from the related-work set.

Entry points: :meth:`repro.api.Session.fleet` (the front door), the
``repro fleet`` CLI verb, or :func:`~repro.fleet.service.execute_fleet`
/ :func:`~repro.fleet.service.execute_fleet_smoke` directly.
"""

from .plan import (
    FLEET_POLICIES,
    FleetPlan,
    build_fleet_plan,
    build_single_tier_plan,
)
from .service import (
    FleetReport,
    FleetSettings,
    execute_fleet,
    execute_fleet_smoke,
    fleet_smoke_settings,
)

__all__ = [
    "FLEET_POLICIES",
    "FleetPlan",
    "FleetReport",
    "FleetSettings",
    "build_fleet_plan",
    "build_single_tier_plan",
    "execute_fleet",
    "execute_fleet_smoke",
    "fleet_smoke_settings",
]

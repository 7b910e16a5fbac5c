"""Fleet planning: which tree nodes cache, what they hold, who they ask.

The paper's footnote-5 refinement distributes the dissemination budget
over a *hierarchy* of proxies, each driven by its own subtree's demand.
:func:`build_fleet_plan` turns a training trace and the clientele
:class:`~repro.topology.tree.RoutingTree` into a frozen
:class:`FleetPlan`: one :class:`~repro.runtime.node.NodeSpec` per
caching node with its holdings, its upstream (the nearest caching
ancestor, else the origin) and its sibling group (same-parent caching
nodes it may probe on a miss).

The storage-partition optimizer
(:func:`~repro.dissemination.allocation.exponential_allocation`) divides
the total budget across regions in proportion to the marginal coverage
of each region's demand, so the comparison against a single-tier
deployment is at **equal total storage**.

Placement policies
------------------

``hierarchical``
    Region + subnet nodes; each region's share splits between the
    region node (the hot head of the whole region) and its subnets
    (each packing its own subtree's demand, deduplicated against the
    region node).  The footnote-5 default.
``cooperative``
    Same sites, but sibling subnets coordinate (Avrachenkov et al.'s
    geographic-constraint cooperative caching): every subnet replicates
    the region's hot head and the tail is partitioned round-robin
    across the sibling group, reachable by one sibling probe.
``power-of-d``
    Cooperative placement, but lookups probe ``d`` siblings chosen by a
    deterministic hash of (document, sibling) instead of the directory
    (Pourmiri et al.'s proximity-aware power-of-d choices).
``greedy``
    Sites from :func:`~repro.topology.placement.greedy_tree_placement`
    (demand-weighted hop savings), budgets split by the optimizer.
``geographic``
    Sites from :func:`~repro.topology.placement.geographic_placement`
    (Gwertzman–Seltzer regions only), budgets split by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..dissemination.allocation import ServerModel, exponential_allocation
from ..errors import AllocationError, SimulationError
from ..runtime.node import NodeSpec
from ..topology.placement import geographic_placement, greedy_tree_placement
from ..topology.tree import RoutingTree
from ..trace.records import Trace

#: Placement policies :func:`build_fleet_plan` understands.
FLEET_POLICIES = (
    "hierarchical",
    "cooperative",
    "power-of-d",
    "greedy",
    "geographic",
)


@dataclass(frozen=True)
class FleetPlan:
    """A frozen deployment: nodes, holdings, and lookup geometry.

    Attributes:
        root: The origin's tree node id.
        policy: Placement policy name (one of :data:`FLEET_POLICIES`).
        budget_bytes: Total storage budget the plan divided.
        nodes: Every caching node, sorted by (depth, name).
        probe_mode: ``"directory"`` probes only siblings the plan
            placed the document at; ``"hashed"`` probes ``d`` siblings
            ranked by a deterministic document hash.
    """

    root: str
    policy: str
    budget_bytes: float
    nodes: tuple[NodeSpec, ...]
    probe_mode: str = "directory"

    def node_names(self) -> tuple[str, ...]:
        """All caching node ids, in plan order."""
        return tuple(spec.name for spec in self.nodes)

    def total_bytes(self) -> int:
        """Disseminated bytes summed over every node (≤ the budget)."""
        return sum(spec.holdings_bytes for spec in self.nodes)

    def directory_for(self, name: str) -> dict[str, tuple[str, ...]]:
        """Which siblings of ``name`` hold each document (probe map)."""
        spec = next((s for s in self.nodes if s.name == name), None)
        if spec is None:
            raise SimulationError(f"no fleet node named {name!r}")
        by_name = {s.name: s for s in self.nodes}
        directory: dict[str, list[str]] = {}
        for sibling in spec.siblings:
            held = by_name.get(sibling)
            if held is None:
                continue
            for doc_id, _ in held.holdings:
                directory.setdefault(doc_id, []).append(sibling)
        return {doc: tuple(names) for doc, names in directory.items()}

    def without_holdings(self) -> "FleetPlan":
        """The same deployment with every cache empty (demand-only arm)."""
        return replace(
            self,
            nodes=tuple(replace(spec, holdings=()) for spec in self.nodes),
        )

    def summary(self) -> dict[str, object]:
        """Compact JSON-friendly description for reports and the CLI."""
        tiers: dict[str, int] = {}
        for spec in self.nodes:
            tier = spec.name.split("-")[0]
            tiers[tier] = tiers.get(tier, 0) + 1
        return {
            "policy": self.policy,
            "probe_mode": self.probe_mode,
            "nodes": len(self.nodes),
            "tiers": dict(sorted(tiers.items())),
            "budget_bytes": self.budget_bytes,
            "stored_bytes": self.total_bytes(),
        }


def _subtree_demand(
    tree: RoutingTree, train: Trace, sites: list[str]
) -> tuple[dict[str, dict[str, tuple[int, int, float]]], dict[str, float]]:
    """Per-site per-document demand, plus per-client byte totals.

    One pass over the training trace; each request is credited to every
    candidate site on its client's root path.  Per site and document the
    result records ``(distinct clients, requests, bytes)``.
    """
    site_set = set(sites)
    path_cache: dict[str, tuple[str, ...]] = {}
    tallies: dict[str, dict[str, list]] = {site: {} for site in sites}
    per_client: dict[str, float] = {}
    columns = train.columns
    for client, doc_id, size in zip(
        columns.client_id_list(), columns.doc_id_list(), columns.size.tolist()
    ):
        path = path_cache.get(client)
        if path is None:
            path = tuple(
                node
                for node in tree.path_from_root(client)
                if node in site_set
            )
            path_cache[client] = path
        per_client[client] = per_client.get(client, 0.0) + size
        for site in path:
            bucket = tallies[site]
            entry = bucket.get(doc_id)
            if entry is None:
                entry = [set(), 0, 0.0]
                bucket[doc_id] = entry
            entry[0].add(client)
            entry[1] += 1
            entry[2] += size
    per_site = {
        site: {
            doc: (len(entry[0]), entry[1], entry[2])
            for doc, entry in bucket.items()
        }
        for site, bucket in tallies.items()
    }
    return per_site, per_client


def _demand_bytes(bucket: dict[str, tuple[int, int, float]]) -> float:
    """Total demand bytes a site's subtree generated."""
    return sum(stat[2] for stat in bucket.values())


def _ranked_docs(
    demand: dict[str, tuple[int, int, float]], sizes: dict[str, int]
) -> list[tuple[str, int]]:
    """Documents by serveable misses, with catalog sizes.

    A caching node intercepts at most one miss per (client, document)
    pair — the client's own cache absorbs repeats — so the rank key is
    distinct subtree clients, then raw requests, then id for
    determinism.  Ranking by demand *bytes* instead would favour a
    handful of large documents that intercept almost nothing.
    """
    ranked = sorted(
        demand.items(), key=lambda item: (-item[1][0], -item[1][1], item[0])
    )
    return [(doc, sizes[doc]) for doc, _ in ranked if doc in sizes]


def _pack(
    ranked: list[tuple[str, int]], budget: float, exclude: frozenset[str]
) -> tuple[tuple[str, int], ...]:
    """Greedily pack ranked docs into a byte budget, skipping misfits."""
    picked: list[tuple[str, int]] = []
    used = 0
    for doc_id, size in ranked:
        if doc_id in exclude or size <= 0:
            continue
        if used + size > budget:
            continue
        picked.append((doc_id, size))
        used += size
    picked.sort()
    return tuple(picked)


def _split_budget(
    demand_bytes: dict[str, float],
    unique_bytes: dict[str, float],
    budget: float,
) -> dict[str, float]:
    """Divide a budget across sites with the storage-partition optimizer.

    Each site becomes a :class:`~repro.dissemination.allocation.ServerModel`
    whose coverage saturates around its unique working-set size — the
    marginal value of storage decays once a site can hold everything its
    subtree asks for.  Degenerate inputs (no demand anywhere, optimizer
    infeasibility) fall back to a demand-proportional split.
    """
    names = sorted(demand_bytes)
    total = sum(demand_bytes.values())
    if budget <= 0 or not names:
        return {name: 0.0 for name in names}
    if total <= 0:
        share = budget / len(names)
        return {name: share for name in names}
    servers = []
    for name in names:
        working_set = unique_bytes.get(name, 0.0)
        if demand_bytes[name] <= 0 or working_set <= 0:
            continue
        servers.append(
            ServerModel(
                name=name,
                rate=demand_bytes[name],
                lam=1.0 / working_set,
            )
        )
    if servers:
        try:
            result = exponential_allocation(servers, budget)
            shares = {name: 0.0 for name in names}
            shares.update(result.allocations)
            return shares
        except AllocationError:
            pass  # degenerate optimizer input: fall through
    return {
        name: budget * demand_bytes[name] / total for name in names
    }


def _group_siblings(
    tree: RoutingTree, sites: list[str]
) -> dict[str, tuple[str, ...]]:
    """Sibling groups: caching sites that share a tree parent."""
    by_parent: dict[str, list[str]] = {}
    for site in sites:
        parent = tree.parent(site)
        if parent is not None:
            by_parent.setdefault(parent, []).append(site)
    groups: dict[str, tuple[str, ...]] = {}
    for members in by_parent.values():
        members.sort()
        for site in members:
            groups[site] = tuple(m for m in members if m != site)
    return groups


def _nearest_site_ancestor(
    tree: RoutingTree, site: str, site_set: set[str]
) -> str:
    """The deepest caching ancestor of a site, else the root."""
    path = tree.path_from_root(site)
    for node in reversed(path[:-1]):
        if node in site_set:
            return node
    return tree.root


def _build_specs(
    tree: RoutingTree,
    sites: list[str],
    holdings: dict[str, tuple[tuple[str, int], ...]],
) -> tuple[NodeSpec, ...]:
    """Assemble node specs (upstream, siblings, distances) for sites."""
    site_set = set(sites)
    siblings = _group_siblings(tree, sites)
    specs = []
    for site in sorted(sites, key=lambda s: (tree.depth(s), s)):
        upstream = _nearest_site_ancestor(tree, site, site_set)
        specs.append(
            NodeSpec(
                name=site,
                depth=tree.depth(site),
                upstream=upstream,
                upstream_distance=tree.distance(site, upstream),
                siblings=siblings.get(site, ()),
                sibling_distance=2,
                holdings=holdings.get(site, ()),
            )
        )
    return tuple(specs)


def _hierarchy_sites(
    tree: RoutingTree, per_client: dict[str, float]
) -> tuple[list[str], dict[str, list[str]]]:
    """Region and subnet sites with demand, and subnets per region."""
    regions: list[str] = []
    subnets_of: dict[str, list[str]] = {}
    demand_clients = {c for c, d in per_client.items() if d > 0}
    for node in sorted(tree.internal_nodes()):
        if not (node.startswith("region-") or node.startswith("subnet-")):
            continue
        if not (tree.subtree_leaves(node) & demand_clients):
            continue
        if node.startswith("region-"):
            regions.append(node)
        else:
            parent = tree.parent(node)
            subnets_of.setdefault(parent or tree.root, []).append(node)
    sites = list(regions)
    for region in regions:
        sites.extend(sorted(subnets_of.get(region, [])))
    return sites, subnets_of


def _hierarchical_holdings(
    tree: RoutingTree,
    per_site: dict[str, dict[str, float]],
    sizes: dict[str, int],
    regions: list[str],
    subnets_of: dict[str, list[str]],
    budget_bytes: float,
    region_fraction: float,
    policy: str,
) -> dict[str, tuple[tuple[str, int], ...]]:
    """Holdings for the hierarchical / cooperative placement families."""
    region_demand = {
        region: _demand_bytes(per_site.get(region, {})) for region in regions
    }
    region_unique = {
        region: float(
            sum(sizes[d] for d in per_site.get(region, {}) if d in sizes)
        )
        for region in regions
    }
    region_budget = _split_budget(region_demand, region_unique, budget_bytes)

    holdings: dict[str, tuple[tuple[str, int], ...]] = {}
    for region in regions:
        ranked = _ranked_docs(per_site.get(region, {}), sizes)
        head_budget = region_fraction * region_budget.get(region, 0.0)
        holdings[region] = _pack(ranked, head_budget, frozenset())
        region_docs = frozenset(doc for doc, _ in holdings[region])

        subnets = sorted(subnets_of.get(region, []))
        if not subnets:
            continue
        remainder = region_budget.get(region, 0.0) - sum(
            size for _, size in holdings[region]
        )
        subnet_demand = {
            subnet: _demand_bytes(per_site.get(subnet, {}))
            for subnet in subnets
        }
        demand_total = sum(subnet_demand.values())
        budgets = {
            subnet: (
                remainder * subnet_demand[subnet] / demand_total
                if demand_total > 0
                else remainder / max(1, len(subnets))
            )
            for subnet in subnets
        }
        if policy == "hierarchical":
            for subnet in subnets:
                ranked_subnet = _ranked_docs(per_site.get(subnet, {}), sizes)
                holdings[subnet] = _pack(
                    ranked_subnet, budgets[subnet], region_docs
                )
        else:  # cooperative / power-of-d: coordinate across siblings
            tail = [
                (doc, size)
                for doc, size in _ranked_docs(per_site.get(region, {}), sizes)
                if doc not in region_docs
            ]
            picked: dict[str, list[tuple[str, int]]] = {
                subnet: [] for subnet in subnets
            }
            used = {subnet: 0 for subnet in subnets}
            # Hot head: replicate at every subnet (half the budget).
            replicated: dict[str, frozenset[str]] = {}
            for subnet in subnets:
                head = _pack(tail, 0.5 * budgets[subnet], frozenset())
                picked[subnet] = list(head)
                used[subnet] = sum(size for _, size in head)
                replicated[subnet] = frozenset(doc for doc, _ in head)
            # Tail: partition round-robin across the sibling group.
            for index, (doc, size) in enumerate(tail):
                subnet = subnets[index % max(1, len(subnets))]
                if doc in replicated[subnet]:
                    continue
                if used[subnet] + size > budgets[subnet]:
                    continue
                picked[subnet].append((doc, size))
                used[subnet] += size
            for subnet in subnets:
                entries = sorted(set(picked[subnet]))
                holdings[subnet] = tuple(entries)
    return holdings


def _flat_holdings(
    per_site: dict[str, dict[str, float]],
    sizes: dict[str, int],
    tree: RoutingTree,
    sites: list[str],
    budget_bytes: float,
) -> dict[str, tuple[tuple[str, int], ...]]:
    """Holdings for the flat (greedy / geographic) site families."""
    demand = {site: _demand_bytes(per_site.get(site, {})) for site in sites}
    unique = {
        site: float(
            sum(sizes[d] for d in per_site.get(site, {}) if d in sizes)
        )
        for site in sites
    }
    budgets = _split_budget(demand, unique, budget_bytes)
    site_set = set(sites)
    holdings: dict[str, tuple[tuple[str, int], ...]] = {}
    # Dedupe against the nearest caching ancestor, shallowest first.
    for site in sorted(sites, key=lambda s: (tree.depth(s), s)):
        exclude: set[str] = set()
        ancestor = _nearest_site_ancestor(tree, site, site_set)
        if ancestor in holdings:
            exclude = {doc for doc, _ in holdings[ancestor]}
        ranked = _ranked_docs(per_site.get(site, {}), sizes)
        holdings[site] = _pack(
            ranked, budgets.get(site, 0.0), frozenset(exclude)
        )
    return holdings


def build_fleet_plan(
    tree: RoutingTree,
    train: Trace,
    *,
    budget_bytes: float,
    policy: str = "hierarchical",
    region_fraction: float = 0.5,
) -> FleetPlan:
    """Plan a proxy fleet from a training trace at a total storage budget.

    Args:
        tree: The clientele routing tree.
        train: Training (history) trace driving demand estimates.
        budget_bytes: **Total** storage across every fleet node.
        policy: One of :data:`FLEET_POLICIES`.
        region_fraction: Fraction of each region's share kept at the
            region node (the rest goes to its subnets).

    Raises:
        SimulationError: On an unknown policy or a fractional knob out
            of range.
    """
    if policy not in FLEET_POLICIES:
        raise SimulationError(
            f"unknown fleet policy {policy!r}; choose from {FLEET_POLICIES}"
        )
    if not 0.0 <= region_fraction <= 1.0:
        raise SimulationError("region_fraction must be within [0, 1]")
    sizes = {doc_id: doc.size for doc_id, doc in train.documents.items()}

    if policy in ("hierarchical", "cooperative", "power-of-d"):
        probe_sites = sorted(
            node
            for node in tree.internal_nodes()
            if node.startswith("region-") or node.startswith("subnet-")
        )
        per_site, per_client = _subtree_demand(tree, train, probe_sites)
        sites, subnets_of = _hierarchy_sites(tree, per_client)
        regions = [s for s in sites if s.startswith("region-")]
        holdings = _hierarchical_holdings(
            tree,
            per_site,
            sizes,
            regions,
            subnets_of,
            budget_bytes,
            region_fraction,
            policy,
        )
        probe_mode = "hashed" if policy == "power-of-d" else "directory"
        return FleetPlan(
            root=tree.root,
            policy=policy,
            budget_bytes=budget_bytes,
            nodes=_build_specs(tree, sites, holdings),
            probe_mode=probe_mode,
        )

    # Flat families: sites come from the existing placement functions.
    internal = sorted(tree.internal_nodes())
    per_client_demand: dict[str, float] = {}
    columns = train.columns
    for client, size in zip(columns.client_id_list(), columns.size.tolist()):
        per_client_demand[client] = per_client_demand.get(client, 0.0) + size
    n_sites = sum(
        1
        for node in internal
        if node.startswith("region-") or node.startswith("subnet-")
    )
    if policy == "greedy":
        sites = greedy_tree_placement(tree, per_client_demand, n_sites)
    else:
        sites = geographic_placement(tree, per_client_demand, n_sites)
    per_site, _ = _subtree_demand(tree, train, sites)
    holdings = _flat_holdings(per_site, sizes, tree, sites, budget_bytes)
    return FleetPlan(
        root=tree.root,
        policy=policy,
        budget_bytes=budget_bytes,
        nodes=_build_specs(tree, sites, holdings),
        probe_mode="directory",
    )


def build_single_tier_plan(
    tree: RoutingTree,
    train: Trace,
    *,
    budget_bytes: float,
    regions: list[str],
    holdings: dict[str, int],
) -> FleetPlan:
    """The single-tier reference deployment at equal total storage.

    Every region proxy replicates the same origin-computed dissemination
    plan — the pre-fleet runtime's arrangement — with each replica
    holding a ``1/len(regions)`` share of the budget so total storage
    matches the fleet plan it is compared against.
    """
    entries = tuple(sorted((doc, int(size)) for doc, size in holdings.items()))
    per_region = {region: entries for region in regions}
    return FleetPlan(
        root=tree.root,
        policy="single-tier",
        budget_bytes=budget_bytes,
        nodes=_build_specs(tree, list(regions), per_region),
        probe_mode="directory",
    )

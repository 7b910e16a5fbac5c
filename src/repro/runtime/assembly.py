"""The one in-process assembly of the live system.

Every in-process execution shape — ``repro loadtest`` (flat region
proxies), ``repro chaos`` (the same under a fault plan), the sharded
loadtest workers and all three ``repro fleet`` arms — is the same
system with different node specs: an origin, one
:class:`~repro.runtime.node.CacheNode` per spec, an optional fault
injector and dissemination daemon, and the load generator, all on one
seeded :class:`~repro.runtime.transport.InMemoryNetwork` under the
virtual clock.  :func:`run_live` is that wiring, once;
:class:`PreparedTrace` is the workload → train/serve → routing-tree
prep every shape starts from.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import asdict
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from ..config import SECONDS_PER_DAY, BaselineConfig, DeploySpec
from ..core.planner import DisseminationPlanner
from ..core.sampling import estimate_ratios
from ..errors import SimulationError, TransportError
from ..obs import (
    ArmObservations,
    MetricsRegistry,
    ObsBundle,
    ObsConfig,
    RunObservations,
    run_manifest,
)
from ..speculation.policies import SpeculationPolicy, ThresholdPolicy
from ..speculation.riders import RiderTable
from ..topology.builder import build_clientele_tree
from ..topology.tree import RoutingTree
from ..trace.profiler import TraceProfiler, WorkloadProfile
from ..trace.records import Trace
from ..trace.sampling import SampledRatioReport, SamplingConfig, sample_clients
from ..workload.generator import GeneratorConfig, SyntheticTraceGenerator
from .daemon import DisseminationDaemon
from .estimator import OnlineDependencyEstimator
from .faults import FaultInjector, FaultPlan
from .loadgen import ClientRoute, LoadConfig, LoadGenerator
from .messages import Message
from .node import CacheNode, NodeSpec
from .origin import OriginServer
from .transport import InMemoryNetwork


class RunKnobs(Protocol):
    """The run knobs every settings class shares (read-only here)."""

    seed: int
    drop_probability: float
    concurrency: int
    request_timeout: float
    retries: int
    cooperative: bool
    train_fraction: float


class PreparedTrace:
    """Workload, sample, train/serve split and routing tree of one run.

    Built once per engine call so every arm replays byte-identical
    inputs; the loadtest and fleet engines extend it with their plans.

    Raises:
        SimulationError: On a workload too small to split.
    """

    #: Estimator knobs; frozen (the parity-preserving mode) by default.
    learn_online = False
    refresh_interval = 512

    def __init__(
        self,
        workload: GeneratorConfig,
        settings: RunKnobs,
        config: BaselineConfig,
        sampling: SamplingConfig | None = None,
        *,
        what: str,
    ):
        self.workload = workload
        self.settings = settings
        self.config = config
        trace = SyntheticTraceGenerator(workload).generate().remote_only()
        self.sampling_report: SampledRatioReport | None = None
        self.profile: WorkloadProfile | None = None
        if sampling is not None:
            # Estimate the four ratios (with intervals) from the batch
            # replay of the sample while the full trace is still in
            # hand, then thin the live replay to the same clients.  The
            # live arms report the sample's point ratios; the estimates
            # quantify how far the sample can sit from the population.
            train_days = (
                settings.train_fraction * trace.duration / SECONDS_PER_DAY
            )
            self.sampling_report = estimate_ratios(
                trace, sampling, config=config, train_days=train_days
            )
            trace = sample_clients(
                trace, sampling.fraction, seed=sampling.seed
            )
            if sampling.profile:
                self.profile = TraceProfiler(
                    stride_timeout=config.stride_timeout
                ).profile(trace)
        if len(trace) < 10:
            raise SimulationError(f"workload too small for a {what}")

        boundary = trace.start_time + settings.train_fraction * trace.duration
        self.train = trace.window(trace.start_time, boundary)
        self.serve = trace.window(boundary, trace.end_time + 1.0)
        if len(self.train) == 0 or len(self.serve) == 0:
            raise SimulationError(
                "train/serve split produced an empty half; "
                "adjust train_fraction or enlarge the workload"
            )
        self.catalog = trace.documents
        self.tree = build_clientele_tree(trace)
        self.policy = ThresholdPolicy(
            threshold=config.threshold, max_size=config.max_size
        )

    def origin_plan(self, budget_bytes: float) -> dict[str, int]:
        """The origin-computed dissemination plan (``doc_id → size``)
        every replica of a flat tier holds, at a per-replica budget."""
        planner = DisseminationPlanner(remote_only=True)
        planner.add_server(self.tree.root, self.train)
        plan = planner.plan(budget_bytes)
        return {
            doc_id: self.catalog[doc_id].size
            for doc_id in plan.documents.get(self.tree.root, ())
            if doc_id in self.catalog
        }

    def region_routes(self) -> tuple[list[str], dict[str, ClientRoute]]:
        """The flat tier's geometry: the regions covering at least one
        serving client (sorted), and every client's route to its own."""
        routes = entry_routes(
            self.tree,
            (node for node in self.tree.nodes() if node.startswith("region-")),
            self.serve.clients(),
        )
        covering = {route.target for route in routes.values()}
        return sorted(covering - {self.tree.root}), routes

    def fresh_estimator(self) -> OnlineDependencyEstimator:
        """A warm estimator; each arm gets its own (no state bleed)."""
        estimator = OnlineDependencyEstimator(
            window=self.config.stride_timeout,
            stride_timeout=self.config.stride_timeout,
            learn=self.learn_online,
            refresh_interval=self.refresh_interval,
        )
        estimator.warm(self.train)
        return estimator

    def observations(
        self,
        speculative: ArmObservations | None,
        baseline: ArmObservations | None,
        **sections: object,
    ) -> RunObservations | None:
        """Bundle two arms' observations with a provenance manifest.

        ``sections`` are extra manifest config sections (the fleet adds
        its plan summary); a sampled run's estimates and workload
        profile ride along as manifest extras.
        """
        if speculative is None or baseline is None:
            return None
        extra: dict[str, object] = {}
        if self.sampling_report is not None:
            extra["sampling"] = self.sampling_report.to_dict()
        if self.profile is not None:
            extra["workload_profile"] = self.profile.to_dict()
        return RunObservations(
            speculative=speculative,
            baseline=baseline,
            manifest=run_manifest(
                seed=self.workload.seed,
                config={
                    "workload": asdict(self.workload),
                    "settings": asdict(self.settings),
                    "cost_model": asdict(self.config),
                    **sections,
                },
                extra=extra or None,
            ),
        )


def load_config(settings: RunKnobs) -> LoadConfig:
    """The load generator's knobs, as every settings class spells them."""
    return LoadConfig(
        concurrency=settings.concurrency,
        request_timeout=settings.request_timeout,
        retries=settings.retries,
        cooperative=settings.cooperative,
        backoff_seed=settings.seed,
    )


def resolve_local_deploy(deploy: DeploySpec | None, workers: int = 1) -> int:
    """The worker count a local DeploySpec asks for (``workers`` when
    there is no spec).

    Raises:
        SimulationError: When the spec is distributed — in-process
            executors cannot honour it, and silently downgrading a
            multi-process request would misreport what ran.
    """
    if deploy is None:
        return workers
    if not deploy.local:
        raise SimulationError(
            f"DeploySpec(processes={deploy.processes}) is distributed; "
            "run it through repro.deploy.execute_deploy "
            "(or Session.deploy)"
        )
    return deploy.workers


def entry_routes(
    tree: RoutingTree, sites: Iterable[str], clients: Iterable[str]
) -> dict[str, ClientRoute]:
    """Each client's entry node: its deepest caching ancestor among
    ``sites`` (the origin itself when no site covers the client)."""
    caching = set(sites)
    routes: dict[str, ClientRoute] = {}
    for client in clients:
        ancestors = reversed(tree.path_from_root(client)[:-1])
        entry = next((node for node in ancestors if node in caching), tree.root)
        routes[client] = ClientRoute(
            target=entry,
            target_depth=tree.depth(entry),
            depth=tree.depth(client),
        )
    return routes


def _tree_hop_count(tree: RoutingTree) -> Callable[[str, str], int]:
    """A memoized tree-distance latency weight for the network."""

    @functools.cache
    def hop_count(source: str, destination: str) -> int:
        if source in tree and destination in tree:
            return tree.distance(source, destination)
        return 1  # the network clamps to one hop at least

    return hop_count


async def run_live(
    serve: Trace,
    tree: RoutingTree,
    specs: Sequence[NodeSpec],
    routes: dict[str, ClientRoute],
    *,
    label: str,
    config: BaselineConfig,
    settings: RunKnobs,
    estimator: OnlineDependencyEstimator,
    origin_policy: SpeculationPolicy | None,
    node_riders: RiderTable | None = None,
    directory_for: Callable[[str], Mapping[str, tuple[str, ...]]] | None = None,
    probe_mode: str = "directory",
    probe_siblings: int = 0,
    probe_timeout: float | None = None,
    daemon_budget: float | None = None,
    daemon_interval: float | None = None,
    fault_plan: FaultPlan | None = None,
    obs: ObsConfig | None = None,
    clients: frozenset[str] | None = None,
) -> tuple[MetricsRegistry, ArmObservations | None]:
    """One full live replay; returns (registry, observations-or-None).

    Args:
        serve: The serving half of the trace.
        tree: The clientele routing tree (latency weights, origin name).
        specs: One cache node per spec; a flat tier is sibling-less
            specs whose upstream is the origin.
        routes: Each client's entry node and costing geometry.
        label: Node counter namespace (see
            :class:`~repro.runtime.node.CacheNode`).
        config: The paper's cost model and timeouts.
        settings: The shared run knobs (network seed and drop rate,
            load-generator limits).
        estimator: The origin's (warm) dependency estimator.
        origin_policy: Origin-side speculation, read through a rider
            table over the estimator's model; None serves demand only.
        node_riders: Node-side speculation (one table shared by every
            node, each restricted to its holdings); None disables it.
        directory_for: ``node name → (doc_id → sibling names)`` probe
            map for directory-mode sibling probes.
        probe_mode: ``"directory"`` or ``"hashed"`` sibling choice.
        probe_siblings: Siblings probed per miss; 0 disables probing.
        probe_timeout: Per-probe timeout in virtual seconds.
        daemon_budget: Storage budget of a dissemination daemon that
            keeps **one shared plan** on every node (the flat tier).
            The daemon runs when ``daemon_interval`` is set or a fault
            plan is given; under faults it is the anti-entropy channel
            that re-pushes the plan to restarted nodes.  None means no
            daemon: restarted nodes get their own planned holdings
            re-pushed directly (per-node plans, the fleet).
        daemon_interval: Virtual seconds between daemon replans; None
            plans never (anti-entropy only).
        fault_plan: Scripted faults; None runs clean.
        obs: Observability channels; None (or all-off) adds nothing.
        clients: Restricts the load generator to a subset of the
            serving trace's clients (the sharded loadtest's per-worker
            filter); None replays every client.  Topology, holdings
            and routing stay those of the full population either way,
            so shard counters add up exactly.
    """
    loop = asyncio.get_running_loop()
    network = InMemoryNetwork(
        seed=settings.seed,
        drop_probability=settings.drop_probability,
        hop_count=_tree_hop_count(tree),
    )
    bundle = ObsBundle.from_config(obs)
    metrics = bundle.registry
    metrics.bind_clock(loop.time)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan, seed=settings.seed, metrics=metrics)
        network.attach_faults(injector)

    origin_endpoint = network.endpoint(tree.root)
    origin_riders = None
    if origin_policy is not None:
        origin_riders = RiderTable(
            origin_policy, estimator.model, serve.documents, config.max_size
        )
    origin = OriginServer(
        serve.documents,
        estimator=estimator,
        riders=origin_riders,
        metrics=metrics,
        name=tree.root,
    )
    origin_endpoint.start(origin.handle)

    endpoints = []
    nodes: list[CacheNode] = []
    for spec in specs:
        endpoint = network.endpoint(spec.name)
        node = CacheNode(
            spec,
            endpoint,
            label=label,
            metrics=metrics,
            directory=None if directory_for is None else directory_for(spec.name),
            probe_mode=probe_mode,
            probe_siblings=probe_siblings,
            probe_timeout=probe_timeout,
            riders=node_riders,
            upstream_timeout=settings.request_timeout,
            backoff_seed=settings.seed,
        )
        endpoint.start(node.handle)
        endpoints.append(endpoint)
        nodes.append(node)

    background: list[asyncio.Task[None]] = []
    daemon = None
    if daemon_budget is not None and (
        daemon_interval is not None or injector is not None
    ):
        # Under a fault plan the daemon always runs (interval=None makes
        # it anti-entropy only) so restarted proxies get their holdings
        # re-pushed instead of degrading to forward-everything.
        shared_plan = specs[0].holdings if specs else ()
        daemon = DisseminationDaemon(
            origin,
            origin_endpoint,
            [spec.name for spec in specs],
            budget_bytes=daemon_budget,
            interval=daemon_interval,
            metrics=metrics,
            static_entries=[list(pair) for pair in shared_plan],
        )
        background.append(loop.create_task(daemon.run()))

    if injector is not None:

        async def repush(spec: NodeSpec) -> None:
            """Anti-entropy: push a restarted node's planned holdings back."""
            message = Message(
                kind="push",
                sender=origin_endpoint.name,
                request_id=origin_endpoint.next_request_id(),
                payload={
                    "documents": [list(pair) for pair in spec.holdings],
                    "mode": "replace",
                },
                body_bytes=spec.holdings_bytes,
            )
            try:
                await origin_endpoint.call(
                    spec.name, message, timeout=settings.request_timeout
                )
            except TransportError:
                metrics.counter(f"{label}.failed_repushes").inc()
                return
            metrics.counter(f"{label}.repushes").inc()
            metrics.counter(f"{label}.repushed_bytes").inc(spec.holdings_bytes)

        def restart_hook(restarted: CacheNode) -> Callable[[], None]:
            def hook() -> None:
                restarted.on_restart()
                if daemon is not None:
                    daemon.request_repush(restarted.name)
                elif restarted.spec.holdings:
                    background.append(loop.create_task(repush(restarted.spec)))

            return hook

        for node in nodes:
            injector.register_node(
                node.name,
                on_crash=node.on_crash,
                on_restart=restart_hook(node),
            )
        if daemon is not None:
            injector.register_daemon(pause=daemon.pause, resume=daemon.resume)
        background.append(loop.create_task(injector.run()))

    streams = serve.by_client()
    if clients is not None:
        streams = {
            client: requests
            for client, requests in streams.items()
            if client in clients
        }
    generator = LoadGenerator(
        network,
        routes,
        streams,
        origin_name=tree.root,
        config=config,
        load=load_config(settings),
        metrics=metrics,
    )
    started = loop.time()
    try:
        await generator.run()
    finally:
        for task in background:
            task.cancel()
        if background:
            await asyncio.gather(*background, return_exceptions=True)
        for node in nodes:
            await node.close()
        for endpoint in endpoints:
            await endpoint.close()
        await origin_endpoint.close()

    metrics.counter("run.virtual_seconds").inc(round(loop.time() - started, 9))
    for name, value in network.stats().items():
        metrics.counter(f"network.{name}").inc(value)
    observed = (
        bundle.observations() if obs is not None and obs.enabled else None
    )
    return metrics, observed

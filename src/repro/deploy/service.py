"""The deployment coordinator: one DeploySpec, local or distributed.

:func:`execute_deploy` is the front door of :mod:`repro.deploy`.  Given
a :class:`~repro.config.DeploySpec` it either delegates to the
in-process executor (``processes == 1`` — a plain
:func:`~repro.runtime.service.execute_loadtest`) or stands up a real
multi-process system: ``shards`` origin processes (consistent hashing
over document ids, ``replicas``-way failover), the remaining processes
hosting the region proxies, all wired by the TCP transport and
coordinated over a durable JSONL event bus.

The coordinator itself runs the load generator: it publishes the
dissemination decision and per-proxy placements (twice — at-least-once
delivery is part of the contract, the consumers' duplicate filters
absorb the redundancy), collects ready events into a topology, replays
the serving trace over a :class:`~repro.deploy.mesh.TcpMesh`, then
publishes shutdown and merges every process's exact counter state into
one conservation-checked snapshot.

Because the four paper ratios are pure functions of client-side
counters, and every reply a sharded origin produces is byte-identical
to the single-loop origin's (full catalog, same warm frozen estimator,
same logical ``served_by`` name), a clean distributed run reproduces
the single-loop ratios **bit for bit** — :func:`execute_deploy_smoke`
asserts exactly that, then repeats the run under a scripted
crash/partition :class:`DeployFaultPlan` and holds the ratios to the
chaos gate's tolerance.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from ..config import BASELINE, LOCAL_DEPLOY, BaselineConfig, DeploySpec
from ..errors import RuntimeProtocolError, SimulationError
from ..obs import merge_registry_states
from ..runtime.assembly import load_config
from ..runtime.loadgen import LoadGenerator
from ..runtime.metrics import default_registry, live_ratios, verify_conservation
from ..runtime.service import (
    ChaosReport,
    LiveReport,
    LiveSettings,
    execute_loadtest,
    prepare_live_run,
    require_shard_exact,
    smoke_workload,
)
from ..speculation.metrics import SpeculationRatios
from ..workload.generator import GeneratorConfig
from .bus import (
    TOPIC_ANTI_ENTROPY,
    TOPIC_CONTROL,
    TOPIC_DISSEMINATION,
    TOPIC_PLACEMENT,
    TOPIC_READY,
    TOPIC_REGISTRY,
    TOPIC_TOPOLOGY,
    EventBus,
    TopicConsumer,
)
from .mesh import TcpMesh
from .ring import HashRing, shard_name
from .workers import (
    ProxyFault,
    ProxyHostContext,
    ShardContext,
    holdings_digest,
    run_origin_shard,
    run_proxy_host,
)

__all__ = [
    "DeployFaultPlan",
    "DeployReport",
    "DeploySmokeReport",
    "deploy_smoke_fault_plan",
    "deploy_smoke_spec",
    "execute_deploy",
    "execute_deploy_smoke",
]

#: Seconds the coordinator waits for worker readiness / final exports.
STARTUP_TIMEOUT = 60.0
#: Seconds a worker waits for the shutdown event before giving up.
RUN_TIMEOUT = 900.0
_JOIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class DeployFaultPlan:
    """Scripted crash/partition faults for a distributed deployment.

    Triggers count **inbound requests at the targeted proxy** rather
    than virtual time — across real processes there is no shared
    virtual clock, and request counts make the script reproducible for
    a fixed workload.  Indexes select from the sorted proxy list, the
    same convention as :class:`~repro.runtime.service.ChaosSettings`.

    Attributes:
        crash_proxy: Index of the proxy to crash; None disables.
        crash_after: Inbound request count that trips the crash.
        restart_after: Count at which it restarts (recovering holdings
            by replaying the bus's placement topic); None stays down.
        partition_proxy: Index of the proxy whose upstream link
            partitions; None disables.
        partition_from: Count at which the partition starts.
        partition_until: Count at which it heals; None never heals.
    """

    crash_proxy: int | None = None
    crash_after: int = 10
    restart_after: int | None = None
    partition_proxy: int | None = None
    partition_from: int = 10
    partition_until: int | None = None

    def resolve(self, proxies: Sequence[str]) -> dict[str, ProxyFault]:
        """Bind the indexes to proxy names.

        Raises:
            SimulationError: When an index is outside the topology.
        """

        def name(index: int) -> str:
            if not 0 <= index < len(proxies):
                raise SimulationError(
                    f"fault plan targets proxy index {index} but the "
                    f"topology has {len(proxies)} proxies"
                )
            return proxies[index]

        faults: dict[str, ProxyFault] = {}
        if self.crash_proxy is not None:
            faults[name(self.crash_proxy)] = ProxyFault(
                crash_after=self.crash_after,
                restart_after=self.restart_after,
            )
        if self.partition_proxy is not None:
            target = name(self.partition_proxy)
            base = faults.get(target, ProxyFault())
            faults[target] = replace(
                base,
                partition_from=self.partition_from,
                partition_until=self.partition_until,
            )
        return faults


@dataclass(frozen=True)
class DeployReport:
    """Everything one deployment produced — the LiveReport shape plus
    the distributed extras.

    Attributes:
        spec: The deployment spec that ran.
        baseline: Merged metrics snapshot of the demand-only arm.
        speculative: Merged snapshot of the speculative arm.
        ratios: The paper's four ratios from the two snapshots.
        disseminated_documents: Documents the plan placed on proxies.
        processes: OS processes each arm ran (1 for a local spec).
        bus_path: Event-bus directory (None for a local spec); each arm
            logs under its own subdirectory.
        bus_duplicates: Duplicate bus events the consumers' filters
            absorbed across both arms (≥ one per proxy per arm, by
            construction — the coordinator double-publishes placements).
        anti_entropy: ``proxy → holdings digest`` reported by the
            speculative arm's proxy hosts at shutdown.
        fault_events: ``(time, label)`` fault timeline from the
            speculative arm (empty without a fault plan).
    """

    spec: DeploySpec
    baseline: dict[str, Any]
    speculative: dict[str, Any]
    ratios: SpeculationRatios
    disseminated_documents: int = 0
    processes: int = 1
    bus_path: str | None = None
    bus_duplicates: int = 0
    anti_entropy: dict[str, str] | None = None
    fault_events: tuple[tuple[float, str], ...] = ()

    def live(self) -> LiveReport:
        """This deployment as a plain LiveReport (one report shape)."""
        return LiveReport(
            baseline=self.baseline,
            speculative=self.speculative,
            ratios=self.ratios,
            disseminated_documents=self.disseminated_documents,
        )


@dataclass(frozen=True)
class DeploySmokeReport:
    """What ``repro deploy --smoke`` produced.

    Attributes:
        deploy: The clean distributed run.
        local: The single-loop reference at the same seed (its four
            ratios must equal ``deploy.ratios`` bit for bit).
        faulted: The distributed run under the scripted fault plan.
        chaos: The clean/faulted pair as a chaos report (the
            resilience gate ran on it).
    """

    deploy: DeployReport
    local: LiveReport
    faulted: DeployReport
    chaos: ChaosReport

    @property
    def bus_path(self) -> str | None:
        """The clean run's bus directory (CI uploads it on failure)."""
        return self.deploy.bus_path


def _assign_proxies(
    proxies: Sequence[str], hosts: int
) -> list[tuple[str, ...]]:
    """Round-robin the sorted proxies across ``hosts`` buckets."""
    buckets: list[list[str]] = [[] for _ in range(hosts)]
    for position, proxy in enumerate(sorted(proxies)):
        buckets[position % hosts].append(proxy)
    return [tuple(bucket) for bucket in buckets]


async def _gather_events(
    consumer: TopicConsumer, kind: str, count: int, *, timeout: float
) -> list[Any]:
    """Collect ``count`` events of ``kind``, surfacing worker crashes.

    Raises:
        SimulationError: On a ``worker-error`` event or a timeout.
    """
    events: list[Any] = []
    while len(events) < count:
        event = await consumer.await_event(
            lambda ev: ev.kind in (kind, "worker-error"), timeout=timeout
        )
        if event.kind == "worker-error":
            raise SimulationError(
                f"deployment worker {event.payload.get('node')!r} failed: "
                f"{event.payload.get('error')}"
            )
        events.append(event)
    return events


async def _coordinate(
    prepared: Any, spec: DeploySpec, bus: EventBus
) -> tuple[dict[str, Any], list[dict[str, Any]], dict[str, str]]:
    """The parent's async leg of one arm.

    Collects shard readiness, publishes the topology, collects proxy
    readiness, drives the load generator over the mesh, then shuts the
    fleet down and collects registry exports and anti-entropy digests.

    Returns:
        ``(parent registry state, worker states, proxy digests)``.
    """
    ready = bus.consumer(TOPIC_READY)
    registry = bus.consumer(TOPIC_REGISTRY)
    anti_entropy = bus.consumer(TOPIC_ANTI_ENTROPY)

    shard_ready = await _gather_events(
        ready, "ready", spec.shards, timeout=STARTUP_TIMEOUT
    )
    shard_nodes = {
        str(event.payload["node"]): [
            str(event.payload["host"]),
            int(event.payload["port"]),
        ]
        for event in shard_ready
    }
    bus.publish(
        TOPIC_TOPOLOGY, "topology", {"nodes": shard_nodes}, event_id="topology"
    )
    proxy_ready = await _gather_events(
        ready, "ready", len(prepared.proxies), timeout=STARTUP_TIMEOUT
    )

    directory: dict[str, tuple[str, int]] = {
        node: (entry[0], entry[1]) for node, entry in shard_nodes.items()
    }
    for event in proxy_ready:
        directory[str(event.payload["node"])] = (
            str(event.payload["host"]),
            int(event.payload["port"]),
        )

    settings = prepared.settings
    metrics = default_registry()
    loop = asyncio.get_running_loop()
    metrics.bind_clock(loop.time)
    mesh = TcpMesh(directory, timeout=settings.request_timeout)
    generator = LoadGenerator(
        mesh,
        prepared.routes,
        prepared.serve.by_client(),
        origin_name=prepared.tree.root,
        config=prepared.config,
        load=load_config(settings),
        metrics=metrics,
        resolver=HashRing(spec.shards).resolver(spec.replicas),
    )
    started = loop.time()
    try:
        await generator.run()
    finally:
        bus.publish(TOPIC_CONTROL, "shutdown", {}, event_id="shutdown")
    # The counter name is historical ("virtual" under the in-memory
    # clock); in a deployment it is the coordinator's real wall time,
    # and the cross-process merge takes the max, not the sum.
    metrics.counter("run.virtual_seconds").inc(round(loop.time() - started, 9))
    await mesh.close()
    for name, value in mesh.stats().items():
        metrics.counter(f"network.{name}").inc(value)

    expected = spec.shards + spec.proxy_hosts
    registry_events = await _gather_events(
        registry, "registry", expected, timeout=STARTUP_TIMEOUT
    )
    digest_events = await _gather_events(
        anti_entropy, "digest", spec.proxy_hosts, timeout=STARTUP_TIMEOUT
    )
    worker_states = [
        event.payload["state"]
        for event in sorted(
            registry_events, key=lambda ev: str(ev.payload["process"])
        )
    ]
    digests: dict[str, str] = {}
    for event in digest_events:
        digests.update(
            {str(k): str(v) for k, v in event.payload["holdings"].items()}
        )
    return metrics.export_state(), worker_states, digests


def _run_arm(
    prepared: Any,
    spec: DeploySpec,
    *,
    speculative: bool,
    bus_path: Path,
    faults: dict[str, ProxyFault],
) -> tuple[dict[str, Any], dict[str, str]]:
    """One distributed arm: fork, coordinate, join, merge.

    Returns the merged snapshot and the proxies' holdings digests.
    """
    bus = EventBus(bus_path)
    documents = (
        [[doc_id, size] for doc_id, size in sorted(prepared.holdings.items())]
        if speculative
        else []
    )
    bus.publish(
        TOPIC_DISSEMINATION,
        "plan",
        {"documents": documents, "speculative": speculative},
        event_id="plan",
    )
    for proxy in prepared.proxies:
        payload = {"proxy": proxy, "documents": documents, "mode": "replace"}
        # Published twice under one event id: the bus contract is
        # at-least-once, and the consumers' duplicate filters must be
        # exercised on the production path, not just in tests.
        for _ in range(2):
            bus.publish(
                TOPIC_PLACEMENT,
                "placement",
                payload,
                event_id=f"placement:{proxy}:0",
            )

    buckets = _assign_proxies(prepared.proxies, spec.proxy_hosts)
    contexts: list[tuple[Any, Any]] = [
        (
            run_origin_shard,
            ShardContext(
                index=index,
                bus_path=str(bus_path),
                prepared=prepared,
                speculative=speculative,
                host=spec.host,
                startup_timeout=STARTUP_TIMEOUT,
                run_timeout=RUN_TIMEOUT,
            ),
        )
        for index in range(spec.shards)
    ]
    contexts += [
        (
            run_proxy_host,
            ProxyHostContext(
                index=index,
                bus_path=str(bus_path),
                prepared=prepared,
                proxies=bucket,
                shards=spec.shards,
                replicas=spec.replicas,
                host=spec.host,
                faults={
                    proxy: faults[proxy] for proxy in bucket if proxy in faults
                },
                startup_timeout=STARTUP_TIMEOUT,
                run_timeout=RUN_TIMEOUT,
            ),
        )
        for index, bucket in enumerate(buckets)
    ]
    # Fork before any event loop exists in this function, so children
    # never inherit a live loop.
    mp = multiprocessing.get_context("fork")
    processes = [
        mp.Process(target=target, args=(context,), daemon=True)
        for target, context in contexts
    ]
    for process in processes:
        process.start()
    try:
        parent_state, worker_states, digests = asyncio.run(
            _coordinate(prepared, spec, bus)
        )
    finally:
        for process in processes:
            process.join(timeout=_JOIN_TIMEOUT)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    merged = merge_registry_states(
        [parent_state, *worker_states],
        max_counters=("run.virtual_seconds",),
    )
    return merged.snapshot(), digests


def _check_anti_entropy(
    prepared: Any, digests: dict[str, str], *, speculative: bool
) -> None:
    """Clean-run gate: every proxy's final holdings match the plan.

    Raises:
        RuntimeProtocolError: On a missing proxy or digest mismatch.
    """
    expected = holdings_digest(prepared.holdings if speculative else {})
    for proxy in prepared.proxies:
        reported = digests.get(proxy)
        if reported != expected:
            raise RuntimeProtocolError(
                f"anti-entropy digest mismatch on {proxy!r}: expected "
                f"{expected} got {reported}"
            )


def execute_deploy(
    workload: GeneratorConfig,
    settings: LiveSettings | None = None,
    *,
    config: BaselineConfig = BASELINE,
    spec: DeploySpec | None = None,
    fault_plan: DeployFaultPlan | None = None,
) -> DeployReport:
    """Run the baseline/speculative pair under one deployment spec.

    This is the engine behind :meth:`repro.api.Session.deploy` and
    ``repro deploy``.  A local spec (``processes == 1``) delegates to
    :func:`~repro.runtime.service.execute_loadtest` unchanged — local
    single-loop mode is just ``DeploySpec(processes=1)``.  A
    distributed spec forks shard/proxy processes per arm and merges
    their exact counter states; clean runs must pass the strict
    cross-process conservation check and the anti-entropy digest gate.

    Args:
        workload: Synthetic workload configuration (seeded).
        settings: Live-run knobs; defaults to :class:`LiveSettings`.
        config: The paper's cost model and timeouts.
        spec: The deployment spec; None means the local default.
        fault_plan: Scripted crash/partition faults (distributed specs
            only); conservation is then checked in non-strict mode.

    Raises:
        SimulationError: On an unusable workload/spec combination, a
            worker startup failure, or a fault plan with a local spec.
        RuntimeProtocolError: When conservation or anti-entropy checks
            fail.
    """
    spec = spec if spec is not None else LOCAL_DEPLOY
    settings = settings if settings is not None else LiveSettings()
    if spec.local:
        if fault_plan is not None:
            raise SimulationError(
                "fault plans require a distributed spec (processes > 1); "
                "local runs script faults via repro.runtime.execute_chaos"
            )
        report = execute_loadtest(workload, settings, config=config, deploy=spec)
        return DeployReport(
            spec=spec,
            baseline=report.baseline,
            speculative=report.speculative,
            ratios=report.ratios,
            disseminated_documents=report.disseminated_documents,
            processes=1,
        )

    require_shard_exact(settings)
    prepared = prepare_live_run(workload, settings, config=config)
    faults = (
        fault_plan.resolve(prepared.proxies) if fault_plan is not None else {}
    )
    bus_root = Path(
        spec.bus_path
        if spec.bus_path is not None
        else tempfile.mkdtemp(prefix="repro-deploy-")
    )

    baseline_snapshot, baseline_digests = _run_arm(
        prepared, spec, speculative=False,
        bus_path=bus_root / "baseline", faults=faults,
    )
    speculative_snapshot, speculative_digests = _run_arm(
        prepared, spec, speculative=True,
        bus_path=bus_root / "speculative", faults=faults,
    )

    clean = fault_plan is None
    verify_conservation(baseline_snapshot, strict=clean)
    verify_conservation(speculative_snapshot, strict=clean)
    if clean:
        _check_anti_entropy(prepared, baseline_digests, speculative=False)
        _check_anti_entropy(prepared, speculative_digests, speculative=True)

    fault_events = tuple(
        (float(time), str(name))
        for time, name in speculative_snapshot.get("events", ())
        if str(name).startswith("fault:")
    )
    duplicates = int(
        baseline_snapshot.get("counters", {}).get("bus.duplicate_events", 0)
        + speculative_snapshot.get("counters", {}).get(
            "bus.duplicate_events", 0
        )
    )
    return DeployReport(
        spec=spec,
        baseline=baseline_snapshot,
        speculative=speculative_snapshot,
        ratios=live_ratios(speculative_snapshot, baseline_snapshot),
        disseminated_documents=len(prepared.holdings),
        processes=spec.processes,
        bus_path=str(bus_root),
        bus_duplicates=duplicates,
        anti_entropy=dict(sorted(speculative_digests.items())),
        fault_events=fault_events,
    )


def deploy_smoke_spec() -> DeploySpec:
    """The 2-shard / 2-proxy-host topology ``repro deploy --smoke`` runs."""
    return DeploySpec(processes=4, shards=2, replicas=2)


def deploy_smoke_fault_plan() -> DeployFaultPlan:
    """The scripted faults of the deploy smoke's second run.

    Proxy 0 crashes early (losing its holdings) and recovers by bus
    replay; proxy 1's upstream link partitions for a window, exercising
    the breaker fast-fail path.  Triggers sit low so both arms (whose
    per-proxy request counts differ — speculation absorbs misses) hit
    them well inside their streams.
    """
    return DeployFaultPlan(
        crash_proxy=0,
        crash_after=10,
        restart_after=25,
        partition_proxy=1,
        partition_from=15,
        partition_until=30,
    )


def execute_deploy_smoke(
    seed: int = 0,
    *,
    tolerance: float = 0.05,
    bus_dir: str | None = None,
) -> DeploySmokeReport:
    """The ``repro deploy --smoke`` self-test (CI's deploy gate).

    Three runs at one seed: a clean distributed deployment, the
    single-loop reference (their four ratios must match **bit for
    bit** — the cross-process correctness gate), and the same
    deployment under the scripted crash/partition plan, whose ratios
    must stay within ``tolerance`` of the clean run's.

    Raises:
        RuntimeProtocolError: On any ratio mismatch, conservation
            violation, or anti-entropy failure.
    """
    workload = smoke_workload(seed)
    settings = LiveSettings(seed=seed)
    root = Path(
        bus_dir if bus_dir is not None
        else tempfile.mkdtemp(prefix="repro-deploy-smoke-")
    )
    spec = deploy_smoke_spec()

    clean = execute_deploy(
        workload,
        settings,
        spec=spec.with_updates(bus_path=str(root / "clean")),
    )
    local = execute_loadtest(workload, settings)
    if clean.ratios != local.ratios:
        raise RuntimeProtocolError(
            "distributed ratios diverge from the single-loop reference: "
            f"deploy {clean.ratios.format()} vs local {local.ratios.format()}"
        )

    faulted = execute_deploy(
        workload,
        settings,
        spec=spec.with_updates(bus_path=str(root / "faulted")),
        fault_plan=deploy_smoke_fault_plan(),
    )
    chaos = ChaosReport(
        clean=clean.live(),
        faulted=faulted.live(),
        fault_events=faulted.fault_events,
    )
    chaos.require_resilience(tolerance)
    return DeploySmokeReport(
        deploy=clean, local=local, faulted=faulted, chaos=chaos
    )

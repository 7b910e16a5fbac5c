"""Worker processes of a distributed deployment, and their fault hooks.

A deployment forks two kinds of workers from the coordinator:

* **Origin shards** (:func:`run_origin_shard`) — each runs a full
  :class:`~repro.runtime.origin.OriginServer` (complete catalog, its own
  warm frozen estimator) behind a
  :class:`~repro.runtime.transport.TcpServer`.  The consistent-hash ring
  partitions *demand* traffic: a shard only ever sees requests for the
  documents it owns (plus replica failovers), but answers them exactly
  as the single-loop origin would — same reply, same riders — because
  speculation is a pure function of (document, digest, frozen model).
  Every reply names the *logical* origin, so client-side accounting is
  oblivious to sharding.
* **Proxy hosts** (:func:`run_proxy_host`) — each hosts a subset of the
  region :class:`~repro.runtime.node.CacheNode` instances, one TCP
  listener per proxy, with upstream forwards resolved through the ring
  over a :class:`~repro.deploy.mesh.TcpMesh`.

Workers coordinate exclusively over the event bus: dissemination plan
in, ready/registry/anti-entropy events out, placement updates applied
through each proxy's public ``push`` handler (so a bus replay is
indistinguishable from a daemon re-push — that replay *is* the restart
recovery path).

Faults are injected at the application layer by
:class:`DeployFaultHandler`: a "crashed" proxy keeps its listener but
refuses with transport-error replies (clients retry and fail over,
exactly as they would against a dead process, minus non-deterministic
socket teardown), and a "partitioned" proxy's upstream link fails
pre-dial.  No frame is ever silently lost, so the cross-process
frame-conservation identity stays exact even under faults.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections.abc import Coroutine
from dataclasses import dataclass, field
from typing import Any

from ..errors import SimulationError
from ..runtime.messages import Message, make_error
from ..runtime.metrics import MetricsRegistry, default_registry
from ..runtime.node import CacheNode
from ..runtime.origin import OriginServer
from ..runtime.resilience import CircuitBreaker
from ..runtime.transport import FrameLedger, Handler, TcpServer
from ..speculation.riders import RiderTable
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
from .mesh import TcpMesh, TcpMeshEndpoint
from .ring import HashRing, shard_name

__all__ = [
    "DeployFaultHandler",
    "ProxyFault",
    "ProxyHostContext",
    "ShardContext",
    "holdings_digest",
    "proxy_host_name",
    "run_origin_shard",
    "run_proxy_host",
]

#: Breaker reset for proxy upstream links, in real seconds.  The
#: single-loop default (2× a 30 s timeout) is virtual-clock sized; on
#: real sockets a refusing shard answers instantly, so the breaker must
#: probe again quickly or one replica blip sticks for a minute of wall
#: time.
BREAKER_RESET_SECONDS = 0.25


def proxy_host_name(index: int) -> str:
    """Canonical process name of proxy host ``index``."""
    return f"proxy-host-{index}"


def holdings_digest(holdings: dict[str, int]) -> str:
    """Canonical digest of one node's holdings (anti-entropy token)."""
    canonical = json.dumps(sorted(holdings.items()), separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class ProxyFault:
    """Request-count fault triggers for one proxy.

    Deployment faults trigger on the proxy's inbound request count, not
    on virtual time (there is no virtual clock across processes): the
    ``N``-th inbound message trips the fault, which makes the scripted
    plan reproducible for a fixed workload regardless of scheduling.

    Attributes:
        crash_after: Inbound message count at which the proxy crashes
            (loses holdings, starts refusing); None never crashes.
        restart_after: Count at which a crashed proxy restarts and
            recovers holdings by replaying the placement topic; None
            stays down.
        partition_from: Count at which the upstream link partitions.
        partition_until: Count at which the partition heals; None never
            heals.
    """

    crash_after: int | None = None
    restart_after: int | None = None
    partition_from: int | None = None
    partition_until: int | None = None


@dataclass
class ShardContext:
    """Everything one origin-shard worker needs (passed through fork)."""

    index: int
    bus_path: str
    prepared: Any
    speculative: bool
    host: str = "127.0.0.1"
    startup_timeout: float = 30.0
    run_timeout: float = 900.0


@dataclass
class ProxyHostContext:
    """Everything one proxy-host worker needs (passed through fork)."""

    index: int
    bus_path: str
    prepared: Any
    proxies: tuple[str, ...]
    shards: int
    replicas: int
    host: str = "127.0.0.1"
    faults: dict[str, ProxyFault] = field(default_factory=dict)
    startup_timeout: float = 30.0
    run_timeout: float = 900.0


async def _serve(
    bus: EventBus,
    control: TopicConsumer,
    ctx: "ShardContext | ProxyHostContext",
    handlers: dict[str, Handler],
) -> list[FrameLedger]:
    """Serve each handler as its node, announced on the bus, until the
    coordinator's shutdown; returns the drained servers' ledgers."""
    servers: list[TcpServer] = []
    for node, handler in handlers.items():
        server = TcpServer(handler, host=ctx.host, port=0)
        await server.start()
        servers.append(server)
        bus.publish(
            TOPIC_READY,
            "ready",
            {"node": node, "host": ctx.host, "port": server.port},
            event_id=f"ready:{node}",
        )
    await control.await_event(
        lambda event: event.kind == "shutdown", timeout=ctx.run_timeout
    )
    for server in servers:
        await server.close()  # drains in-flight replies first
    return [server.ledger for server in servers]


def _publish_registry(
    bus: EventBus, process: str, metrics: MetricsRegistry, *ledgers: FrameLedger
) -> None:
    """Add this process's frame ledgers onto its ``network.*`` counters
    (its half of cross-process conservation), then publish the registry."""
    for ledger in ledgers:
        for key, value in ledger.stats().items():
            if value:
                metrics.counter(f"network.{key}").inc(value)
    bus.publish(
        TOPIC_REGISTRY,
        "registry",
        {"process": process, "state": metrics.export_state()},
        event_id=f"registry:{process}",
    )


def _run_worker(main: Coroutine[Any, Any, None], bus_path: str, node: str) -> None:
    """Run one worker's ``main`` to completion in this process."""
    try:
        asyncio.run(main)
    except Exception as err:  # repro-lint: disable=H002
        # Process boundary: any startup/serve crash must surface on the
        # bus, or the coordinator only learns via a silent timeout.
        EventBus(bus_path).publish(
            TOPIC_READY,
            "worker-error",
            {"node": node, "error": f"{type(err).__name__}: {err}"},
            event_id=f"worker-error:{node}",
        )
        raise


async def _apply_placement(node: CacheNode, payload: dict[str, Any]) -> None:
    """Apply one placement event through the proxy's public push path.

    Raises:
        SimulationError: When the proxy rejects the push.
    """
    documents = [list(entry) for entry in payload.get("documents", [])]
    push = Message(
        kind="push",
        sender="deploy-bus",
        request_id=f"placement:{node.name}",
        payload={"documents": documents, "mode": "replace"},
        body_bytes=0,
    )
    reply = await node.handle(push)
    if reply is None or reply.kind != "ack":
        raise SimulationError(
            f"proxy {node.name!r} rejected placement: "
            f"{reply.payload if reply is not None else None!r}"
        )


async def _replay_placement(bus: EventBus, node: CacheNode) -> None:
    """Anti-entropy by log replay: re-apply every placement for ``node``."""
    for event in bus.replay(TOPIC_PLACEMENT):
        if event.kind == "placement" and event.payload.get("proxy") == node.name:
            await _apply_placement(node, event.payload)


class DeployFaultHandler:
    """Wraps one proxy's handler with request-count fault injection.

    While "crashed" the proxy answers every request with a
    transport-kind error reply — the deterministic, conservation-exact
    analogue of a dead process (clients see a fast failure instead of a
    timeout).  Restart recovers holdings by replaying the placement
    topic.  Partitions toggle the proxy's
    :class:`~repro.deploy.mesh.TcpMeshEndpoint` so upstream calls fail
    before dialing.
    """

    def __init__(
        self,
        node: CacheNode,
        gate: TcpMeshEndpoint,
        *,
        fault: ProxyFault | None = None,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._node = node
        self._gate = gate
        self._fault = fault
        self._bus = bus
        self.metrics = metrics if metrics is not None else default_registry()
        self._count = 0
        self._down = False
        self._restarting = False

    def _note(self, label: str) -> None:
        self.metrics.counter(f"deploy.faults.{label}").inc()
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # outside a loop (unit tests)
            now = 0.0
        self.metrics.record_event(now, f"fault:{label}:{self._node.name}")

    async def __call__(self, message: Message) -> Message | None:
        """Apply due fault transitions, then serve (or refuse)."""
        self._count += 1
        count = self._count
        fault = self._fault
        if fault is not None:
            if fault.partition_from is not None and count == fault.partition_from:
                self._gate.partitioned = True
                self._note("partition")
            if (
                fault.partition_until is not None
                and count == fault.partition_until
            ):
                self._gate.partitioned = False
                self._note("heal")
            if fault.crash_after is not None and count == fault.crash_after:
                self._node.on_crash()
                self._down = True
                self._note("crash")
            if (
                self._down
                and fault.restart_after is not None
                and count >= fault.restart_after
                and not self._restarting
            ):
                self._restarting = True
                try:
                    self._node.on_restart()
                    if self._bus is not None:
                        await _replay_placement(self._bus, self._node)
                    self._down = False
                    self._note("restart")
                finally:
                    self._restarting = False
            if self._down:
                return make_error(
                    self._node.name,
                    message.request_id,
                    "transport",
                    f"proxy {self._node.name!r} down (injected crash)",
                )
        return await self._node.handle(message)


# -- origin shard -------------------------------------------------------------


async def _origin_shard_main(ctx: ShardContext) -> None:
    name = shard_name(ctx.index)
    bus = EventBus(ctx.bus_path)
    control = bus.consumer(TOPIC_CONTROL)
    dissemination = bus.consumer(TOPIC_DISSEMINATION)
    # The plan event is the start barrier: serving before the
    # coordinator has committed the dissemination decision would let a
    # shard answer with riders the placement does not reflect yet.
    await dissemination.await_event(
        lambda event: event.kind == "plan", timeout=ctx.startup_timeout
    )
    prepared = ctx.prepared
    metrics = default_registry()
    catalog = prepared.serve.documents
    estimator = prepared.fresh_estimator()
    riders = None
    if ctx.speculative:
        riders = RiderTable(
            prepared.policy, estimator.model, catalog, prepared.config.max_size
        )
    origin = OriginServer(
        catalog,
        estimator=estimator,
        riders=riders,
        metrics=metrics,
        name=prepared.tree.root,
    )
    ledgers = await _serve(bus, control, ctx, {name: origin.handle})
    _publish_registry(bus, name, metrics, *ledgers)


def run_origin_shard(ctx: ShardContext) -> None:
    """Process entry point of one origin shard."""
    _run_worker(_origin_shard_main(ctx), ctx.bus_path, shard_name(ctx.index))


# -- proxy host ---------------------------------------------------------------


async def _proxy_host_main(ctx: ProxyHostContext) -> None:
    host_label = proxy_host_name(ctx.index)
    bus = EventBus(ctx.bus_path)
    control = bus.consumer(TOPIC_CONTROL)
    topology = bus.consumer(TOPIC_TOPOLOGY)
    placement = bus.consumer(TOPIC_PLACEMENT)
    event = await topology.await_event(
        lambda ev: ev.kind == "topology", timeout=ctx.startup_timeout
    )
    directory = {
        node: (str(entry[0]), int(entry[1]))
        for node, entry in event.payload["nodes"].items()
    }
    prepared = ctx.prepared
    settings = prepared.settings
    metrics = default_registry()
    mesh = TcpMesh(directory, timeout=settings.request_timeout)
    resolve = HashRing(ctx.shards).resolver(ctx.replicas)
    nodes: dict[str, CacheNode] = {}
    handlers: dict[str, Handler] = {}
    # Holdings start empty: they arrive as placement events below.
    specs = {spec.name: spec for spec in prepared.node_specs(speculative=False)}
    for region in ctx.proxies:
        gate = mesh.endpoint(region)
        nodes[region] = CacheNode(
            specs[region],
            gate,
            label="proxy",
            metrics=metrics,
            upstream_timeout=settings.request_timeout,
            breaker=CircuitBreaker(
                failure_threshold=4, reset_timeout=BREAKER_RESET_SECONDS
            ),
            backoff_seed=settings.seed,
            resolve_upstream=resolve,
        )
        handlers[region] = DeployFaultHandler(
            nodes[region],
            gate,
            fault=ctx.faults.get(region),
            bus=bus,
            metrics=metrics,
        )

    # Holdings arrive as placement events (published at least once —
    # deliberately twice — by the coordinator); the consumer's
    # duplicate filter absorbs the redundancy.  Applying them through
    # the public push handler keeps this path identical to a daemon
    # re-push and to the restart replay.
    needed = set(ctx.proxies)
    while needed:
        ev = await placement.await_event(
            lambda ev: ev.kind == "placement"
            and ev.payload.get("proxy") in needed,
            timeout=ctx.startup_timeout,
        )
        await _apply_placement(nodes[ev.payload["proxy"]], ev.payload)
        needed.discard(ev.payload["proxy"])

    ledgers = await _serve(bus, control, ctx, handlers)
    for node in nodes.values():
        await node.close()
    await mesh.close()
    # Drain any stragglers so the duplicate tally below is final.
    placement.drain()
    metrics.counter("bus.duplicate_events").inc(placement.duplicates)
    digests = {
        region: holdings_digest(node.holdings)
        for region, node in sorted(nodes.items())
    }
    bus.publish(
        TOPIC_ANTI_ENTROPY,
        "digest",
        {"process": host_label, "holdings": digests},
        event_id=f"digest:{host_label}",
    )
    _publish_registry(bus, host_label, metrics, mesh.ledger, *ledgers)


def run_proxy_host(ctx: ProxyHostContext) -> None:
    """Process entry point of one proxy host."""
    _run_worker(_proxy_host_main(ctx), ctx.bus_path, proxy_host_name(ctx.index))

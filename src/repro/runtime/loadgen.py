"""The asyncio load generator: live clients with caches and backpressure.

One worker per client replays that client's requests **in order**
(cache semantics require per-client time order); a global semaphore
caps in-flight requests (admission control), every request carries a
timeout, and timed-out requests are retried a bounded number of times
with a fresh correlation id.

Accounting happens **client-side in the paper's cost units** so a live
run is directly comparable with
:class:`~repro.core.combined.CombinedProtocolSimulator`: the client
knows its depth and its entry node's depth (both from the routing
tree) and every cache node stamps the ``path_hops`` a reply travelled
above the entry node, so the client can attribute ``bytes × hops`` and
``ServCost + CommCost·bytes·(hops/depth)`` exactly as the batch replay
does, while measured (virtual) latencies feed separate histograms.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import BASELINE, BaselineConfig
from ..errors import RuntimeProtocolError, TransportError
from ..speculation.caches import ClientCache, make_cache_factory
from ..trace.records import Request
from .messages import Message, make_request
from .metrics import MetricsRegistry, default_registry
from .resilience import BackoffPolicy, retry_rng
from .transport import Endpoint, InMemoryNetwork


@dataclass(frozen=True)
class ClientRoute:
    """Where a client sends its requests, plus the geometry for costing.

    Attributes:
        target: Endpoint name serving this client (its proxy, or the
            origin when no proxy covers it).
        target_depth: Tree depth of that target (0 for the origin).
        depth: Tree depth of the client leaf.
    """

    target: str
    target_depth: int
    depth: int


@dataclass(frozen=True)
class LoadConfig:
    """Load-generation knobs.

    Attributes:
        concurrency: Global in-flight request cap (admission control).
        request_timeout: Seconds before one attempt is abandoned.
        retries: Extra attempts after a timeout before giving up.
        cooperative: Piggyback the client cache digest on requests (the
            paper's cooperative-clients variant; required for exact
            batch parity of speculation decisions).
        backoff: Exponential-backoff policy applied between retry
            attempts (seeded jitter; a no-op on fault-free runs, which
            never retry).
        backoff_seed: Seeds each client's jitter RNG (per-client
            streams stay independent and reproducible).
    """

    concurrency: int = 32
    request_timeout: float = 30.0
    retries: int = 1
    cooperative: bool = True
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    backoff_seed: int = 0


class LoadGenerator:
    """Drives a client population against a live in-memory system.

    Args:
        network: The in-memory network the servers are registered on.
        routes: Per-client routing/costing geometry.
        requests_by_client: Each client's time-ordered request list.
        origin_name: Endpoint name of the origin (for attribution).
        config: Paper cost model (ServCost/CommCost/SessionTimeout).
        load: Concurrency and timeout knobs.
        metrics: Registry receiving all counters/histograms.
        cache_factory: Client cache constructor; defaults to the
            config's SessionTimeout semantics.
        resolver: Optional ``(doc_id, attempt) -> endpoint name`` shard
            resolver.  When a client's route targets the origin
            directly, each attempt's destination is resolved through
            this hook instead — sharded deployments map the logical
            origin onto the consistent-hash owner (and retries fail
            over across replicas).  Accounting is unaffected: replies
            still carry the logical origin as ``served_by``.
    """

    def __init__(
        self,
        network: InMemoryNetwork,
        routes: dict[str, ClientRoute],
        requests_by_client: dict[str, list[Request]],
        *,
        origin_name: str,
        config: BaselineConfig = BASELINE,
        load: LoadConfig | None = None,
        metrics: MetricsRegistry | None = None,
        cache_factory: Callable[[], ClientCache] | None = None,
        resolver: Callable[[str, int], str] | None = None,
    ):
        self._network = network
        self._routes = routes
        self._requests_by_client = requests_by_client
        self._origin_name = origin_name
        self._config = config
        self._load = load if load is not None else LoadConfig()
        self.metrics = metrics if metrics is not None else default_registry()
        self._cache_factory = cache_factory or make_cache_factory(
            config.session_timeout
        )
        self._resolver = resolver

    async def run(self) -> None:
        """Replay every client's stream to completion."""
        semaphore = asyncio.Semaphore(self._load.concurrency)
        loop = asyncio.get_running_loop()
        workers = [
            loop.create_task(self._client_worker(client, requests, semaphore))
            for client, requests in sorted(self._requests_by_client.items())
        ]
        try:
            await asyncio.gather(*workers)
        finally:
            for worker in workers:
                worker.cancel()

    async def _client_worker(
        self,
        client: str,
        requests: list[Request],
        semaphore: asyncio.Semaphore,
    ) -> None:
        route = self._routes[client]
        endpoint = self._network.endpoint(client)
        endpoint.start(None)  # replies only; clients never serve
        cache = self._cache_factory()
        metrics = self.metrics
        rng = retry_rng(self._load.backoff_seed, client)
        loop = asyncio.get_running_loop()
        try:
            for request in requests:
                cache.access(request.timestamp)
                metrics.counter("accesses").inc()
                metrics.counter("accessed_bytes").inc(request.size)
                if cache.contains(request.doc_id):
                    metrics.counter("cache_hits").inc()
                    continue
                metrics.counter("miss_bytes").inc(request.size)

                digest: tuple[str, ...] = ()
                if self._load.cooperative:
                    digest = tuple(sorted(cache.digest()))
                async with semaphore:
                    started = loop.time()
                    reply = await self._attempt(
                        endpoint, route, request, digest, rng
                    )
                    elapsed = loop.time() - started
                if reply is None:
                    metrics.counter("requests_failed").inc()
                    continue
                metrics.histogram("request_latency").observe(elapsed)
                self._account(route, request, reply.payload, cache)
                if metrics.tracer is not None:
                    metrics.trace_event(
                        "request",
                        time=loop.time(),
                        client=client,
                        doc=request.doc_id,
                        served_by=str(
                            reply.payload.get("served_by", self._origin_name)
                        ),
                        latency=round(elapsed, 9),
                    )
        finally:
            await endpoint.close()

    async def _attempt(
        self,
        endpoint: Endpoint,
        route: ClientRoute,
        request: Request,
        digest: tuple[str, ...],
        rng: np.random.Generator,
    ) -> Message | None:
        """One request with bounded retries; None when all attempts fail.

        Transport failures (timeouts, dropped frames) are retried with
        exponential backoff under a fresh correlation id but the same
        demand key, so servers can account retries as duplicate
        service.  Protocol errors are *not* retried — the peer answered
        and will answer identically again — and must not escape, or one
        bad document would kill the whole client worker mid-session.
        """
        attempts = 1 + max(0, self._load.retries)
        demand_key = endpoint.next_request_id()
        for attempt in range(attempts):
            message = make_request(
                endpoint.name,
                endpoint.next_request_id(),
                request.doc_id,
                request.timestamp,
                digest=digest,
                demand=demand_key,
            )
            target = route.target
            if self._resolver is not None and target == self._origin_name:
                target = self._resolver(request.doc_id, attempt)
            try:
                return await endpoint.call(
                    target,
                    message,
                    timeout=self._load.request_timeout,
                )
            except TransportError:
                if attempt + 1 < attempts:
                    self.metrics.counter("retries").inc()
                    self.metrics.trace_event(
                        "retry",
                        client=endpoint.name,
                        doc=request.doc_id,
                        attempt=attempt + 1,
                    )
                    delay = self._load.backoff.delay(attempt, rng)
                    if delay > 0:
                        await asyncio.sleep(delay)
                continue
            except RuntimeProtocolError:
                self.metrics.counter("protocol_errors").inc()
                return None
        return None

    def _account(
        self,
        route: ClientRoute,
        request: Request,
        payload: dict,
        cache: ClientCache,
    ) -> None:
        """Attribute one reply in batch-identical cost units.

        ``hops = (client → entry node) + path_hops``: cache nodes stamp
        replies with the tree edges travelled **above** the client's
        entry node (entry node → sibling → parent → origin chains of
        any shape), and the client adds its own leg below it.  Replies
        without ``path_hops`` (a client routed straight at the origin)
        paid the full root path.  Riders travelled with the demand
        reply, so they pay the same hop count — cheaper than
        origin-side speculation whenever the serving node sits below
        the root.
        """
        metrics = self.metrics
        config = self._config
        depth = route.depth
        size = int(payload.get("size", request.size))
        served_by = payload.get("served_by", self._origin_name)
        travelled = payload.get("path_hops")
        if isinstance(travelled, (int, float)):
            hops = (depth - route.target_depth) + int(travelled)
        else:
            hops = depth

        metrics.counter("received_bytes").inc(size)
        if served_by == self._origin_name:
            metrics.counter("origin_requests").inc()
        else:
            metrics.counter("proxy_requests").inc()
        metrics.counter("bytes_hops").inc(size * hops)
        metrics.counter("service_cost").inc(
            config.serv_cost
            + config.comm_cost * size * (hops / depth if depth else 1.0)
        )
        cache.insert(request.doc_id, size)

        for entry in payload.get("speculated", ()):
            rider_id, rider_size = str(entry[0]), int(entry[1])
            metrics.counter("speculated_documents").inc()
            metrics.counter("speculated_bytes").inc(rider_size)
            metrics.counter("bytes_hops").inc(rider_size * hops)
            cache.insert(rider_id, rider_size)

"""Both protocols together: dissemination + speculative service.

The paper presents its two mechanisms separately; its conclusion frames
them as complementary — dissemination cuts wide-area traffic and
balances load, speculation cuts service time and origin load.  This
module closes the loop with a combined replay:

* requests route client → deepest proxy ancestor → origin;
* a proxy holding the (disseminated) document answers it there — the
  bytes travel only the hops below the proxy, and the origin never
  sees the request;
* origin misses trigger speculative pushes, which travel the full path;
* clients cache everything they receive (SessionTimeout semantics).

Costs are measured in the units both halves of the paper use:
**bytes×hops** for network traffic and ``ServCost + CommCost·bytes``
(comm scaled by the fraction of the path travelled) for client-visible
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import BASELINE, BaselineConfig
from ..errors import SimulationError
from ..obs.timeseries import TimeSeriesRecorder
from ..obs.trace import Tracer
from ..speculation.caches import ClientCache, make_cache_factory
from ..speculation.dependency import DependencyModel
from ..speculation.policies import SpeculationPolicy
from ..speculation.riders import RiderTable
from ..topology.tree import RoutingTree
from ..trace.records import Trace


@dataclass(frozen=True)
class CombinedResult:
    """Outcome of one combined replay.

    Attributes:
        accesses: Client accesses replayed.
        cache_hits: Served from the client's own cache.
        proxy_requests: Served by a proxy (disseminated copy).
        origin_requests: Served by the home server.
        bytes_hops: Total network traffic in bytes×hops.
        service_time: Total client-visible latency (cost units).
        speculated_documents: Documents pushed by the origin.
        speculated_bytes: Bytes pushed speculatively.
        miss_bytes: Bytes of accesses the client's cache missed.
        accessed_bytes: Bytes of all client accesses (hit or miss).
    """

    accesses: int
    cache_hits: int
    proxy_requests: int
    origin_requests: int
    bytes_hops: float
    service_time: float
    speculated_documents: int
    speculated_bytes: float
    miss_bytes: float
    accessed_bytes: float

    @property
    def origin_load_fraction(self) -> float:
        """Fraction of accesses the origin had to serve."""
        return self.origin_requests / self.accesses if self.accesses else 0.0


class CombinedProtocolSimulator:
    """Replays a trace with proxies *and* origin-side speculation.

    Args:
        trace: The access trace (remote accesses drive both protocols).
        tree: Clientele tree covering the trace's clients.
        config: Cost model and timeouts.
        model: Dependency model for the speculation half (train it on
            history, as :class:`repro.core.experiment.Experiment` does).
        remote_only: Drop local requests (they stay inside the
            organisation).
    """

    def __init__(
        self,
        trace: Trace,
        tree: RoutingTree,
        config: BaselineConfig = BASELINE,
        *,
        model: DependencyModel | None = None,
        remote_only: bool = True,
    ):
        self._trace = trace.remote_only() if remote_only else trace
        self._tree = tree
        self._config = config
        self._model = model
        missing = self._trace.clients() - tree.leaves
        if missing:
            raise SimulationError(
                f"trace clients missing from tree: {sorted(missing)[:3]}"
            )
        self._paths = {
            client: tree.path_from_root(client)
            for client in self._trace.clients()
        }
        self._depths = {c: len(p) - 1 for c, p in self._paths.items()}

    def run(
        self,
        *,
        proxies: list[str] | None = None,
        disseminated: set[str] | dict[str, set[str]] | None = None,
        policy: SpeculationPolicy | None = None,
        cache_factory: Callable[[], ClientCache] | None = None,
        recorder: TimeSeriesRecorder | None = None,
        tracer: Tracer | None = None,
    ) -> CombinedResult:
        """Replay once with the given proxy holdings and policy.

        Args:
            proxies: Internal tree nodes acting as proxies (None/empty
                disables the dissemination half).
            disseminated: One shared document set, or per-proxy sets.
            policy: Origin speculation policy (None disables that half).
            cache_factory: Client cache constructor.
            recorder: Optional time-series recorder; when given, every
                :class:`CombinedResult` total is also sampled
                cumulatively at the trace timestamps, so the final
                sample of each series equals the result field exactly.
            tracer: Optional tracer receiving one ``speculation`` event
                per pushed rider (trace-timestamped).

        Raises:
            SimulationError: If a proxy is not internal, or a policy is
                given without a dependency model.
        """
        proxies = proxies or []
        for proxy in proxies:
            if self._tree.node_kind(proxy) != "internal":
                raise SimulationError(f"{proxy!r} is not an internal tree node")
        if policy is not None and self._model is None:
            raise SimulationError("speculation needs a dependency model")

        if isinstance(disseminated, dict):
            holdings = {p: frozenset(disseminated.get(p, ())) for p in proxies}
        else:
            shared = frozenset(disseminated or ())
            holdings = {p: shared for p in proxies}
        proxy_depth = {p: self._tree.depth(p) for p in proxies}
        proxy_set = set(proxies)

        config = self._config
        factory = cache_factory or make_cache_factory(config.session_timeout)
        riders = None
        if policy is not None:
            riders = RiderTable(
                policy, self._model, self._trace.documents, config.max_size
            )
        caches: dict[str, ClientCache] = {}

        cache_hits = 0
        proxy_requests = 0
        origin_requests = 0
        bytes_hops = 0
        service_time = 0.0
        speculated_documents = 0
        speculated_bytes = 0
        miss_bytes = 0
        accessed_bytes = 0
        accesses = 0

        def sample(timestamp: float) -> None:
            """Cumulatively sample every running total at ``timestamp``."""
            assert recorder is not None
            recorder.sample_at(timestamp, "accesses", float(accesses))
            recorder.sample_at(timestamp, "cache_hits", float(cache_hits))
            recorder.sample_at(
                timestamp, "proxy_requests", float(proxy_requests)
            )
            recorder.sample_at(
                timestamp, "origin_requests", float(origin_requests)
            )
            recorder.sample_at(timestamp, "bytes_hops", float(bytes_hops))
            recorder.sample_at(timestamp, "service_time", service_time)
            recorder.sample_at(
                timestamp, "speculated_documents", float(speculated_documents)
            )
            recorder.sample_at(
                timestamp, "speculated_bytes", float(speculated_bytes)
            )
            recorder.sample_at(timestamp, "miss_bytes", float(miss_bytes))
            recorder.sample_at(
                timestamp, "accessed_bytes", float(accessed_bytes)
            )

        for request in self._trace:
            accesses += 1
            client = request.client
            cache = caches.get(client)
            if cache is None:
                cache = factory()
                caches[client] = cache
            cache.access(request.timestamp)
            size = request.size
            accessed_bytes += size

            if cache.contains(request.doc_id):
                cache_hits += 1
                if recorder is not None:
                    sample(request.timestamp)
                continue
            miss_bytes += size

            depth = self._depths[client]

            serving_depth = 0
            for node in self._paths[client]:
                if node in proxy_set and request.doc_id in holdings[node]:
                    serving_depth = max(serving_depth, proxy_depth[node])
            hops = depth - serving_depth
            bytes_hops += size * hops
            service_time += config.serv_cost + config.comm_cost * size * (
                hops / depth if depth else 1.0
            )
            cache.insert(request.doc_id, size)

            if serving_depth > 0:
                proxy_requests += 1
                if recorder is not None:
                    sample(request.timestamp)
                continue  # the origin never sees it: no speculation

            origin_requests += 1
            if riders is not None:
                for rider, rider_size, _ in riders.riders(request.doc_id):
                    if cache.contains(rider):
                        continue
                    speculated_documents += 1
                    speculated_bytes += rider_size
                    bytes_hops += rider_size * depth
                    cache.insert(rider, rider_size)
                    if tracer is not None:
                        tracer.event(
                            request.timestamp,
                            "speculation",
                            demand=request.doc_id,
                            rider=rider,
                            bytes=rider_size,
                            client=client,
                        )
            if recorder is not None:
                sample(request.timestamp)

        return CombinedResult(
            accesses=len(self._trace),
            cache_hits=cache_hits,
            proxy_requests=proxy_requests,
            origin_requests=origin_requests,
            bytes_hops=bytes_hops,
            service_time=service_time,
            speculated_documents=speculated_documents,
            speculated_bytes=speculated_bytes,
            miss_bytes=miss_bytes,
            accessed_bytes=accessed_bytes,
        )

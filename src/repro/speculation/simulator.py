"""The trace-driven speculative-service simulator (paper section 3.2).

The simulator replays a server trace against a population of client
caches.  Per access:

1. The client's cache session state advances (``SessionTimeout``).
2. A cache hit costs nothing — the document is already at the client
   (fetched earlier, or speculatively pushed).
3. A miss goes to the server: one unit of server load, the document's
   bytes on the wire, and client-visible latency of
   ``ServCost + CommCost × size`` cost units.
4. On a miss the server speculates: the policy proposes follow-on
   documents, which are pushed on the same connection — they cost
   bandwidth but **no** extra server request and no client-visible
   latency.  Cooperative clients piggyback a cache digest, letting the
   server skip documents the client already holds; non-cooperative
   speculation can waste bandwidth on re-sends (section 3.4).
5. Optionally, the server instead (or additionally) attaches prefetch
   *hints*; the client then issues its own prefetch requests, which do
   count as server load (section 3.4's server-assisted prefetching).

The dependency model either stays fixed (train/test split) or follows
the paper's schedule — re-estimated every ``UpdateCycle`` days from the
last ``HistoryLength`` days — via a
:class:`~repro.speculation.aging.RollingEstimator`.

Two engines replay a trace and :meth:`SpeculativeServiceSimulator.run`
picks between them from its inputs alone.  The general event loop in
this module handles every configuration.  The vectorized columnar
engine (:mod:`repro.speculation.columnar`) handles the common one —
default ``SessionTimeout`` caches, steps 1–4 without cooperation,
digests or prefetchers, and either no policy or a
:class:`~repro.speculation.policies.ThresholdPolicy` over a fixed model —
and is bit-identical to the general loop there (pinned by
``tests/test_columnar_replay.py``).  Both engines read their riders
from :mod:`repro.speculation.riders`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import BASELINE, BaselineConfig
from ..errors import SimulationError
from ..trace.records import Trace
from .aging import RollingEstimator
from .caches import ClientCache, make_cache_factory
from .columnar import replay_columnar
from .dependency import DependencyModel
from .metrics import SpeculationMetrics
from .policies import SpeculationPolicy, ThresholdPolicy
from .riders import RiderTable


@dataclass(frozen=True)
class SimulationRun:
    """Result of one simulator run.

    Attributes:
        metrics: The raw totals used to compute the paper's ratios.
        accesses: Client accesses replayed.
        cache_hits: Accesses satisfied by the client cache.
        prefetch_requests: Client-initiated prefetches issued.
    """

    metrics: SpeculationMetrics
    accesses: int
    cache_hits: int
    prefetch_requests: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.accesses if self.accesses else 0.0


class SpeculativeServiceSimulator:
    """Replays a trace with (or without) server speculation.

    Args:
        trace: The access trace to replay.
        config: Cost model and timeouts (defaults to the paper's
            baseline parameters).
        model: Fixed dependency model (e.g. trained on an earlier
            period).  Mutually exclusive with ``rolling``.
        rolling: A rolling estimator implementing the paper's
            HistoryLength/UpdateCycle schedule.  When neither ``model``
            nor ``rolling`` is given, a rolling estimator over this
            trace is built from ``config``.
    """

    def __init__(
        self,
        trace: Trace,
        config: BaselineConfig = BASELINE,
        *,
        model: DependencyModel | None = None,
        rolling: RollingEstimator | None = None,
    ):
        if model is not None and rolling is not None:
            raise SimulationError("pass either a fixed model or a rolling estimator")
        self._trace = trace
        self._config = config
        self._model = model
        self._rolling = rolling

    def _model_at(self, now: float) -> DependencyModel:
        if self._model is not None:
            return self._model
        if self._rolling is None:
            self._rolling = RollingEstimator(
                self._trace,
                history_length_days=self._config.history_length_days,
                update_cycle_days=self._config.update_cycle_days,
                window=self._config.stride_timeout,
            )
        return self._rolling.model_at(now)

    def run(
        self,
        policy: SpeculationPolicy | None = None,
        *,
        cache_factory: Callable[[], ClientCache] | None = None,
        cooperative: bool = False,
        digest_fp_rate: float | None = None,
        prefetcher: "ClientPrefetcherLike | None" = None,
    ) -> SimulationRun:
        """Replay the trace once.

        Configurations the columnar engine covers (see the module
        docstring) replay through it; passing any of the keyword
        arguments below — including a ``cache_factory`` with the default
        semantics — replays through the general loop instead.

        Args:
            policy: Speculation policy; ``None`` runs the
                no-speculation baseline.
            cache_factory: Per-client cache constructor; defaults to
                the config's SessionTimeout semantics.
            cooperative: Clients piggyback cache digests, so the server
                never speculates a document the client already holds.
            digest_fp_rate: With ``cooperative``, encode the digest as
                a Bloom filter at this false-positive rate instead of
                an exact ID list; false positives make the server skip
                pushes the client actually needed (see
                :mod:`repro.speculation.digests`).  ``None`` keeps the
                exact digest.
            prefetcher: Client-side prefetch behaviour fed by server
                hints (see :mod:`repro.speculation.prefetch`).  A
                prefetcher may expose two optional extensions: an
                ``observe(client, doc_id, timestamp)`` method, called on
                every client access (used by per-user profile
                prefetchers to learn online), and a ``client`` keyword
                on ``choose`` (detected by attribute
                ``wants_client=True``) for per-client decisions.

        Returns:
            A :class:`SimulationRun` with raw metric totals.
        """
        config = self._config
        if (
            cache_factory is None
            and not cooperative
            and digest_fp_rate is None
            and prefetcher is None
            and (
                policy is None
                or (self._model is not None and type(policy) is ThresholdPolicy)
            )
        ):
            result = replay_columnar(
                self._trace, config, model=self._model, policy=policy
            )
            return SimulationRun(
                metrics=result.metrics,
                accesses=result.accesses,
                cache_hits=result.cache_hits,
            )
        factory = cache_factory or make_cache_factory(config.session_timeout)
        catalog = self._trace.documents

        observe = getattr(prefetcher, "observe", None)
        prefetch_per_client = bool(getattr(prefetcher, "wants_client", False))

        if digest_fp_rate is not None and not cooperative:
            raise SimulationError("digest_fp_rate requires cooperative=True")
        blooms: dict[str, "BloomFilter"] = {}
        if digest_fp_rate is not None:
            from .digests import BloomFilter

            def bloom_for(client_id: str, cache: ClientCache) -> "BloomFilter":
                bloom = blooms.get(client_id)
                digest = cache.digest()
                if (
                    bloom is None
                    or bloom.count > len(digest)  # cache purged
                    or bloom.count > bloom.capacity  # filter overfilled
                ):
                    bloom = BloomFilter.from_items(
                        digest,
                        digest_fp_rate,
                        capacity=max(16, 2 * len(digest)),
                    )
                    blooms[client_id] = bloom
                return bloom
        else:
            bloom_for = None

        caches: dict[str, ClientCache] = {}
        pending_pushes: dict[str, dict[str, int]] = {}
        # One rider table per model object (a rolling estimator swaps).
        table: RiderTable | None = None

        # Byte counters stay integers so byte accounting is exact; only
        # derived ratios and costs are floats.
        bytes_sent = 0
        server_requests = 0
        service_time = 0.0
        miss_bytes = 0
        accessed_bytes = 0
        speculated_documents = 0
        speculated_bytes = 0
        wasted_bytes = 0
        cache_hits = 0
        prefetch_requests = 0

        for request in self._trace:
            client = request.client
            cache = caches.get(client)
            if cache is None:
                cache = factory()
                caches[client] = cache
                pending_pushes[client] = {}
            cache.access(request.timestamp)
            pending = pending_pushes[client]

            size = request.size
            accessed_bytes += size
            if observe is not None:
                observe(client, request.doc_id, request.timestamp)

            if cache.contains(request.doc_id):
                cache_hits += 1
                if request.doc_id in pending:
                    pending.pop(request.doc_id)
                continue

            # Demand miss: full server round trip.
            miss_bytes += size
            server_requests += 1
            bytes_sent += size
            service_time += config.serv_cost + config.comm_cost * size
            cache.insert(request.doc_id, size)
            if bloom_for is not None:
                bloom_for(client, cache).add(request.doc_id)

            if policy is None and prefetcher is None:
                continue

            model = self._model_at(request.timestamp)

            if policy is not None:
                if table is None or table.model is not model:
                    table = RiderTable(policy, model, catalog, config.max_size)
                bloom = bloom_for(client, cache) if bloom_for is not None else None
                for rider, rider_size, _ in table.riders(request.doc_id):
                    already_cached = cache.contains(rider)
                    if cooperative:
                        believed_cached = (
                            rider in bloom if bloom is not None else already_cached
                        )
                        if believed_cached:
                            continue
                    speculated_documents += 1
                    speculated_bytes += rider_size
                    bytes_sent += rider_size
                    if already_cached:
                        wasted_bytes += rider_size
                        continue
                    if rider in pending:
                        wasted_bytes += pending.pop(rider)
                    cache.insert(rider, rider_size)
                    if bloom is not None:
                        bloom.add(rider)
                    pending[rider] = rider_size

            if prefetcher is not None:
                if prefetch_per_client:
                    chosen = prefetcher.choose(
                        request.doc_id, model, catalog, client=client
                    )
                else:
                    chosen = prefetcher.choose(request.doc_id, model, catalog)
                for doc_id in chosen:
                    document = catalog.get(doc_id)
                    if document is None or cache.contains(doc_id):
                        continue
                    prefetch_requests += 1
                    server_requests += 1
                    bytes_sent += document.size
                    cache.insert(doc_id, document.size)
                    if bloom_for is not None:
                        bloom_for(client, cache).add(doc_id)
                    if doc_id in pending:
                        wasted_bytes += pending.pop(doc_id)
                    pending[doc_id] = document.size

        for pending in pending_pushes.values():
            wasted_bytes += sum(pending.values())

        metrics = SpeculationMetrics(
            bytes_sent=bytes_sent,
            server_requests=server_requests,
            service_time=service_time,
            miss_bytes=miss_bytes,
            accessed_bytes=accessed_bytes,
            speculated_documents=speculated_documents,
            speculated_bytes=speculated_bytes,
            wasted_bytes=wasted_bytes,
        )
        return SimulationRun(
            metrics=metrics,
            accesses=len(self._trace),
            cache_hits=cache_hits,
            prefetch_requests=prefetch_requests,
        )


class ClientPrefetcherLike:
    """Structural type for prefetchers (see :mod:`repro.speculation.prefetch`)."""

    def choose(self, requested, model, catalog):  # pragma: no cover - protocol
        """Documents the client decides to prefetch, best first."""
        raise NotImplementedError

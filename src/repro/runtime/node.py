"""The cache node: local hit, sibling probe, upstream, origin.

The paper has one kind of intermediary — a service proxy on the routing
tree holding disseminated documents (section 2) — and so does the
runtime.  A :class:`CacheNode` runs the deterministic lookup protocol
at one caching node of the tree:

1. **Local**: the document is among this node's disseminated holdings —
   serve it (optionally with locally-speculated riders) at zero extra
   path hops; the origin never sees the request (section 2's
   load-balancing effect).
2. **Sibling probe**: ask up to ``d`` same-parent siblings, one at a
   time in deterministic order.  A probe is a normal ``request`` with a
   ``probe`` flag; the probed node answers **only** from its own
   holdings (a protocol-error reply signals a probe miss) so probes can
   never recurse or loop.
3. **Upstream**: forward to the upstream node — a caching ancestor
   running the same protocol, or the origin itself (the recursion's
   base case) — behind a circuit breaker with seeded retry backoff.

A flat region proxy is the degenerate case (the paper's footnote 5): a
:class:`NodeSpec` with no siblings, the origin as upstream and
``upstream_distance = depth(region)``, built with no rider table.

Replies accumulate ``path_hops``, the tree edges the document travelled
*above* the client's entry node, so the load generator can attribute
bytes × hops exactly (the client adds its own leg below the entry
node).  Holdings change at runtime via ``push`` messages.

Failure semantics (see ``docs/runtime.md``):

* Upstream forwards go through a per-upstream
  :class:`~repro.runtime.resilience.CircuitBreaker`; after repeated
  transport failures the node fast-fails misses instead of burning a
  full timeout per request, and probes the upstream again after the
  breaker's reset window.
* Forward attempts retry with seeded exponential backoff before the
  client's own timeout gives up.
* While the upstream is unreachable the node keeps serving its
  disseminated holdings (counted as stale service) and queues the
  misses it had to reject; once the breaker closes again the queued
  misses are fetched and folded into holdings.
* A restart loses the volatile holdings until they are re-pushed.
* Retried requests whose earlier reply was lost are served again but
  counted as duplicate service (at-least-once accounting).
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import RuntimeProtocolError, TransportError
from ..speculation.riders import RiderTable
from .messages import Message, make_error, make_request, make_response
from .metrics import Counter, MetricsRegistry, default_registry
from .resilience import (
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    DuplicateFilter,
    retry_rng,
)
from .transport import Endpoint


@dataclass(frozen=True)
class NodeSpec:
    """One caching node's place on the routing tree.

    Attributes:
        name: Tree node id (doubles as the endpoint name).
        depth: Tree depth of the node.
        upstream: Endpoint misses are forwarded to — the nearest
            caching ancestor, or the tree root (origin).
        upstream_distance: Tree hops between this node and its
            upstream (cost of one forwarded byte).
        siblings: Same-parent caching nodes, in deterministic order;
            candidates for the sibling-probe step of a lookup.
        sibling_distance: Tree hops to a sibling (up to the shared
            parent and back down: 2 for a true sibling group).
        holdings: Disseminated ``(doc_id, size)`` pairs, sorted.
    """

    name: str
    depth: int
    upstream: str
    upstream_distance: int
    siblings: tuple[str, ...] = ()
    sibling_distance: int = 2
    holdings: tuple[tuple[str, int], ...] = ()

    @property
    def holdings_bytes(self) -> int:
        """Total disseminated bytes at this node."""
        return sum(size for _, size in self.holdings)


def _hashed_rank(doc_id: str, sibling: str) -> str:
    """Deterministic per-(doc, sibling) rank for power-of-d probing."""
    key = f"{doc_id}|{sibling}".encode("utf-8")
    return hashlib.sha1(key).hexdigest()


class CacheNode:
    """Protocol logic of one cache node; bind ``handle`` to its endpoint.

    Args:
        spec: The node's geometry (upstream, siblings, distances) and
            initial holdings.
        endpoint: The node's own endpoint (used for probes/forwards).
        label: Counter namespace: every counter is named
            ``<label>.<name>.*`` (``"proxy"`` for the flat tier,
            ``"fleet"`` for fleet nodes) so multi-node runs never
            collide and historical counter names stay stable.
        metrics: Shared metrics registry.
        directory: ``doc_id → sibling names`` probe map (directory
            mode); ignored in hashed mode.
        probe_mode: ``"directory"`` or ``"hashed"`` sibling choice.
        probe_siblings: Max siblings probed per miss (``d``); 0
            disables probing.
        probe_timeout: Per-probe timeout in (virtual) seconds.
        riders: Rider table (a frozen model under the origin's policy,
            catalog and MaxSize) for local speculation, restricted to
            this node's own holdings — a cache can only push bytes it
            actually has; None disables node-side riders.
        upstream_timeout: Per-forward timeout in seconds (None waits
            forever).
        breaker: Upstream circuit breaker; a default one (4 failures,
            reset after two upstream timeouts) is built when omitted.
        backoff: Backoff policy between forward retry attempts.
        forward_retries: Extra forward attempts after a transport
            failure before giving up on a request.
        backoff_seed: Seeds this node's retry-jitter RNG.
        miss_queue_limit: Bound on misses remembered while the
            upstream is unreachable (oldest kept).
        resolve_upstream: Optional ``(doc_id, attempt) -> endpoint
            name`` shard resolver.  When set, every upstream call is
            routed through it instead of the static ``spec.upstream``
            name — sharded deployments map the logical origin onto the
            consistent-hash owner, and retry attempts fail over across
            replicas.  ``spec.upstream`` remains the logical name used
            in error text.
    """

    def __init__(
        self,
        spec: NodeSpec,
        endpoint: Endpoint,
        *,
        label: str,
        metrics: MetricsRegistry | None = None,
        directory: Mapping[str, tuple[str, ...]] | None = None,
        probe_mode: str = "directory",
        probe_siblings: int = 2,
        probe_timeout: float | None = 5.0,
        riders: RiderTable | None = None,
        upstream_timeout: float | None = None,
        breaker: CircuitBreaker | None = None,
        backoff: BackoffPolicy | None = None,
        forward_retries: int = 1,
        backoff_seed: int = 0,
        miss_queue_limit: int = 64,
        resolve_upstream: Callable[[str, int], str] | None = None,
    ):
        self.name = spec.name
        self.spec = spec
        self._endpoint = endpoint
        self._prefix = f"{label}.{spec.name}."
        self._holdings: dict[str, int] = dict(spec.holdings)
        self.metrics = metrics if metrics is not None else default_registry()
        self._directory = directory if directory is not None else {}
        self._probe_mode = probe_mode
        self._probe_siblings = max(0, probe_siblings)
        self._probe_timeout = probe_timeout
        self._riders = riders
        self._upstream_timeout = upstream_timeout
        if breaker is None:
            reset = 2.0 * (upstream_timeout if upstream_timeout else 30.0)
            breaker = CircuitBreaker(failure_threshold=4, reset_timeout=reset)
        breaker.watch(self._breaker_transition)
        self._breaker = breaker
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._forward_retries = max(0, forward_retries)
        self._rng = retry_rng(backoff_seed, spec.name)
        self._missed: OrderedDict[str, float] = OrderedDict()
        self._miss_queue_limit = miss_queue_limit
        self._dedupe = DuplicateFilter()
        self._recovery_task: asyncio.Task[None] | None = None
        self._resolve_upstream = resolve_upstream

    def _upstream_for(self, doc_id: str, attempt: int) -> str:
        """Destination of one upstream call (shard owner when resolving)."""
        if self._resolve_upstream is None:
            return self.spec.upstream
        return self._resolve_upstream(doc_id, attempt)

    # -- state ----------------------------------------------------------------

    @property
    def holdings(self) -> dict[str, int]:
        """Current holdings (``doc_id → size``), a defensive copy."""
        return dict(self._holdings)

    @property
    def breaker(self) -> CircuitBreaker:
        """The upstream circuit breaker (exposed for tests and chaos)."""
        return self._breaker

    @property
    def queued_misses(self) -> tuple[str, ...]:
        """Doc ids queued while the upstream was unreachable."""
        return tuple(self._missed)

    def _counter(self, suffix: str) -> Counter:
        return self.metrics.counter(self._prefix + suffix)

    def _breaker_transition(self, old_state: str, new_state: str) -> None:
        self._counter(f"breaker.{new_state}").inc()
        self.metrics.record_event(
            self._loop_time(), f"breaker:{self.name}:{old_state}->{new_state}"
        )

    def _loop_time(self) -> float:
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:  # outside a loop (unit tests)
            return 0.0

    def on_crash(self) -> None:
        """Fault hook: the process died — volatile holdings are lost."""
        lost = len(self._holdings)
        self._holdings = {}
        self._missed.clear()
        self._counter("crashes").inc()
        if lost:
            self._counter("holdings_lost").inc(lost)

    def on_restart(self) -> None:
        """Fault hook: back up, empty-handed until holdings are re-pushed."""
        self._counter("restarts").inc()

    async def close(self) -> None:
        """Cancel the background miss-recovery task, if any."""
        task = self._recovery_task
        self._recovery_task = None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- protocol -------------------------------------------------------------

    async def handle(self, message: Message) -> Message | None:
        """Serve, probe-answer, forward, or apply a push."""
        if message.kind == "push":
            return self._apply_push(message)
        if message.kind == "request":
            return await self._serve(message)
        return make_error(
            self.name,
            message.request_id,
            "protocol",
            f"cache node cannot handle kind {message.kind!r}",
        )

    def _apply_push(self, message: Message) -> Message:
        documents = message.payload.get("documents")
        if not isinstance(documents, list):
            return make_error(
                self.name, message.request_id, "protocol",
                "push needs a documents list",
            )
        mode = message.payload.get("mode", "replace")
        incoming: dict[str, int] = {}
        for entry in documents:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
            ):
                # one malformed entry poisons the whole push
                return make_error(
                    self.name, message.request_id, "protocol",
                    "push entries must be (doc_id, size) pairs",
                )
            incoming[entry[0]] = int(entry[1])
        if mode == "replace":
            self._holdings = incoming
        else:
            self._holdings.update(incoming)
        pushed_bytes = 0
        for size in incoming.values():
            pushed_bytes += size
        self._counter("pushes").inc()
        self._counter("pushed_bytes").inc(pushed_bytes)
        self.metrics.trace_event(
            "push",
            time=self._loop_time(),
            proxy=self.name,
            documents=len(incoming),
            bytes=pushed_bytes,
            mode=str(mode),
        )
        return Message(
            kind="ack",
            sender=self.name,
            request_id=message.request_id,
            payload={"documents": len(incoming)},
            body_bytes=16,
        )

    def _local_riders(
        self, doc_id: str, message: Message
    ) -> list[tuple[str, int]]:
        """Riders this node can push from its own holdings.

        The footnote-5 refinement: the node speculates from the shared
        dependency model but can only send documents dissemination
        actually placed here (and the client's digest does not list).
        """
        if self._riders is None:
            return []
        cached = {str(entry) for entry in message.payload.get("digest", ())}
        cached.add(doc_id)
        holdings = self._holdings
        return [
            (rider, holdings[rider])
            for rider, _, _ in self._riders.riders(doc_id)
            if rider in holdings and rider not in cached
        ]

    def _local_response(
        self, message: Message, doc_id: str, size: int, *, probe: bool
    ) -> Message:
        demand_key = message.payload.get("req")
        duplicate = (
            isinstance(demand_key, str)
            and bool(demand_key)
            and self._dedupe.seen(demand_key)
        )
        if duplicate:
            self._counter("duplicate_requests").inc()
            self._counter("duplicate_bytes").inc(size)
        else:
            self._counter("hits").inc()
            self._counter("bytes_served").inc(size)
            if self._breaker.state == BREAKER_OPEN:
                # Partitioned from upstream but still serving what
                # dissemination left here — possibly stale, better than
                # nothing (the paper's proxies hold immutable copies).
                self._counter("stale_serves").inc()

        riders = self._local_riders(doc_id, message)
        for _, rider_size in riders:
            if duplicate:
                self._counter("duplicate_bytes").inc(rider_size)
            else:
                self._counter("speculated_documents").inc()
                self._counter("speculated_bytes").inc(rider_size)
        response = make_response(
            self.name,
            message.request_id,
            doc_id,
            size,
            self.name,
            speculated=riders,
        )
        response.payload["path_hops"] = 0
        if self.metrics.tracer is not None and not duplicate:
            self.metrics.trace_event(
                "fleet-serve",
                time=self._loop_time(),
                node=self.name,
                doc=doc_id,
                source="probe" if probe else "local",
                riders=len(riders),
            )
        return response

    def _queue_miss(self, doc_id: str, timestamp: float) -> None:
        if doc_id in self._missed:
            return
        if len(self._missed) >= self._miss_queue_limit:
            self._counter("miss_queue_overflow").inc()
            return
        self._missed[doc_id] = timestamp
        self._counter("queued_misses").inc()

    def _schedule_recovery(self) -> None:
        if not self._missed:
            return
        if self._recovery_task is not None and not self._recovery_task.done():
            return
        loop = asyncio.get_running_loop()
        self._recovery_task = loop.create_task(self._recover_misses())

    async def _recover_misses(self) -> None:
        """Fetch queued misses into holdings once the upstream is back."""
        while self._missed:
            doc_id, timestamp = next(iter(self._missed.items()))
            message = make_request(
                self.name,
                self._endpoint.next_request_id(),
                doc_id,
                timestamp,
            )
            try:
                reply = await self._endpoint.call(
                    self._upstream_for(doc_id, 0),
                    message,
                    timeout=self._upstream_timeout,
                )
            except TransportError:
                self._breaker.record_failure()
                return  # upstream flaky again; retry on the next close
            except RuntimeProtocolError:
                # e.g. the document no longer exists; drop it for good.
                # Safe window: pop(doc_id, None) tolerates a concurrent
                # _queue_miss re-adding the key — it just re-queues and
                # the next while-pass re-reads fresh state.
                self._missed.pop(doc_id, None)  # repro-lint: disable=A001
                continue
            self._breaker.record_success()
            # Safe window: same pop-with-default idiom as above; a
            # concurrent re-queue of doc_id after our successful fetch
            # is served from holdings on its next request anyway.
            self._missed.pop(doc_id, None)  # repro-lint: disable=A001
            size = reply.payload.get("size")
            if isinstance(size, (int, float)):
                self._holdings[doc_id] = int(size)
                self._counter("recovered_misses").inc()

    def _probe_targets(self, doc_id: str) -> tuple[str, ...]:
        """Siblings to probe for one miss, in deterministic order."""
        if self._probe_siblings <= 0 or not self.spec.siblings:
            return ()
        if self._probe_mode == "hashed":
            ranked = sorted(
                self.spec.siblings,
                key=lambda sibling: _hashed_rank(doc_id, sibling),
            )
            return tuple(ranked[: self._probe_siblings])
        listed = self._directory.get(doc_id, ())
        return tuple(listed[: self._probe_siblings])

    async def _probe(self, sibling: str, message: Message) -> Message | None:
        """One sibling probe; None on miss or transport failure."""
        # Fresh correlation id per probe: a slow probe reply must never
        # be mistaken for the upstream forward that follows it.
        probe = Message(
            kind="request",
            sender=self.name,
            request_id=self._endpoint.next_request_id(),
            payload=dict(message.payload, probe=True),
            body_bytes=message.body_bytes,
        )
        try:
            reply = await self._endpoint.call(
                sibling, probe, timeout=self._probe_timeout
            )
        except TransportError:
            self._counter("probe_failures").inc()
            self._trace_probe(sibling, message, hit=False)
            return None
        except RuntimeProtocolError:
            self._counter("probe_misses").inc()
            self._trace_probe(sibling, message, hit=False)
            return None
        self._counter("sibling_hits").inc()
        self._trace_probe(sibling, message, hit=True)
        return reply

    def _trace_probe(self, sibling: str, message: Message, *, hit: bool) -> None:
        if self.metrics.tracer is None:
            return
        self.metrics.trace_event(
            "fleet-probe",
            time=self._loop_time(),
            node=self.name,
            sibling=sibling,
            doc=str(message.payload.get("doc_id")),
            hit=hit,
        )

    def _relay(self, message: Message, reply: Message, extra_hops: int) -> Message:
        """Pass a reply down, accumulating the hops it travelled."""
        payload = dict(reply.payload)
        travelled = payload.get("path_hops")
        base = int(travelled) if isinstance(travelled, (int, float)) else 0
        payload["path_hops"] = base + extra_hops
        return Message(
            kind="response",
            sender=self.name,
            request_id=message.request_id,
            payload=payload,
            body_bytes=reply.body_bytes,
        )

    async def _serve(self, message: Message) -> Message:
        doc_id = message.payload.get("doc_id")
        if not isinstance(doc_id, str):
            return make_error(
                self.name, message.request_id, "protocol",
                "request needs a doc_id",
            )
        probe = bool(message.payload.get("probe"))
        size = self._holdings.get(doc_id)
        if size is not None:
            return self._local_response(message, doc_id, size, probe=probe)
        if probe:
            # Probes answer only from local holdings — never recurse —
            # so sibling lookups cannot loop.
            self._counter("probe_rejects").inc()
            return make_error(
                self.name, message.request_id, "protocol",
                f"probe miss for {doc_id!r}",
            )

        for sibling in self._probe_targets(doc_id):
            reply = await self._probe(sibling, message)
            if reply is not None:
                return self._relay(message, reply, self.spec.sibling_distance)

        timestamp = message.payload.get("timestamp")
        timestamp = float(timestamp) if isinstance(timestamp, (int, float)) else 0.0
        if not self._breaker.allow():
            # Fast-fail: don't burn an upstream timeout per miss while
            # the breaker is open; remember the miss for recovery.
            self._queue_miss(doc_id, timestamp)
            self._counter("breaker_fast_fails").inc()
            return make_error(
                self.name, message.request_id, "transport",
                f"upstream {self.spec.upstream!r} unavailable (circuit open)",
            )

        self._counter("forwards").inc()
        forwarded = Message(
            kind="request",
            sender=self.name,
            request_id=message.request_id,
            payload=dict(message.payload),
            body_bytes=message.body_bytes,
        )
        attempts = 1 + self._forward_retries
        for attempt in range(attempts):
            try:
                reply = await self._endpoint.call(
                    self._upstream_for(doc_id, attempt),
                    forwarded,
                    timeout=self._upstream_timeout,
                )
            except TransportError as err:
                self._breaker.record_failure()
                if attempt + 1 < attempts and self._breaker.allow():
                    self._counter("forward_retries").inc()
                    delay = self._backoff.delay(attempt, self._rng)
                    if delay > 0:
                        await asyncio.sleep(delay)
                    continue
                self._queue_miss(doc_id, timestamp)
                return make_error(
                    self.name, message.request_id, "transport",
                    f"upstream {self.spec.upstream!r} unreachable: {err}",
                )
            except RuntimeProtocolError as err:
                # The upstream answered (connectivity is fine): the
                # request itself is bad, and retrying cannot fix it.
                self._breaker.record_success()
                return make_error(
                    self.name, message.request_id, "protocol", str(err)
                )
            self._breaker.record_success()
            self._schedule_recovery()
            return self._relay(message, reply, self.spec.upstream_distance)
        raise AssertionError("unreachable: forward loop always returns")

"""Stand-alone layer probes on the workload's own data.

Each probe loops over one layer's public API, outside any run, until it
has done at least a second of work (a tenth with ``--quick``) in at
least three samples, and reports the median sample — a floor under the end-to-end numbers that
the traced pass cannot give, because tracing costs more than the
smallest operations do.  Async probes keep :data:`IN_FLIGHT` calls in
flight, like the workloads.
"""

from __future__ import annotations

import asyncio
import collections
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.planner import DisseminationPlanner
from repro.deploy import EventBus, HashRing, TcpMesh
from repro.runtime import InMemoryNetwork, TcpServer, run_virtual
from repro.runtime.messages import BINARY_CODEC, Message, make_request, make_response
from repro.topology.builder import build_clientele_tree
from repro.trace.records import Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

from workloads import IN_FLIGHT

MIN_SAMPLES = 3
_BUS_EVENTS = 5_000


def _elapsed(function: Callable[[], Any]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def _per_call_us(function: Callable[[], Any], calls: int) -> float:
    return _elapsed(function) / calls * 1e6


async def _echo_handler(message: Message) -> Message:
    """The constant reply: no lookup, no riders, the smallest response."""
    return make_response("server", message.request_id, "d", 1, "server")


async def _round_trips(endpoints: list[Any], total: int) -> None:
    """``total`` smallest-frame calls to ``server``, split evenly over
    one worker per endpoint (there are :data:`IN_FLIGHT` of them)."""

    async def worker(endpoint: Any) -> None:
        for _ in range(total // IN_FLIGHT):
            await endpoint.call(
                "server",
                make_request(endpoint.name, endpoint.next_request_id(), "d", 0.0),
                timeout=30.0,
            )

    await asyncio.gather(*(worker(endpoint) for endpoint in endpoints))


async def _mem_session(round_trips: int) -> float:
    network = InMemoryNetwork(seed=0)
    server = network.endpoint("server")
    server.start(_echo_handler)
    clients = [network.endpoint(f"client-{i}") for i in range(IN_FLIGHT)]
    for client in clients:
        client.start(None)
    started = time.perf_counter()
    await _round_trips(clients, round_trips)
    elapsed = time.perf_counter() - started
    for endpoint in (*clients, server):
        await endpoint.close()
    return elapsed


async def _tcp_session(round_trips: int) -> float:
    server = TcpServer(_echo_handler)
    await server.start()
    mesh = TcpMesh({"server": ("127.0.0.1", server.port)})
    clients = [mesh.endpoint(f"client-{i}") for i in range(IN_FLIGHT)]
    try:
        await _round_trips(clients, IN_FLIGHT)  # dial before timing
        started = time.perf_counter()
        await _round_trips(clients, round_trips)
        return time.perf_counter() - started
    finally:
        await mesh.close()
        await server.close()


@dataclass
class Prober:
    """The probes, at one effort level.

    Attributes:
        scratch: Directory for the bus probe's temporary logs.
        min_seconds: Work a probe accumulates before it reports (at
            least :data:`MIN_SAMPLES` samples either way).
        round_trips: Round trips per echo sample.
    """

    scratch: Path
    min_seconds: float = 1.0
    round_trips: int = 20_000

    def collect(self, sample: Callable[[], Any]) -> list[Any]:
        """Repeat ``sample`` until the probe has done its share of work."""
        values: list[Any] = []
        spent = 0.0
        while spent < self.min_seconds or len(values) < MIN_SAMPLES:
            started = time.perf_counter()
            values.append(sample())
            spent += time.perf_counter() - started
        return values

    def median_of(self, sample: Callable[[], float]) -> float:
        """Median of :meth:`collect`'s samples."""
        return statistics.median(self.collect(sample))

    def mem_echo_us(self) -> float:
        """Wall µs per round trip through ``InMemoryNetwork`` (virtual clock)."""
        trips = self.round_trips
        return self.median_of(
            lambda: run_virtual(_mem_session(trips)) / trips * 1e6
        )

    def tcp_echo_us(self) -> float:
        """Wall µs per round trip through ``TcpServer`` + ``TcpMesh`` on loopback."""
        trips = self.round_trips
        return self.median_of(
            lambda: asyncio.run(_tcp_session(trips)) / trips * 1e6
        )

    def codec_us(self, corpus: list[Message]) -> dict[str, float]:
        """Per-frame encode and decode cost over the run's real frames."""
        if not corpus:
            return {}
        frames = [BINARY_CODEC.encode(message) for message in corpus]

        def encode_all() -> None:
            for message in corpus:
                BINARY_CODEC.encode(message)

        def decode_all() -> None:
            for raw in frames:
                BINARY_CODEC.decode(raw)

        return {
            "runtime.messages.encode_us": self.median_of(
                lambda: _per_call_us(encode_all, len(corpus))
            ),
            "runtime.messages.decode_us": self.median_of(
                lambda: _per_call_us(decode_all, len(frames))
            ),
        }

    def bus_us(self) -> dict[str, float]:
        """Per-event publish and consume cost of a temp-dir ``EventBus``."""

        def sample() -> tuple[float, float]:
            directory = tempfile.mkdtemp(prefix="probe-bus-", dir=self.scratch)
            try:
                bus = EventBus(directory)

                def publish_all() -> None:
                    for index in range(_BUS_EVENTS):
                        bus.publish(
                            "probe", "event", {"index": index}, event_id=f"e{index}"
                        )

                publish = _per_call_us(publish_all, _BUS_EVENTS)
                consume = _per_call_us(bus.consumer("probe").drain, _BUS_EVENTS)
                return publish, consume
            finally:
                shutil.rmtree(directory, ignore_errors=True)

        publish, consume = zip(*self.collect(sample))
        return {
            "deploy.bus.publish_us": statistics.median(publish),
            "deploy.bus.consume_us": statistics.median(consume),
        }

    def ring(self, serve: Trace, shards: int, replicas: int) -> dict[str, float]:
        """µs per replica lookup, and how unevenly the ring splits the
        serving half's requests (largest shard share over the mean)."""
        hash_ring = HashRing(shards)
        documents = sorted(serve.documents)

        def lookup_all() -> None:
            for doc_id in documents:
                hash_ring.owners(doc_id, replicas)

        owners = {doc_id: hash_ring.owner(doc_id) for doc_id in documents}
        load = collections.Counter(owners[request.doc_id] for request in serve)
        return {
            "deploy.ring.owners_us": self.median_of(
                lambda: _per_call_us(lookup_all, len(documents))
            ),
            "deploy.ring.request_imbalance": max(load.values())
            / (len(serve) / shards),
        }

    def prepare_steps(
        self, workload: GeneratorConfig, train_fraction: float, budget_bytes: float
    ) -> dict[str, float]:
        """The public steps ``prepare_live_run`` composes, each on its own."""
        full = SyntheticTraceGenerator(workload).generate()
        trace = full.remote_only()
        boundary = trace.start_time + train_fraction * trace.duration
        train = trace.window(trace.start_time, boundary)
        tree = build_clientele_tree(trace)

        def split() -> None:
            remote = full.remote_only()
            remote.window(remote.start_time, boundary)
            remote.window(boundary, remote.end_time + 1.0).by_client()

        def plan() -> None:
            planner = DisseminationPlanner(remote_only=True)
            planner.add_server(tree.root, train)
            planner.plan(budget_bytes)

        def seconds(step: Callable[[], Any]) -> float:
            return self.median_of(lambda: _elapsed(step))

        return {
            "trace.split_s": seconds(split),
            "topology.build_tree_s": seconds(lambda: build_clientele_tree(trace)),
            "dissemination.plan_s": seconds(plan),
        }

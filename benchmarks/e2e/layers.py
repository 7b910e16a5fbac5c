"""Per-layer metrics: what the traced pass wraps and what it derives.

Layers are measured from outside.  :func:`traced` wraps the public
callables below for the duration of a ``with`` block; :func:`derive`
turns the resulting spans, the run's own counter snapshots and the
stand-alone probes into the per-layer table of BENCHMARK.json.  A layer
a workload never executes reads 0 there.

Span names are ``<layer>:<operation>``.  A *grouping* span brackets a
whole arm or service call: its self time is the event loop, the load
generator, the proxies and the wiring, which cannot be told apart from
outside, so it counts as unattributed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.runtime.estimator import OnlineDependencyEstimator
from repro.runtime.messages import BinaryCodec, Message
from repro.runtime.origin import OriginServer
from repro.runtime.transport import InMemoryNetwork
from repro.speculation.dependency import DependencyModel
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.simulator import SpeculativeServiceSimulator
from repro.speculation.sparse import SparseDependencyEngine
from repro.workload import SyntheticTraceGenerator

from contract import PER_LAYER
from spans import Recorder
from workloads import Outcome

GROUPING = frozenset(
    {
        "repeat",
        "runtime.loadgen:arm_baseline",
        "runtime.loadgen:arm_speculative",
        "fleet.service:execute",
        "deploy.service:execute",
    }
)

#: Messages kept from the traced run as the codec probe's corpus.
CORPUS_LIMIT = 8192


@dataclass
class Tally:
    """Counts the wrappers take where the work happens."""

    generated_requests: int = 0
    wire_bytes: int = 0
    riders: int = 0
    corpus: list[Message] = field(default_factory=list)

    def generated(self, args: tuple, trace: Any) -> None:
        """``generate()`` returned a trace."""
        self.generated_requests = len(trace)

    def encoded(self, args: tuple, raw: bytes) -> None:
        """``encode(codec, message)`` returned wire bytes."""
        self.wire_bytes += len(raw)
        if len(self.corpus) < CORPUS_LIMIT:
            self.corpus.append(args[1])

    def selected(self, args: tuple, candidates: list) -> None:
        """``select()`` returned its candidate riders."""
        self.riders += len(candidates)


def _replay_name(args: tuple) -> str:
    """``run(simulator, policy=None)``: the baseline replay has no policy."""
    policy = args[1] if len(args) > 1 else None
    return (
        "speculation:replay_baseline"
        if policy is None
        else "speculation:replay_policy"
    )


@contextlib.contextmanager
def traced(rec: Recorder, tally: Tally) -> Iterator[None]:
    """Wrap the program's public callables; restore them on exit."""
    rec.wrap(
        SyntheticTraceGenerator, "generate", "workload:generate", tally.generated
    )
    rec.wrap(DependencyModel, "estimate", "speculation:estimate")
    rec.wrap(SparseDependencyEngine, "closure_rows", "speculation:closure")
    rec.wrap(ThresholdPolicy, "select", "speculation:select", tally.selected)
    rec.wrap(SpeculativeServiceSimulator, "run", _replay_name)
    rec.wrap(OnlineDependencyEstimator, "warm", "runtime.estimator:warm")
    rec.wrap(BinaryCodec, "encode", "runtime.messages:encode", tally.encoded)
    rec.wrap(BinaryCodec, "decode", "runtime.messages:decode")
    rec.wrap(InMemoryNetwork, "deliver", "runtime.transport:deliver")
    rec.wrap(OriginServer, "handle", "runtime.origin:handle")
    try:
        yield
    finally:
        rec.unwrap_all()


def dominant_layer(summary: dict[str, dict[str, float]]) -> tuple[str, float]:
    """The layer with the largest self time, grouping spans excluded."""
    by_layer: dict[str, float] = {}
    for name, stats in summary.items():
        if name not in GROUPING:
            layer = name.split(":", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + stats["self_s"]
    if not by_layer:
        return "none", 0.0
    layer = max(by_layer, key=lambda key: by_layer[key])
    return layer, by_layer[layer]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(
    *,
    setup: dict[str, dict[str, float]],
    repeat: dict[str, dict[str, float]],
    outcome: Outcome,
    tally: Tally,
    traced_wall: float,
    untraced_wall: float,
    setup_seconds: float,
    cpu_self: float,
    cpu_children: float,
    probes: dict[str, float],
) -> dict[str, float]:
    """The per-layer table for one traced repeat.

    Args:
        setup: Span summary of the traced set-up.
        repeat: Span summary of the traced repeat.
        outcome: The traced repeat's outcome (its counts are exact).
        tally: What the wrappers counted during the traced repeat.
        traced_wall: Wall seconds of the traced repeat.
        untraced_wall: Median wall of this run's untraced repeats.
        setup_seconds: Wall seconds of this run's set-up.
        cpu_self: Harness-process CPU seconds over the traced repeat.
        cpu_children: Waited-for children's CPU seconds over it.
        probes: Stand-alone probe results, keyed by metric name.
    """

    def total(name: str, summary: dict = repeat) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return repeat.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(repeat.get(name, {}).get("calls", 0))

    def counted(name: str) -> float:
        return sum(arm.get(name, 0) for arm in outcome.arms.values())

    def node_sum(prefix: str, suffix: str) -> float:
        return sum(
            value
            for arm in outcome.arms.values()
            for name, value in arm.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    live = bool(outcome.latency)
    speculative = outcome.latency.get("speculative") or outcome.latency.get("fleet") or {}
    baseline = outcome.latency.get("baseline") or outcome.latency.get("demand") or {}
    frames = calls("runtime.messages:encode")
    frames_sent = counted("network.frames_sent")
    select_calls = calls("speculation:select")
    proxy_hits = node_sum("proxy.", ".hits")
    proxy_forwards = node_sum("proxy.", ".forwards")
    sibling_hits = node_sum("fleet.", ".sibling_hits")
    probe_misses = node_sum("fleet.", ".probe_misses")
    deployed = "deploy.service:execute" in repeat
    unattributed = sum(
        stats["self_s"] for name, stats in repeat.items() if name in GROUPING
    )

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(probes)
    metrics.update(
        {
            "workload.generate_s": total("workload:generate", setup),
            "workload.generated_requests": tally.generated_requests,
            "dissemination.placed_documents": outcome.extra.get(
                "placed_documents", 0
            ),
            "fleet.plan_s": total("fleet:plan", setup),
            "speculation.estimate_s": total("speculation:estimate"),
            "speculation.closure_s": total("speculation:closure"),
            "speculation.replay_baseline_s": total("speculation:replay_baseline"),
            "speculation.replay_policy_s": repeat.get(
                "speculation:replay_policy", {}
            ).get("median_s", 0.0),
            "speculation.select_s": self_s("speculation:select"),
            "speculation.select_calls": select_calls,
            "speculation.riders_per_select": _share(tally.riders, select_calls),
            "core.experiment_self_s": self_s("core:experiment"),
            "core.sweep_self_s": self_s("core:sweep"),
            "runtime.estimator.warm_s": total("runtime.estimator:warm"),
            "runtime.messages.encode_s": total("runtime.messages:encode"),
            "runtime.messages.decode_s": total("runtime.messages:decode"),
            "runtime.messages.frames": frames,
            "runtime.messages.wire_bytes_per_frame": _share(
                tally.wire_bytes, frames
            ),
            "runtime.transport.deliver_self_s": self_s("runtime.transport:deliver"),
            "runtime.transport.frames_sent": frames_sent,
            "runtime.transport.frames_per_access": _share(
                frames_sent, outcome.accesses
            ),
            "runtime.transport.frames_dropped": counted("network.frames_dropped"),
            "runtime.transport.handler_errors": counted("network.handler_errors"),
            "runtime.origin.handle_s": total("runtime.origin:handle"),
            "runtime.origin.requests": counted("origin.requests"),
            "runtime.origin.duplicate_requests": counted(
                "origin.duplicate_requests"
            ),
            "runtime.proxy.hits": proxy_hits,
            "runtime.proxy.forwards": proxy_forwards,
            "runtime.proxy.local_hit_share": _share(
                proxy_hits, proxy_hits + proxy_forwards
            ),
            "runtime.loadgen.retries": counted("retries"),
            "runtime.loadgen.requests_failed": counted("requests_failed"),
            "runtime.loadgen.arm_baseline_s": total("runtime.loadgen:arm_baseline"),
            "runtime.loadgen.arm_speculative_s": total(
                "runtime.loadgen:arm_speculative"
            ),
            "runtime.loadgen.latency_p99_ms": speculative.get("p99", 0.0) * 1e3,
            "runtime.loadgen.baseline_latency_p50_ms": baseline.get("p50", 0.0)
            * 1e3,
            "fleet.sibling_hits": sibling_hits,
            "fleet.probe_misses": probe_misses,
            "fleet.probe_rejects": node_sum("fleet.", ".probe_rejects"),
            "fleet.probe_hit_share": _share(
                sibling_hits, sibling_hits + probe_misses
            ),
            "fleet.forwards": node_sum("fleet.", ".forwards"),
            "trace_overhead_share": traced_wall / untraced_wall - 1.0,
            "unattributed_share": _share(unattributed, traced_wall),
            "failed_share": _share(outcome.failed, outcome.operations),
        }
    )
    if live:
        metrics["runtime.loadgen.client_cache_hit_share"] = _share(
            counted("cache_hits"), outcome.accesses
        )
        metrics["runtime.loadgen.demand_requests_per_s"] = (
            outcome.operations / untraced_wall
        )
    if "trace:split" in setup:  # the fleet set-up runs these steps itself
        metrics["trace.split_s"] = total("trace:split", setup)
        metrics["topology.build_tree_s"] = total("topology:build_tree", setup)
    if deployed:
        serving = counted("run.virtual_seconds")  # the coordinator's wall
        metrics["deploy.service.overhead_s"] = (
            total("deploy.service:execute") - serving - setup_seconds
        )
        metrics["deploy.workers.cpu_s"] = cpu_children
        metrics["deploy.coordinator.cpu_s"] = cpu_self
        metrics["deploy.bus.duplicate_events"] = outcome.extra.get(
            "bus_duplicates", 0
        )
    stray = metrics.keys() - PER_LAYER.keys()
    if stray:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {stray}")
    return metrics

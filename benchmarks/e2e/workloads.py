"""The four workloads: what each prepares, repeats and must get right.

Every workload is a literal configuration seeded by ``--seed``; the
program only ever receives generated inputs.  ``setup`` is the timed
preparation behind ``setup_s``, ``warm_up`` runs once untimed (and
collects whatever reference the checks need), ``repeat`` is the timed
unit, and ``verify`` returns the problems found — an empty list passes.
Why each workload exists is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import BASELINE, DeploySpec
from repro.core import Experiment, evaluate_thresholds
from repro.deploy import execute_deploy
from repro.errors import ReproError
from repro.obs import ObsConfig
from repro.fleet import build_fleet_plan, execute_fleet, fleet_smoke_settings
from repro.runtime import LiveSettings, execute_loadtest
from repro.runtime.metrics import live_ratios, verify_conservation
from repro.runtime.service import prepare_live_run
from repro.topology.builder import build_clientele_tree
from repro.trace.records import Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

#: The ten-point T_p grid of Figure 5 (benchmarks/conftest.py sweeps the same).
GRID = (0.95, 0.75, 0.5, 0.35, 0.25, 0.2, 0.15, 0.1, 0.08, 0.05)
#: Closed loop: a client sees its reply before its next access, and the
#: load generator admits this many requests at once.  Eight in flight
#: gave the highest and steadiest TCP throughput on the 2-CPU reference
#: box (README.md, "Load shape").
IN_FLIGHT = 8


def mid_config(seed: int, quick: bool) -> GeneratorConfig:
    """MID: ~37k remote requests, ~17.7k serving-half accesses per arm."""
    if quick:
        return GeneratorConfig(
            seed=seed, n_pages=80, n_clients=60, n_sessions=500, duration_days=10
        )
    return GeneratorConfig(
        seed=seed, n_pages=300, n_clients=600, n_sessions=5000, duration_days=30
    )


def ratio_tuple(ratios: Any) -> tuple[float, ...]:
    """The paper's four ratios as a comparable tuple."""
    return dataclasses.astuple(ratios)


@dataclass
class Outcome:
    """What one repeat produced, reduced to what metrics and checks read.

    Attributes:
        accesses: Client accesses accounted (summed over arms/replays).
        operations: Operations attempted — requests put on the wire, or
            replays for the batch shape.
        failed: Operations that failed.
        ratios: Named four-ratio tuples (bit-compared across repeats).
        arms: Per-arm counter snapshots (integers bit-compared).
        latency: Per-arm ``request_latency`` summaries, in seconds on
            whichever clock the shape runs (wall for TCP, virtual else).
        extra: Shape-specific numbers for the per-layer table.
    """

    accesses: int
    operations: int
    failed: int
    ratios: dict[str, tuple[float, ...]]
    arms: dict[str, dict[str, Any]] = field(default_factory=dict)
    latency: dict[str, dict[str, float]] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> tuple[Any, ...]:
        """Everything that must repeat bit for bit: the ratios and
        every integer counter (wall-clock counters are floats)."""
        integers = {
            arm: {k: v for k, v in sorted(c.items()) if isinstance(v, int)}
            for arm, c in sorted(self.arms.items())
        }
        return (self.accesses, self.operations, self.failed, self.ratios, integers)


def _live_outcome(
    snapshots: dict[str, dict[str, Any]],
    ratios: dict[str, tuple[float, ...]],
    **extra: Any,
) -> Outcome:
    """Fold per-arm registry snapshots into an :class:`Outcome`."""
    arms = {arm: snap.get("counters", {}) for arm, snap in snapshots.items()}
    accesses = sum(c.get("accesses", 0) for c in arms.values())
    hits = sum(c.get("cache_hits", 0) for c in arms.values())
    failed = sum(
        c.get("requests_failed", 0) + c.get("protocol_errors", 0)
        for c in arms.values()
    )
    latency = {
        arm: snap.get("histograms", {}).get("request_latency", {})
        for arm, snap in snapshots.items()
    }
    return Outcome(
        accesses=int(accesses),
        operations=int(accesses - hits),
        failed=int(failed),
        ratios=ratios,
        arms=arms,
        latency=latency,
        extra=extra,
    )


class Workload:
    """Shared shape of the four workloads."""

    name = ""
    #: Requests the shape keeps in flight; with ``operations`` and the
    #: repeat's wall this gives the time one operation spends in the
    #: system (Little's law) where no wall-clock latency is measured.
    in_flight = 1
    #: Untimed repeats before timing starts.
    warm_ups = 1

    def __init__(self, seed: int, quick: bool, rec: Any, scratch: Path):
        self.seed = seed
        self.quick = quick
        self.rec = rec
        self.scratch = scratch

    def setup(self) -> None:
        """The preparation ``setup_s`` times."""
        raise NotImplementedError

    def warm_up(self) -> list[Outcome]:
        """Untimed repeats; their outcomes join the identity check."""
        return [self.repeat() for _ in range(self.warm_ups)]

    def repeat(self) -> Outcome:
        """The timed unit."""
        raise NotImplementedError

    def latency_ms(self, outcome: Outcome, wall: float) -> float:
        """Wall-clock milliseconds one operation spends in the system.

        Nothing here has a per-operation wall clock (the in-memory
        shapes run on virtual time, the batch shape has no requests), so
        this is Little's law on the closed loop: operations in flight
        times the repeat's wall, over the operations completed.
        """
        return self.in_flight * wall / outcome.operations * 1e3

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        """Problems with the run's outputs (empty means correct)."""
        problems = []
        first = outcomes[0].fingerprint()
        for position, outcome in enumerate(outcomes[1:], start=1):
            if outcome.fingerprint() != first:
                problems.append(
                    f"repeat {position} differs from repeat 0 in its "
                    "ratios or integer counters"
                )
        failed = sum(outcome.failed for outcome in outcomes)
        if failed:
            problems.append(f"{failed} operations failed (failed_share must be 0)")
        return problems


class BatchPaper(Workload):
    """The researcher's path: one-shot Figure-5 sweep at paper scale."""

    name = "batch-paper"
    # The first replays after set-up run up to 1.7x slower than the
    # steady state (allocator and numpy warm-up); three settle it.
    warm_ups = 3

    def config(self) -> GeneratorConfig:
        """``GeneratorConfig.paper_scale`` (a tenth of it when quick)."""
        config = GeneratorConfig.paper_scale(self.seed)
        if self.quick:
            config = dataclasses.replace(config, n_clients=850, n_sessions=2800)
        return config

    def setup(self) -> None:
        self.trace = SyntheticTraceGenerator(self.config()).generate()

    def repeat(self) -> Outcome:
        # A fresh Trace object per repeat keeps every per-trace memo
        # cold, as in a one-shot ``repro sweep``.
        with self.rec.span("trace:copy"):
            fresh = Trace(self.trace.requests, self.trace.documents.values())
        with self.rec.span("core:experiment"):
            experiment = Experiment(fresh, BASELINE, train_days=60.0)
        with self.rec.span("core:sweep"):
            points = evaluate_thresholds(experiment, list(GRID))
        replays = len(points) + 1  # the shared no-speculation baseline
        return Outcome(
            accesses=len(experiment.test) * replays,
            operations=replays,
            failed=0,
            ratios={
                f"T_p={point.parameter}": ratio_tuple(point.ratios)
                for point in points
            },
            arms={
                f"T_p={point.parameter}": {
                    "accesses": point.run.accesses,
                    "cache_hits": point.run.cache_hits,
                    **dataclasses.asdict(point.run.metrics),
                }
                for point in points
            },
        )

    def latency_ms(self, outcome: Outcome, wall: float) -> float:
        """One access at a time: the wall one access takes.  (Per
        replay it would scale with the seed's test-half size.)"""
        return wall / outcome.accesses * 1e3

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        problems = super().verify(outcomes)
        bandwidth, server_load, _, _ = outcomes[0].ratios["T_p=0.25"]
        if not server_load < 1.0 <= bandwidth:
            problems.append(
                "at T_p=0.25 speculation must cut server load and cost "
                f"bandwidth: server_load={server_load} bandwidth={bandwidth}"
            )
        return problems


class _LivePair(Workload):
    """Baseline/speculative pair prepared by ``prepare_live_run``."""

    in_flight = IN_FLIGHT

    def settings(self) -> LiveSettings:
        """``LiveSettings(seed=S, concurrency=8)``."""
        return LiveSettings(seed=self.seed, concurrency=IN_FLIGHT)

    def setup(self) -> None:
        self.prepared = prepare_live_run(
            mid_config(self.seed, self.quick), self.settings()
        )

    def memory_pair(self, obs: ObsConfig | None = None) -> Outcome:
        """Both arms on the in-memory network under the virtual clock."""
        with self.rec.span("runtime.loadgen:arm_baseline"):
            baseline, _ = self.prepared.arm(speculative=False, obs=obs)
        with self.rec.span("runtime.loadgen:arm_speculative"):
            speculative, _ = self.prepared.arm(speculative=True, obs=obs)
        return _live_outcome(
            {"baseline": baseline, "speculative": speculative},
            {"live": ratio_tuple(live_ratios(speculative, baseline))},
            placed_documents=len(self.prepared.holdings),
        )


class LiveMem(_LivePair):
    """Per-message work with no sockets and no processes."""

    name = "live-mem"

    def warm_up(self) -> list[Outcome]:
        # The warm-up doubles as the parity check against the batch
        # replay; it prepares its own copy of the same seeded inputs.
        report = execute_loadtest(
            mid_config(self.seed, self.quick), self.settings(), verify_batch=True
        )
        report.require_convergence(0.05)
        return [
            _live_outcome(
                {"baseline": report.baseline, "speculative": report.speculative},
                {"live": ratio_tuple(report.ratios)},
            )
        ]

    def repeat(self) -> Outcome:
        return self.memory_pair()

    def observed_repeat(self) -> Outcome:
        """A repeat with every observability channel on."""
        return self.memory_pair(ObsConfig.full())

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        problems = super().verify(outcomes)
        for arm, counters in outcomes[-1].arms.items():
            try:
                verify_conservation({"counters": counters}, strict=True)
            except ReproError as err:
                problems.append(f"{arm} arm: {err}")
        return problems


class LiveFleet(Workload):
    """Three arms through ``FleetNode``: probes, forwards, node riders."""

    name = "live-fleet"
    in_flight = IN_FLIGHT

    def settings(self) -> Any:
        """``fleet_smoke_settings(S)`` with eight in flight."""
        return dataclasses.replace(
            fleet_smoke_settings(self.seed), concurrency=IN_FLIGHT
        )

    def setup(self) -> None:
        settings = self.settings()
        full = SyntheticTraceGenerator(mid_config(self.seed, self.quick)).generate()
        with self.rec.span("trace:split"):
            trace = full.remote_only()
            boundary = trace.start_time + settings.train_fraction * trace.duration
            train = trace.window(trace.start_time, boundary)
        with self.rec.span("topology:build_tree"):
            tree = build_clientele_tree(trace)
        with self.rec.span("fleet:plan"):
            build_fleet_plan(
                tree,
                train,
                budget_bytes=settings.budget_bytes,
                policy=settings.policy,
                region_fraction=settings.region_fraction,
            )

    def repeat(self) -> Outcome:
        with self.rec.span("fleet.service:execute"):
            report = execute_fleet(
                mid_config(self.seed, self.quick), self.settings()
            )
        return _live_outcome(
            {"demand": report.demand, "single": report.single, "fleet": report.fleet},
            {
                "fleet": ratio_tuple(report.ratios),
                "single": ratio_tuple(report.single_ratios),
            },
        )


class LiveTcp(_LivePair):
    """Real sockets, forked shards and proxy host, JSONL bus, merge."""

    name = "live-tcp"

    def spec(self, bus_path: str) -> DeploySpec:
        """Three processes: two origin shards and one proxy host."""
        return DeploySpec(processes=3, shards=2, replicas=2, bus_path=bus_path)

    def warm_up(self) -> list[Outcome]:
        # The in-memory pair for the same seed is the reference the TCP
        # ratios must equal; it also warms the load generator.
        self.reference = self.memory_pair()
        return [self.repeat() for _ in range(self.warm_ups)]

    def repeat(self) -> Outcome:
        # A bus directory is a log: a second run on it would replay the
        # first run's events, so each repeat gets its own and removes it.
        bus = tempfile.mkdtemp(prefix="bus-", dir=self.scratch)
        try:
            with self.rec.span("deploy.service:execute"):
                report = execute_deploy(
                    mid_config(self.seed, self.quick),
                    self.settings(),
                    spec=self.spec(bus),
                )
        finally:
            shutil.rmtree(bus, ignore_errors=True)
        return _live_outcome(
            {"baseline": report.baseline, "speculative": report.speculative},
            {"live": ratio_tuple(report.ratios)},
            placed_documents=report.disseminated_documents,
            bus_duplicates=report.bus_duplicates,
        )

    def latency_ms(self, outcome: Outcome, wall: float) -> float:
        """The speculative arm's measured wall-clock request p50."""
        return outcome.latency["speculative"]["p50"] * 1e3

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        problems = super().verify(outcomes)
        if outcomes[0].ratios != self.reference.ratios:
            problems.append(
                f"TCP ratios {outcomes[0].ratios} differ from the in-memory "
                f"ratios {self.reference.ratios} at the same seed"
            )
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchPaper, LiveMem, LiveFleet, LiveTcp)
}

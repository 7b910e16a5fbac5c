"""Engines: run the live system and report the paper's four ratios.

:func:`execute_loadtest` is the engine behind ``repro loadtest`` and
the integration tests.  It generates a workload, splits it into a
training half (the paper's HistoryLength) and a serving half, and
replays the serving half through
:func:`~repro.runtime.assembly.run_live` **twice** — once demand-only
(baseline), once with dissemination holdings on one
:class:`~repro.runtime.node.CacheNode` per region and a speculation
policy at the origin — and reports the paper's four ratios from the two
metrics snapshots.

Because the in-memory network runs under a virtual clock and the
estimator defaults to a frozen (warm-up-trained) model, a run is fully
deterministic *and* decision-for-decision comparable with
:class:`~repro.core.combined.CombinedProtocolSimulator` on the same
workload — ``verify_batch=True`` performs that comparison inline.

:func:`execute_chaos` (behind ``repro chaos``) replays the same serving
half **four** times: the clean baseline/speculative pair, then the same
pair under a scripted :class:`~repro.runtime.faults.FaultPlan` — proxy
crash + restart, frame-drop ramps, brownouts, partitions.  Because both
arms of each pair suffer identical faults, the four ratios survive the
chaos; :meth:`ChaosReport.require_resilience` asserts they stay within
tolerance of the fault-free ratios while
:func:`~repro.runtime.metrics.verify_conservation` checks that no byte
was conjured or silently lost along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from ..config import BASELINE, BaselineConfig, DeploySpec
from ..core.combined import CombinedProtocolSimulator, CombinedResult
from ..errors import RuntimeProtocolError, SimulationError
from ..obs import (
    ArmObservations,
    MetricsRegistry,
    ObsConfig,
    RunObservations,
    merge_registry_states,
)
from ..perf.parallel import parallel_map
from ..speculation.dependency import DependencyModel
from ..speculation.metrics import SpeculationRatios, ratios_from_totals
from ..speculation.policies import ThresholdPolicy
from ..topology.tree import RoutingTree
from ..trace.profiler import WorkloadProfile
from ..trace.records import Trace
from ..trace.sampling import SampledRatioReport, SamplingConfig, client_hash
from ..workload.generator import GeneratorConfig
from .assembly import PreparedTrace, resolve_local_deploy, run_live
from .clock import run_virtual
from .faults import FaultPlan
from .metrics import live_ratios, verify_conservation
from .node import NodeSpec

#: Default relative gap allowed between live and batch ratios.  The
#: batch reference makes the same decisions and counts the same totals,
#: so three ratios match exactly; service time sums the same floats in
#: another order, which moves only its last digits.
BATCH_PARITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LiveSettings:
    """Knobs for one live run.

    Attributes:
        budget_bytes: Proxy storage budget for the dissemination plan.
        concurrency: Load-generator admission-control cap.
        request_timeout: Per-attempt timeout (virtual seconds).
        retries: Retries per request after a timeout.
        train_fraction: Leading fraction of the trace used as history.
        learn_online: Keep updating ``P`` from live requests (breaks
            exact batch parity; the batch reference fits on history
            only).
        cooperative: Piggyback client cache digests (required for exact
            parity of speculation decisions).
        dissemination_interval: Virtual seconds between daemon replans;
            None plans once up front and never replans (the
            parity-preserving default).
        seed: Seed for the network's latency/drop RNG.
        drop_probability: Frame-drop rate (exercises retry paths).
        refresh_interval: Estimator observations between bounded
            closure refreshes when learning online.
        schedule_seed: When not ``None``, perturb the event loop's
            tie-break order for same-virtual-timestamp timers with this
            seed (see :func:`~repro.runtime.clock.run_virtual`).  Used
            by ``repro racecheck``; the reported ratios must be
            bit-identical for every value.
    """

    budget_bytes: float = 2_000_000.0
    concurrency: int = 32
    request_timeout: float = 30.0
    retries: int = 1
    train_fraction: float = 0.5
    learn_online: bool = False
    cooperative: bool = True
    dissemination_interval: float | None = None
    seed: int = 0
    drop_probability: float = 0.0
    refresh_interval: int = 512
    schedule_seed: int | None = None


@dataclass(frozen=True)
class LiveReport:
    """Everything one live loadtest produced.

    Attributes:
        baseline: Metrics snapshot of the demand-only run.
        speculative: Metrics snapshot of the dissemination+speculation
            run.
        ratios: The paper's four ratios, live-measured.
        batch_ratios: The same four ratios from the batch combined
            replay (when ``verify_batch`` was requested); a
            parity-preserving run reproduces them exactly.
        disseminated_documents: Documents the plan pushed to proxies.
        observed: Traces/time-series/manifest for both arms, when the
            run was executed with an enabled
            :class:`~repro.obs.ObsConfig`; None otherwise.
        sampling: Horvitz–Thompson estimates of the four ratios with
            bootstrap intervals when the run replayed a client sample;
            None for full-population runs.
        profile: The sampled workload's profile when the sampling
            config asked for one; None otherwise.
    """

    baseline: dict[str, Any]
    speculative: dict[str, Any]
    ratios: SpeculationRatios
    batch_ratios: SpeculationRatios | None = None
    disseminated_documents: int = 0
    observed: RunObservations | None = None
    sampling: SampledRatioReport | None = None
    profile: WorkloadProfile | None = None

    def max_divergence(self) -> float:
        """Largest relative gap between live and batch ratios.

        Compares all four ratios
        (:meth:`~repro.speculation.metrics.SpeculationRatios.max_gap`,
        batch as the reference); ``inf`` when no batch verification
        ran.
        """
        if self.batch_ratios is None:
            return math.inf
        return self.batch_ratios.max_gap(self.ratios)

    def require_convergence(
        self, tolerance: float = BATCH_PARITY_TOLERANCE
    ) -> None:
        """Assert live ratios match the batch reference.

        Raises:
            RuntimeProtocolError: When any of the four ratios diverges
                from the batch replay by more than ``tolerance``.
        """
        divergence = self.max_divergence()
        if divergence > tolerance:
            raise RuntimeProtocolError(
                f"live ratios diverge {divergence:.3g} from batch replay "
                f"(tolerance {tolerance:g}): live {self.ratios.format()} "
                f"vs batch {self.batch_ratios.format() if self.batch_ratios else '-'}"
            )


@dataclass(frozen=True)
class ChaosSettings:
    """Knobs for one chaos run (``repro chaos``).

    Fault times are **fractions of the fault-free run's virtual
    duration** (measured from the clean speculative arm), so one
    setting works across workloads of any size; :func:`execute_chaos`
    converts them to absolute virtual seconds when it builds the
    :class:`~repro.runtime.faults.FaultPlan`.

    Attributes:
        live: The underlying live-run knobs (both pairs use them).
        crash_proxy: Index into the sorted proxy list to crash; None
            disables the crash.
        crash_at: When the proxy crashes (fraction of run).
        restart_at: When it restarts; None means it stays down.
        drop_rate: Extra injected frame-drop probability (global).
        drop_from: When the drop ramp starts (fraction of run).
        drop_until: When it ends; None keeps dropping to the end.
        latency_extra: Extra one-way seconds injected (absolute
            seconds, not a fraction — it is a delay, not a time).
        latency_target: Endpoint the brownout applies to; empty means
            every link, and ``"origin"`` is an alias for the tree root.
        latency_from: When the brownout starts (fraction of run).
        latency_until: When it ends; None keeps it to the end.
        partition_proxy: Index of a proxy to partition from the origin;
            None disables the partition.
        partition_from: When the partition starts (fraction of run).
        partition_until: When it heals; None never heals.
        pause_daemon_from: When the dissemination daemon pauses; None
            disables the pause.
        pause_daemon_until: When it resumes; None never resumes.
    """

    live: LiveSettings = field(default_factory=LiveSettings)
    crash_proxy: int | None = 0
    crash_at: float = 0.2
    restart_at: float | None = 0.5
    drop_rate: float = 0.0
    drop_from: float = 0.0
    drop_until: float | None = None
    latency_extra: float = 0.0
    latency_target: str = ""
    latency_from: float = 0.0
    latency_until: float | None = None
    partition_proxy: int | None = None
    partition_from: float = 0.0
    partition_until: float | None = None
    pause_daemon_from: float | None = None
    pause_daemon_until: float | None = None


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run produced.

    Attributes:
        clean: The fault-free baseline/speculative pair and its ratios.
        faulted: The same pair replayed under the fault plan.
        fault_events: ``(virtual_time, label)`` timeline of every fault
            the injector fired during the faulted speculative arm.
    """

    clean: LiveReport
    faulted: LiveReport
    fault_events: tuple[tuple[float, str], ...] = ()

    def max_ratio_divergence(self) -> float:
        """Largest relative gap between faulted and clean ratios.

        Compares all four of the paper's ratios (clean as the
        reference): the whole point of the resilience machinery is that
        scripted faults change *when* things happen, not *what* the
        protocols ultimately deliver.
        """
        return self.clean.ratios.max_gap(self.faulted.ratios)

    def require_resilience(self, tolerance: float = 0.05) -> None:
        """Assert the faulted ratios track the fault-free ratios.

        Raises:
            RuntimeProtocolError: When any of the four ratios diverges
                beyond ``tolerance``.
        """
        divergence = self.max_ratio_divergence()
        if divergence > tolerance:
            raise RuntimeProtocolError(
                f"chaos ratios diverge {divergence:.1%} from the fault-free "
                f"run (tolerance {tolerance:.0%}): faulted "
                f"{self.faulted.ratios.format()} vs clean "
                f"{self.clean.ratios.format()}"
            )


def smoke_workload(seed: int = 0) -> GeneratorConfig:
    """The small deterministic workload ``repro loadtest --smoke`` uses."""
    return GeneratorConfig(
        seed=seed,
        n_pages=80,
        n_clients=60,
        n_sessions=500,
        duration_days=10,
    )


def _shard_clients(
    clients: Iterable[str], workers: int
) -> list[tuple[str, ...]]:
    """Partition clients into ``workers`` hash buckets.

    Uses the same :func:`~repro.trace.sampling.client_hash` family as
    trace sampling and generator sharding, so a client's bucket is a
    pure function of its id — stable across runs and machines.
    """
    buckets: list[list[str]] = [[] for _ in range(workers)]
    for client in sorted(clients):
        buckets[client_hash(client) % workers].append(client)
    return [tuple(bucket) for bucket in buckets]


def _batch_ratios(
    serve: Trace,
    tree: RoutingTree,
    proxies: list[str],
    disseminated: set[str],
    model: DependencyModel,
    policy: ThresholdPolicy,
    config: BaselineConfig,
) -> SpeculationRatios:
    """The four ratios from the offline combined replay."""
    simulator = CombinedProtocolSimulator(
        serve, tree, config, model=model, remote_only=False
    )
    base = simulator.run()
    spec = simulator.run(
        proxies=proxies, disseminated=disseminated, policy=policy
    )

    def totals(result: CombinedResult) -> tuple[float, ...]:
        return (
            result.bytes_hops,
            result.origin_requests,
            result.service_time,
            result.miss_bytes,
            result.accessed_bytes,
        )

    return ratios_from_totals(totals(spec), totals(base))


class _PreparedRun(PreparedTrace):
    """The shared trace prep plus the flat tier's topology and plan.

    Built once per :func:`execute_loadtest` / :func:`execute_chaos` call
    so the clean and faulted arms replay byte-identical inputs.
    """

    def __init__(
        self,
        workload: GeneratorConfig,
        settings: LiveSettings,
        config: BaselineConfig,
        sampling: SamplingConfig | None = None,
    ):
        super().__init__(workload, settings, config, sampling, what="live loadtest")
        self.learn_online = settings.learn_online
        self.refresh_interval = settings.refresh_interval
        self.proxies, self.routes = self.region_routes()
        self.holdings = self.origin_plan(settings.budget_bytes)

    def node_specs(self, *, speculative: bool) -> list[NodeSpec]:
        """The flat tier as cache-node specs.

        A region proxy is the degenerate cache node (the paper's
        footnote 5): no siblings, the origin as upstream, and every
        replica holding the same origin-computed plan (nothing in the
        demand-only arm).
        """
        held = tuple(sorted(self.holdings.items())) if speculative else ()
        return [
            NodeSpec(
                name=region,
                depth=self.tree.depth(region),
                upstream=self.tree.root,
                upstream_distance=self.tree.depth(region),
                holdings=held,
            )
            for region in self.proxies
        ]

    def _run(
        self,
        *,
        speculative: bool,
        fault_plan: FaultPlan | None = None,
        obs: ObsConfig | None = None,
        clients: frozenset[str] | None = None,
    ) -> tuple[MetricsRegistry, ArmObservations | None]:
        """One arm (or one shard of it) under the virtual clock."""
        return run_virtual(
            run_live(
                self.serve,
                self.tree,
                self.node_specs(speculative=speculative),
                self.routes,
                label="proxy",
                config=self.config,
                settings=self.settings,
                estimator=self.fresh_estimator(),
                origin_policy=self.policy if speculative else None,
                daemon_budget=self.settings.budget_bytes,
                daemon_interval=self.settings.dissemination_interval,
                fault_plan=fault_plan,
                obs=obs,
                clients=clients,
            ),
            schedule_seed=self.settings.schedule_seed,
        )

    def arm(
        self,
        *,
        speculative: bool,
        fault_plan: FaultPlan | None = None,
        obs: ObsConfig | None = None,
    ) -> tuple[dict[str, Any], ArmObservations | None]:
        """Run one arm under the virtual clock.

        Returns:
            The arm's metrics snapshot, plus its
            :class:`~repro.obs.ArmObservations` when ``obs`` enables
            any channel (None otherwise).
        """
        metrics, observed = self._run(
            speculative=speculative, fault_plan=fault_plan, obs=obs
        )
        return metrics.snapshot(), observed

    def arm_sharded(self, *, speculative: bool, workers: int) -> dict[str, Any]:
        """Run one arm with its client population split across workers.

        Each worker replays only its hash-bucket of clients
        (:func:`_shard_clients`) against the *full* topology, holdings
        and routing, then exports its registry's exact state; the
        merged snapshot's counters are bit-identical to a
        single-process :meth:`arm` because fault-free proxy state is
        static (holdings change only via pushes or breaker-open miss
        recovery, neither of which sharding preconditions allow), so
        every per-client counter contribution is independent of which
        process serves which client.  The only cross-shard quantities
        are ``run.virtual_seconds`` (a clock, merged by max — each
        shard's virtual clock starts at zero) and the
        ``request_latency`` histogram, whose *observations* depend on
        the shared jitter-RNG draw order and therefore reflect the
        sharded schedule rather than the single-process one.
        """
        buckets = _shard_clients(self.serve.clients(), workers)

        def run_shard(bucket: tuple[str, ...]) -> dict[str, Any]:
            metrics, _ = self._run(
                speculative=speculative, clients=frozenset(bucket)
            )
            return metrics.export_state()

        states = parallel_map(run_shard, buckets, workers=workers)
        merged = merge_registry_states(
            states, max_counters=("run.virtual_seconds",)
        )
        return merged.snapshot()

    def pair(
        self,
        *,
        fault_plan: FaultPlan | None = None,
        obs: ObsConfig | None = None,
        workers: int = 1,
    ) -> LiveReport:
        """Run the baseline arm, then the speculative arm, and report."""
        if workers > 1:
            baseline = self.arm_sharded(speculative=False, workers=workers)
            speculative = self.arm_sharded(speculative=True, workers=workers)
            baseline_obs = speculative_obs = None
        else:
            baseline, baseline_obs = self.arm(
                speculative=False, fault_plan=fault_plan, obs=obs
            )
            speculative, speculative_obs = self.arm(
                speculative=True, fault_plan=fault_plan, obs=obs
            )
        return LiveReport(
            baseline=baseline,
            speculative=speculative,
            ratios=live_ratios(speculative, baseline),
            disseminated_documents=len(self.holdings),
            observed=self.observations(speculative_obs, baseline_obs),
            sampling=self.sampling_report,
            profile=self.profile,
        )


def prepare_live_run(
    workload: GeneratorConfig,
    settings: LiveSettings | None = None,
    *,
    config: BaselineConfig = BASELINE,
    sampling: SamplingConfig | None = None,
) -> _PreparedRun:
    """Build the shared workload/topology/plan prep for alternate executors.

    The distributed deployment layer (:mod:`repro.deploy`) replays the
    same prepared inputs through real processes; going through this one
    factory guarantees its arms are byte-identical to the in-process
    arms :func:`execute_loadtest` runs.

    Raises:
        SimulationError: On a workload too small to split.
    """
    settings = settings if settings is not None else LiveSettings()
    return _PreparedRun(workload, settings, config, sampling)


def require_shard_exact(
    settings: LiveSettings, obs: ObsConfig | None = None
) -> None:
    """Reject configurations whose counters are not shard-exact.

    Multi-process execution — ``workers > 1`` here, or any distributed
    :class:`~repro.config.DeploySpec` — needs counters that are exact
    under any client-to-process assignment.

    Raises:
        SimulationError: When a knob couples clients across shards —
            frame drops (each shard restarts the loss stream of every
            link it shares with other shards), online learning
            (estimator state depends on global request order), a
            replanning daemon (each shard would push and count its own
            copy), or observability channels (windowed time-series
            sample per-shard virtual clocks).
    """
    problems = []
    if settings.drop_probability != 0.0:
        problems.append("drop_probability must be 0")
    if settings.learn_online:
        problems.append("learn_online must be False")
    if settings.dissemination_interval is not None:
        problems.append("dissemination_interval must be None")
    if obs is not None and obs.enabled:
        problems.append("obs channels must be disabled")
    if problems:
        raise SimulationError(
            "sharded loadtest (workers > 1) requires a "
            f"shard-exact configuration: {'; '.join(problems)}"
        )


def execute_loadtest(
    workload: GeneratorConfig,
    settings: LiveSettings | None = None,
    *,
    config: BaselineConfig = BASELINE,
    verify_batch: bool = False,
    obs: ObsConfig | None = None,
    sampling: SamplingConfig | None = None,
    workers: int = 1,
    deploy: DeploySpec | None = None,
) -> LiveReport:
    """Generate a workload and run it live, baseline vs. speculation.

    This is the engine behind :meth:`repro.api.Session.loadtest`.

    Args:
        workload: Synthetic workload configuration (seeded).
        settings: Live-run knobs; defaults to :class:`LiveSettings`.
        config: The paper's cost model and timeouts.
        verify_batch: Also replay the serving half through the batch
            combined simulator and attach its ratios for comparison.
        obs: Observability channels to enable for both arms; None (or
            an all-off config) runs exactly as before this layer
            existed.
        sampling: Replay only a hash-selected client fraction and
            attach Horvitz–Thompson ratio estimates with bootstrap
            intervals (:class:`~repro.trace.sampling.SamplingConfig`);
            None replays the full population.
        workers: Shard the client population across this many forked
            processes (:func:`~repro.perf.parallel.parallel_map`),
            merging per-shard metrics into counters bit-identical to a
            single-process run.  Requires a shard-exact configuration
            (no drops, no online learning, no replanning daemon, no
            obs channels); 1 runs in-process as before.
        deploy: A **local** :class:`~repro.config.DeploySpec`
            (``processes == 1``); its ``workers`` override the bare
            ``workers`` argument, so the spec is the single source of
            execution shape.  A
            distributed spec is rejected — route it through
            :func:`repro.deploy.execute_deploy`.

    Returns:
        A :class:`LiveReport` with both snapshots and the ratios (and
        ``observed`` filled in when ``obs`` enables a channel).

    Raises:
        SimulationError: If the trace is too small to split into
            non-empty training and serving halves, if ``workers > 1``
            with a configuration whose counters are not shard-exact, or
            if ``deploy`` is a distributed spec.
    """
    settings = settings if settings is not None else LiveSettings()
    workers = resolve_local_deploy(deploy, workers)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        require_shard_exact(settings, obs)
    prepared = _PreparedRun(workload, settings, config, sampling)
    report = prepared.pair(obs=obs, workers=workers)
    if verify_batch:
        model = DependencyModel.estimate(
            prepared.train,
            window=config.stride_timeout,
            stride_timeout=config.stride_timeout,
        )
        report = replace(
            report,
            batch_ratios=_batch_ratios(
                prepared.serve,
                prepared.tree,
                prepared.proxies,
                set(prepared.holdings),
                model,
                prepared.policy,
                config,
            ),
        )
    return report


def _build_fault_plan(
    settings: ChaosSettings, proxies: list[str], root: str, duration: float
) -> FaultPlan:
    """Scale the fractional chaos knobs into an absolute fault plan.

    Raises:
        SimulationError: When a knob names a proxy index the topology
            does not have.
    """

    def proxy_name(index: int) -> str:
        if not 0 <= index < len(proxies):
            raise SimulationError(
                f"chaos targets proxy index {index} but the topology "
                f"has {len(proxies)} proxies"
            )
        return proxies[index]

    def at(fraction: float) -> float:
        return round(fraction * duration, 9)

    def end(fraction: float | None) -> float | None:
        """An open end (None) stays open."""
        return None if fraction is None else at(fraction)

    plan = FaultPlan()
    if settings.drop_rate > 0.0:
        plan.drop_rate(
            settings.drop_rate,
            at=at(settings.drop_from),
            until=end(settings.drop_until),
        )
    if settings.crash_proxy is not None:
        plan.crash(
            proxy_name(settings.crash_proxy),
            at=at(settings.crash_at),
            restart_at=end(settings.restart_at),
        )
    if settings.latency_extra > 0.0:
        # "origin" is a convenience alias for the tree root's endpoint
        # name, which callers (the CLI) do not know ahead of time.
        target = settings.latency_target
        if target == "origin":
            target = root
        plan.latency_add(
            settings.latency_extra,
            at=at(settings.latency_from),
            until=end(settings.latency_until),
            target=(target,) if target else (),
        )
    if settings.partition_proxy is not None:
        plan.partition(
            root,
            proxy_name(settings.partition_proxy),
            at=at(settings.partition_from),
            heal_at=end(settings.partition_until),
        )
    if settings.pause_daemon_from is not None:
        plan.pause_daemon(
            at=at(settings.pause_daemon_from),
            until=end(settings.pause_daemon_until),
        )
    return plan


def execute_chaos(
    workload: GeneratorConfig,
    settings: ChaosSettings | None = None,
    *,
    config: BaselineConfig = BASELINE,
    fault_plan: FaultPlan | None = None,
    obs: ObsConfig | None = None,
) -> ChaosReport:
    """Run the live pair fault-free, then again under a fault plan.

    This is the engine behind :meth:`repro.api.Session.chaos`.

    Args:
        workload: Synthetic workload configuration (seeded).
        settings: Chaos knobs; defaults to :class:`ChaosSettings`.
        config: The paper's cost model and timeouts.
        fault_plan: Explicit plan in absolute virtual seconds; when
            given it overrides the fractional knobs in ``settings``.
        obs: Observability channels, applied to all four arms; each
            pair's :class:`LiveReport` carries its own observations.

    Returns:
        A :class:`ChaosReport` with both pairs, their ratios and the
        fault timeline.

    Raises:
        RuntimeProtocolError: When a byte/frame conservation invariant
            fails on any of the four snapshots.
        SimulationError: On an unusable workload or fault target.
    """
    settings = settings if settings is not None else ChaosSettings()
    live = settings.live
    prepared = _PreparedRun(workload, live, config)

    clean = prepared.pair(obs=obs)
    strict = live.drop_probability == 0.0
    verify_conservation(clean.baseline, strict=strict)
    verify_conservation(clean.speculative, strict=strict)

    duration = float(
        clean.speculative.get("counters", {}).get("run.virtual_seconds", 0.0)
    )
    if fault_plan is None:
        fault_plan = _build_fault_plan(
            settings, prepared.proxies, prepared.tree.root, duration
        )

    faulted = prepared.pair(fault_plan=fault_plan, obs=obs)
    verify_conservation(faulted.baseline)
    verify_conservation(faulted.speculative)
    fault_events = tuple(
        (float(time), str(name))
        for time, name in faulted.speculative.get("events", ())
        if str(name).startswith("fault:")
    )
    return ChaosReport(clean=clean, faulted=faulted, fault_events=fault_events)


def execute_smoke(
    seed: int = 0,
    *,
    obs: ObsConfig | None = None,
    deploy: DeploySpec | None = None,
) -> LiveReport:
    """The ``repro loadtest --smoke`` self-test.

    Runs the small smoke workload live, verifies the live ratios
    against the batch reference, and raises on divergence — this is the
    check CI runs after the test suite.  ``deploy`` accepts a local
    :class:`~repro.config.DeploySpec` (worker shards) as in
    :func:`execute_loadtest`.

    Raises:
        RuntimeProtocolError: If live and batch ratios diverge beyond
            :data:`BATCH_PARITY_TOLERANCE`.
    """
    report = execute_loadtest(
        smoke_workload(seed),
        LiveSettings(seed=seed),
        verify_batch=True,
        obs=obs,
        deploy=deploy,
    )
    report.require_convergence()
    return report


def chaos_smoke_settings(seed: int = 0) -> ChaosSettings:
    """The scripted faults ``repro chaos --smoke`` injects.

    One proxy crashes a fifth of the way in and restarts at the
    halfway mark (losing its holdings until the daemon re-pushes), on
    top of a 2% global frame-drop rate for the whole run.  Timeouts are
    shortened and retries raised so the retry/backoff machinery — not
    luck — carries the run through.
    """
    return ChaosSettings(
        live=LiveSettings(seed=seed, request_timeout=2.0, retries=3),
        crash_proxy=0,
        crash_at=0.2,
        restart_at=0.5,
        drop_rate=0.02,
    )


def execute_chaos_smoke(
    seed: int = 0,
    *,
    tolerance: float = 0.05,
    obs: ObsConfig | None = None,
) -> ChaosReport:
    """The ``repro chaos --smoke`` self-test.

    Runs the smoke workload through :func:`execute_chaos` with the
    standard smoke fault script and asserts the four live ratios stay
    within ``tolerance`` of the fault-free run — the check CI runs
    after ``repro loadtest --smoke``.

    Raises:
        RuntimeProtocolError: On ratio divergence beyond ``tolerance``
            or a conservation violation.
    """
    report = execute_chaos(
        smoke_workload(seed), chaos_smoke_settings(seed), obs=obs
    )
    report.require_resilience(tolerance)
    return report

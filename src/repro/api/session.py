"""`RunSpec` / `Session` / `RunReport` — the one front door for runs.

Every way of running the reproduction is one idea (seeded workload +
knobs + cost model → ratios), but the engines each take it in their own
keyword dialect.  :class:`RunSpec` normalises the shared inputs once,
:class:`Session` exposes one method per run kind, and every method
returns the same :class:`RunReport` (ratios + time-series + trace
handle), with a single :class:`~repro.obs.ObsConfig` threaded through
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..config import BASELINE, LOCAL_DEPLOY, BaselineConfig, DeploySpec
from ..core.experiment import Experiment, SweepPoint, evaluate_thresholds
from ..core.sensitivity import SensitivityPoint, sweep_workload
from ..deploy.service import (
    DeployFaultPlan,
    execute_deploy,
    execute_deploy_smoke,
)
from ..fleet.service import (
    FleetSettings,
    execute_fleet,
    execute_fleet_smoke,
    fleet_smoke_settings,
)
from ..obs import ObsConfig, RunObservations
from ..perf.bench import build_report, run_scale
from ..runtime.faults import FaultPlan
from ..runtime.service import (
    ChaosSettings,
    LiveSettings,
    chaos_smoke_settings,
    execute_chaos,
    execute_chaos_smoke,
    execute_loadtest,
    execute_smoke,
    smoke_workload,
)
from ..core.sampling import estimate_ratios
from ..speculation.metrics import SpeculationRatios
from ..speculation.policies import SpeculationPolicy
from ..trace.records import Trace
from ..trace.sampling import SamplingConfig
from ..workload.generator import GeneratorConfig, SyntheticTraceGenerator


@dataclass(frozen=True)
class RunSpec:
    """Normalised inputs shared by every kind of run.

    Attributes:
        seed: The one seed behind workload generation, transport
            jitter, fault scheduling and retry backoff.
        workload: Synthetic workload; None means the standard smoke
            workload at ``seed``.
        settings: Live-run knobs; None means :class:`LiveSettings`
            seeded with ``seed``.
        chaos: Chaos knobs; None derives them from ``settings`` (or the
            smoke chaos script when those are defaulted too).
        fleet: Fleet-run knobs; None means the standard fleet preset
            seeded with ``seed``.
        config: The paper's cost model.
        tolerance: Divergence tolerance for the chaos and deploy smoke
            self-checks (the loadtest smoke holds live == batch).
        workers: Process count for sweep sharding (None stays serial).
        deploy: Deployment shape (:class:`~repro.config.DeploySpec`):
            process topology, origin shards, replication, worker
            shards and bus path.  None means the local single-loop default —
            ``DeploySpec(processes=1)`` — so every run kind reads its
            execution shape from this one object.
        obs: Observability channels threaded through every run.
        sampling: Client-sampling knobs
            (:class:`~repro.trace.sampling.SamplingConfig`).  When set,
            loadtest and fleet runs replay only the hash-selected
            client fraction and attach Horvitz–Thompson ratio estimates
            with bootstrap intervals; None replays the full population.
    """

    seed: int = 0
    workload: GeneratorConfig | None = None
    settings: LiveSettings | None = None
    chaos: ChaosSettings | None = None
    fleet: FleetSettings | None = None
    config: BaselineConfig = BASELINE
    tolerance: float = 0.05
    workers: int | None = None
    deploy: DeploySpec | None = None
    obs: ObsConfig = field(default_factory=ObsConfig)
    sampling: SamplingConfig | None = None

    def resolved_workload(self) -> GeneratorConfig:
        """The workload to run: the given one, or the seeded smoke one."""
        return (
            self.workload
            if self.workload is not None
            else smoke_workload(self.seed)
        )

    def resolved_settings(self) -> LiveSettings:
        """The live knobs to run with, seeded consistently."""
        return (
            self.settings
            if self.settings is not None
            else LiveSettings(seed=self.seed)
        )

    def resolved_chaos(self) -> ChaosSettings:
        """The chaos knobs: explicit, derived from settings, or smoke."""
        if self.chaos is not None:
            return self.chaos
        if self.settings is not None:
            return ChaosSettings(live=self.settings)
        return chaos_smoke_settings(self.seed)

    def resolved_fleet(self) -> FleetSettings:
        """The fleet knobs: explicit, or the seeded fleet preset."""
        return (
            self.fleet
            if self.fleet is not None
            else fleet_smoke_settings(self.seed)
        )

    def resolved_deploy(self) -> DeploySpec:
        """The deployment shape: explicit, or the local single-loop one."""
        return self.deploy if self.deploy is not None else LOCAL_DEPLOY


@dataclass(frozen=True)
class RunReport:
    """The common result shape every :class:`Session` method returns.

    Attributes:
        kind: ``"loadtest"``, ``"chaos"``, ``"fleet"``, ``"deploy"``,
            ``"sweep"``, ``"sensitivity"``, ``"sample"`` or
            ``"bench"``.
        ratios: The paper's four ratios, when the run produces a single
            headline set (loadtest and chaos); None otherwise.
        observed: Traces, time-series and the provenance manifest, when
            the spec's :class:`~repro.obs.ObsConfig` enabled a channel.
        detail: The full underlying report (a
            :class:`~repro.runtime.service.LiveReport`,
            :class:`~repro.runtime.service.ChaosReport`, sweep point
            list, or bench report dict).
    """

    kind: str
    ratios: SpeculationRatios | None = None
    observed: RunObservations | None = None
    detail: Any = None

    @property
    def manifest(self) -> dict[str, Any]:
        """The run's provenance manifest; empty when unobserved."""
        return dict(self.observed.manifest) if self.observed else {}

    def trace_jsonl(self) -> str:
        """Deterministic JSONL trace of the speculative arm ('' if none)."""
        return self.observed.trace_jsonl() if self.observed else ""

    def ratio_curve(self) -> list[tuple[float, SpeculationRatios]]:
        """Per-window four-ratio curve (empty without time-series)."""
        return self.observed.ratio_curve() if self.observed else []

    def format(self) -> str:
        """One-line human rendering of the headline result."""
        if self.ratios is not None:
            return f"{self.kind}: {self.ratios.format()}"
        return f"{self.kind}: see detail"


class Session:
    """The front door: one object, one method per kind of run.

    Args:
        spec: The normalised inputs; defaults to :class:`RunSpec`.
        **overrides: Convenience field overrides applied on top of
            ``spec`` (``Session(seed=3, obs=ObsConfig.full())``).

    Every method threads the spec's seed, cost model and
    :class:`~repro.obs.ObsConfig` through the underlying engine and
    wraps the outcome in a :class:`RunReport`.
    """

    def __init__(self, spec: RunSpec | None = None, **overrides: Any):
        base = spec if spec is not None else RunSpec()
        self.spec = replace(base, **overrides) if overrides else base

    def loadtest(
        self, *, smoke: bool = False, verify_batch: bool | None = None
    ) -> RunReport:
        """Run the live baseline/speculative pair and report the ratios.

        Args:
            smoke: Run the standard smoke workload *and* assert live ↔
                batch parity on all four ratios (what ``repro loadtest
                --smoke`` and CI do).
            verify_batch: Attach batch-replay ratios for comparison;
                defaults to True when ``smoke`` is set.

        Raises:
            RuntimeProtocolError: In smoke mode, when live and batch
                ratios diverge.
        """
        spec = self.spec
        if smoke:
            report = execute_smoke(
                spec.seed, obs=spec.obs, deploy=spec.deploy
            )
        else:
            report = execute_loadtest(
                spec.resolved_workload(),
                spec.resolved_settings(),
                config=spec.config,
                verify_batch=bool(verify_batch),
                obs=spec.obs,
                sampling=spec.sampling,
                deploy=spec.deploy,
            )
        return RunReport(
            kind="loadtest",
            ratios=report.ratios,
            observed=report.observed,
            detail=report,
        )

    def chaos(
        self, *, smoke: bool = False, fault_plan: FaultPlan | None = None
    ) -> RunReport:
        """Run the pair fault-free and again under faults; report ratios.

        Args:
            smoke: Run the standard smoke chaos script and assert the
                faulted ratios stay within the spec's tolerance of the
                clean ones (what ``repro chaos --smoke`` and CI do).
            fault_plan: Explicit fault plan in absolute virtual
                seconds; overrides the spec's fractional chaos knobs.

        Raises:
            RuntimeProtocolError: On conservation violations, or (in
                smoke mode) ratio divergence beyond the tolerance.
        """
        spec = self.spec
        if smoke:
            report = execute_chaos_smoke(
                spec.seed, tolerance=spec.tolerance, obs=spec.obs
            )
        else:
            report = execute_chaos(
                spec.resolved_workload(),
                spec.resolved_chaos(),
                config=spec.config,
                fault_plan=fault_plan,
                obs=spec.obs,
            )
        return RunReport(
            kind="chaos",
            ratios=report.faulted.ratios,
            observed=report.faulted.observed,
            detail=report,
        )

    def fleet(
        self, *, smoke: bool = False, fault_plan: FaultPlan | None = None
    ) -> RunReport:
        """Run the proxy fleet against the single tier; report the ratios.

        Args:
            smoke: Run the standard fleet smoke — the run twice, assert
                bit-identical counters, and require every ratio to beat
                the single-tier deployment (what ``repro fleet --smoke``
                and CI do).
            fault_plan: Scripted faults applied to the fleet arm only.

        Returns:
            A :class:`RunReport` whose ``ratios`` compare the fleet to
            the no-speculation demand baseline and whose ``detail`` is
            the full :class:`~repro.fleet.service.FleetReport`
            (including the single-tier ratios at equal total storage).

        Raises:
            RuntimeProtocolError: On conservation violations, or (in
                smoke mode) non-determinism or a ratio the fleet fails
                to improve.
        """
        spec = self.spec
        if smoke:
            report = execute_fleet_smoke(spec.seed, obs=spec.obs)
        else:
            report = execute_fleet(
                spec.resolved_workload(),
                spec.resolved_fleet(),
                config=spec.config,
                fault_plan=fault_plan,
                obs=spec.obs,
                sampling=spec.sampling,
                deploy=spec.deploy,
            )
        return RunReport(
            kind="fleet",
            ratios=report.ratios,
            observed=report.observed,
            detail=report,
        )

    def deploy(
        self,
        *,
        smoke: bool = False,
        fault_plan: DeployFaultPlan | None = None,
    ) -> RunReport:
        """Run the pair under the spec's deployment shape; report ratios.

        A local spec (the default) runs in-process exactly like
        :meth:`loadtest`; a distributed spec forks sharded origins and
        proxy hosts wired over TCP and an event bus, merges every
        process's exact counters, and gates the merged snapshots on
        cross-process conservation and anti-entropy digests.

        Args:
            smoke: Run the standard deploy smoke — a 2-shard/2-proxy-
                host deployment whose four ratios must match the
                single-loop reference bit for bit, then the same
                deployment under a scripted crash/partition plan held
                to the spec's tolerance (what ``repro deploy --smoke``
                and CI do).
            fault_plan: Scripted request-count faults
                (:class:`~repro.deploy.DeployFaultPlan`) for a
                distributed run.

        Returns:
            A :class:`RunReport` of kind ``"deploy"`` whose ``detail``
            is the full :class:`~repro.deploy.DeployReport` (or
            :class:`~repro.deploy.DeploySmokeReport` in smoke mode).

        Raises:
            RuntimeProtocolError: On conservation/anti-entropy failure
                or (in smoke mode) any ratio gate violation.
            SimulationError: On an unusable spec or worker startup
                failure.
        """
        spec = self.spec
        if smoke:
            report = execute_deploy_smoke(spec.seed, tolerance=spec.tolerance)
            return RunReport(
                kind="deploy", ratios=report.deploy.ratios, detail=report
            )
        result = execute_deploy(
            spec.resolved_workload(),
            spec.resolved_settings(),
            config=spec.config,
            spec=spec.resolved_deploy(),
            fault_plan=fault_plan,
        )
        return RunReport(kind="deploy", ratios=result.ratios, detail=result)

    def sweep(
        self,
        thresholds: list[float],
        *,
        trace: Trace | None = None,
        experiment: Experiment | None = None,
        policy_factory: Callable[[float], SpeculationPolicy] | None = None,
    ) -> RunReport:
        """The Figure-5 threshold sweep over the spec's workload.

        Args:
            thresholds: ``T_p`` values to sweep.
            trace: Replay this trace instead of generating the spec's
                workload.
            experiment: A fully prepared experiment (overrides both
                ``trace`` and the generated workload).
            policy_factory: Policy constructor per threshold.

        Returns:
            A :class:`RunReport` whose ``detail`` is the
            :class:`~repro.core.experiment.SweepPoint` list.
        """
        spec = self.spec
        if experiment is None:
            if trace is None:
                trace = SyntheticTraceGenerator(
                    spec.resolved_workload()
                ).generate()
            train_fraction = spec.resolved_settings().train_fraction
            train_days = trace.duration / 86_400.0 * train_fraction
            experiment = Experiment(
                trace, spec.config, train_days=train_days
            )
        points: list[SweepPoint] = evaluate_thresholds(
            experiment,
            thresholds,
            policy_factory=policy_factory,
            workers=spec.workers,
        )
        return RunReport(kind="sweep", detail=points)

    def sensitivity(
        self,
        parameter: str,
        values: list,
        *,
        policy: SpeculationPolicy | None = None,
    ) -> RunReport:
        """Sweep one workload-generator knob; ratios per swept value.

        Args:
            parameter: A :class:`~repro.workload.generator.GeneratorConfig`
                field name.
            values: Values to sweep.
            policy: Speculation policy (defaults to the cost model's
                threshold policy).

        Returns:
            A :class:`RunReport` whose ``detail`` is the
            :class:`~repro.core.sensitivity.SensitivityPoint` list.
        """
        spec = self.spec
        points: list[SensitivityPoint] = sweep_workload(
            parameter,
            values,
            base_config=spec.workload,
            policy=policy,
            sim_config=spec.config,
            train_fraction=spec.resolved_settings().train_fraction,
            workers=spec.workers,
        )
        return RunReport(kind="sensitivity", detail=points)

    def sample(
        self,
        *,
        trace: Trace | None = None,
        policy: SpeculationPolicy | None = None,
    ) -> RunReport:
        """Estimate the four ratios from a client-sampled batch replay.

        Uses the spec's :class:`~repro.trace.sampling.SamplingConfig`
        (or its defaults when the spec leaves ``sampling`` unset): the
        trace is split, the dependency model is estimated on the full
        history, and only the hash-selected client fraction of the
        serving half is replayed — the cheap preview of a full run.

        Args:
            trace: Estimate over this trace instead of generating the
                spec's workload.
            policy: Speculation policy (defaults to the cost model's
                threshold policy).

        Returns:
            A :class:`RunReport` of kind ``"sample"`` whose ``detail``
            is the :class:`~repro.trace.sampling.SampledRatioReport`.
        """
        spec = self.spec
        sampling = spec.sampling or SamplingConfig()
        if trace is None:
            trace = SyntheticTraceGenerator(spec.resolved_workload()).generate()
        train_fraction = spec.resolved_settings().train_fraction
        train_days = trace.duration / 86_400.0 * train_fraction
        report = estimate_ratios(
            trace,
            sampling,
            config=spec.config,
            train_days=train_days,
            policy=policy,
        )
        return RunReport(kind="sample", detail=report)

    def bench(
        self, *, smoke: bool = True, repeats: int | None = None
    ) -> RunReport:
        """Run the performance benchmark trajectory.

        Args:
            smoke: Use the small smoke scale (the full scale takes
                minutes).
            repeats: Timing repeats per section; None uses the scale's
                default.

        Returns:
            A :class:`RunReport` whose ``detail`` is the bench report
            dict (medians, speedups, machine fingerprint, git sha).
        """
        scale = "smoke" if smoke else "full"
        section = run_scale(scale, repeats=repeats)
        report = build_report({scale: section})
        return RunReport(kind="bench", detail=report)

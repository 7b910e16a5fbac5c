"""Wiring: run a proxy fleet live and gate it against the single tier.

:func:`execute_fleet` replays one workload's serving half **three**
times on the in-memory transport under the virtual clock:

* **demand** — the ratio denominator: the single-tier deployment with
  empty caches and no speculation anywhere.
* **single** — the pre-fleet arrangement: one proxy per region, every
  region replicating the same origin-computed dissemination plan, with
  origin-side speculation.  Each replica holds a ``1/R`` share so the
  arm uses the same **total** storage as the fleet.
* **fleet** — the hierarchical fleet from
  :func:`~repro.fleet.plan.build_fleet_plan`: per-region and per-subnet
  nodes, per-subtree demand-driven holdings, the local → sibling →
  parent → origin lookup, and per-node speculative service.

The headline gate (:meth:`FleetReport.require_improvement`) asserts the
paper's four ratios are all better for the fleet than for the
single-tier deployment at equal total storage, and
:func:`execute_fleet_smoke` additionally proves the whole report is
bit-identical across repeated seeded runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..config import BASELINE, BaselineConfig, DeploySpec
from ..errors import RuntimeProtocolError, SimulationError
from ..obs import ArmObservations, ObsConfig, RunObservations
from ..runtime.assembly import (
    PreparedTrace,
    entry_routes,
    resolve_local_deploy,
    run_live,
)
from ..runtime.clock import run_virtual
from ..runtime.faults import FaultPlan
from ..runtime.metrics import live_ratios, verify_conservation
from ..runtime.service import smoke_workload
from ..speculation.dependency import DependencyModel
from ..speculation.metrics import SpeculationRatios
from ..speculation.riders import RiderTable
from ..trace.profiler import WorkloadProfile
from ..trace.sampling import SampledRatioReport, SamplingConfig
from ..workload.generator import GeneratorConfig
from .plan import build_fleet_plan, build_single_tier_plan


@dataclass(frozen=True)
class FleetSettings:
    """Knobs for one fleet run.

    Attributes:
        budget_bytes: **Total** storage across every caching node; the
            single-tier comparison arm divides the same total across
            its region replicas.
        policy: Placement policy (see
            :data:`~repro.fleet.plan.FLEET_POLICIES`).
        probe_siblings: Max siblings probed per miss (``d``).
        probe_timeout: Per-probe timeout in virtual seconds.
        region_fraction: Share of each region's budget kept at the
            region node; the rest goes to its subnets.
        node_speculation: Fleet nodes push riders from their own
            holdings (the footnote-5 per-proxy speculative service).
        concurrency: Load-generator admission-control cap.
        request_timeout: Per-attempt client/forward timeout.
        retries: Client retries per request after a timeout.
        train_fraction: Leading trace fraction used as history.
        cooperative: Piggyback client cache digests on requests.
        seed: Seeds the network and every backoff RNG.
        drop_probability: Frame-drop rate (exercises retry paths).
        schedule_seed: When not ``None``, perturb same-deadline timer
            order (the race gate; results must not change).
    """

    budget_bytes: float = 2_000_000.0
    policy: str = "hierarchical"
    probe_siblings: int = 2
    probe_timeout: float = 5.0
    region_fraction: float = 0.65
    node_speculation: bool = True
    concurrency: int = 32
    request_timeout: float = 30.0
    retries: int = 1
    train_fraction: float = 0.5
    cooperative: bool = True
    seed: int = 0
    drop_probability: float = 0.0
    schedule_seed: int | None = None


@dataclass(frozen=True)
class FleetReport:
    """Everything one fleet run produced.

    Attributes:
        demand: Snapshot of the demand-only arm (ratio denominator).
        single: Snapshot of the single-tier arm at equal total storage.
        fleet: Snapshot of the fleet arm.
        ratios: The four ratios, fleet vs. demand.
        single_ratios: The four ratios, single-tier vs. demand.
        plan: The fleet plan's summary (policy, tiers, stored bytes).
        observed: Fleet/demand traces + time series when an enabled
            :class:`~repro.obs.ObsConfig` was passed; None otherwise.
        sampling: Horvitz–Thompson estimates of the four ratios with
            bootstrap intervals when the run replayed a client sample;
            None for full-population runs.
        profile: The sampled workload's profile when the sampling
            config asked for one; None otherwise.
    """

    demand: dict[str, Any]
    single: dict[str, Any]
    fleet: dict[str, Any]
    ratios: SpeculationRatios
    single_ratios: SpeculationRatios
    plan: dict[str, Any]
    observed: RunObservations | None = None
    sampling: SampledRatioReport | None = None
    profile: WorkloadProfile | None = None

    def improvement(self) -> dict[str, tuple[float, float]]:
        """Per-ratio ``(fleet, single_tier)`` pairs, lower is better."""
        single = self.single_ratios.by_name()
        return {
            name: (fleet, single[name])
            for name, fleet in self.ratios.by_name().items()
        }

    def require_improvement(self, slack: float = 0.0) -> None:
        """Assert every headline ratio beats the single tier.

        Args:
            slack: Absolute tolerance; 0 demands a strict improvement
                on all four ratios.

        Raises:
            RuntimeProtocolError: When any fleet ratio fails to improve
                on the single-tier deployment at equal total storage.
        """
        losing = {
            name: pair
            for name, pair in self.improvement().items()
            if not pair[0] < pair[1] + slack
        }
        if losing:
            detail = ", ".join(
                f"{name} {fleet:.4f} vs single {single:.4f}"
                for name, (fleet, single) in sorted(losing.items())
            )
            raise RuntimeProtocolError(
                f"fleet fails to improve on the single tier at equal "
                f"total storage: {detail}"
            )

    def format(self) -> str:
        """Human-readable two-row ratio comparison."""
        lines = [
            f"fleet  ({self.plan.get('policy')}): {self.ratios.format()}",
            f"single (replicated):  {self.single_ratios.format()}",
        ]
        return "\n".join(lines)


class _FleetPrepared(PreparedTrace):
    """The shared trace prep plus the plans of all three fleet arms."""

    def __init__(
        self,
        workload: GeneratorConfig,
        settings: FleetSettings,
        config: BaselineConfig,
        sampling: SamplingConfig | None = None,
    ):
        super().__init__(workload, settings, config, sampling, what="fleet run")
        self.model = DependencyModel.estimate(
            self.train,
            window=config.stride_timeout,
            stride_timeout=config.stride_timeout,
        )
        self.fleet_plan = build_fleet_plan(
            self.tree,
            self.train,
            budget_bytes=settings.budget_bytes,
            policy=settings.policy,
            region_fraction=settings.region_fraction,
        )

        regions, single_routes = self.region_routes()
        if not regions:
            raise SimulationError("no region covers any serving client")
        single_plan = build_single_tier_plan(
            self.tree,
            self.train,
            budget_bytes=settings.budget_bytes,
            regions=regions,
            holdings=self.origin_plan(settings.budget_bytes / len(regions)),
        )
        fleet_routes = entry_routes(
            self.tree, self.fleet_plan.node_names(), self.serve.clients()
        )
        # One node rider table for every fleet run: its model is frozen.
        node_riders = None
        if settings.node_speculation:
            node_riders = RiderTable(
                self.policy, self.model, self.serve.documents, config.max_size
            )
        #: arm → (plan, routes, origin policy, node rider table)
        self.arms = {
            "demand": (single_plan.without_holdings(), single_routes, None, None),
            "single": (single_plan, single_routes, self.policy, None),
            "fleet": (self.fleet_plan, fleet_routes, self.policy, node_riders),
        }

    def arm(
        self,
        kind: str,
        *,
        fault_plan: FaultPlan | None = None,
        obs: ObsConfig | None = None,
    ) -> tuple[dict[str, Any], ArmObservations | None]:
        """Run one arm (``demand`` / ``single`` / ``fleet``) virtually."""
        if kind not in self.arms:
            raise SimulationError(f"unknown fleet arm {kind!r}")
        plan, routes, origin_policy, node_riders = self.arms[kind]
        metrics, observed = run_virtual(
            run_live(
                self.serve,
                self.tree,
                plan.nodes,
                routes,
                label="fleet",
                config=self.config,
                settings=self.settings,
                estimator=self.fresh_estimator(),
                origin_policy=origin_policy,
                node_riders=node_riders,
                directory_for=(
                    plan.directory_for
                    if plan.probe_mode == "directory"
                    else None
                ),
                probe_mode=plan.probe_mode,
                probe_siblings=self.settings.probe_siblings,
                probe_timeout=self.settings.probe_timeout,
                fault_plan=fault_plan,
                obs=obs,
            ),
            schedule_seed=self.settings.schedule_seed,
        )
        return metrics.snapshot(), observed


def execute_fleet(
    workload: GeneratorConfig,
    settings: FleetSettings | None = None,
    *,
    config: BaselineConfig = BASELINE,
    fault_plan: FaultPlan | None = None,
    obs: ObsConfig | None = None,
    sampling: SamplingConfig | None = None,
    deploy: DeploySpec | None = None,
) -> FleetReport:
    """Run demand / single-tier / fleet arms and compare the ratios.

    This is the engine behind :meth:`repro.api.Session.fleet` and the
    ``repro fleet`` CLI verb.

    Args:
        workload: Synthetic workload configuration (seeded).
        settings: Fleet knobs; defaults to :class:`FleetSettings`.
        config: The paper's cost model and timeouts.
        fault_plan: Optional scripted faults, applied to the fleet arm
            only (the comparison arms stay clean references).
        obs: Observability channels; the fleet arm's observations are
            reported as ``speculative``, the demand arm's as
            ``baseline``.
        sampling: Replay only a hash-selected client fraction and
            attach Horvitz–Thompson ratio estimates with bootstrap
            intervals; None replays the full population.
        deploy: A **local** :class:`~repro.config.DeploySpec` with
            one worker: the fleet runs in one process.  Distributed
            specs are rejected — the multi-process path is
            :func:`repro.deploy.execute_deploy`.

    Returns:
        A :class:`FleetReport` with all three snapshots and both ratio
        sets.

    Raises:
        SimulationError: On an unusable workload or plan, a
            distributed ``deploy`` spec, or one with ``workers > 1``.
        RuntimeProtocolError: On a byte/frame conservation violation.
    """
    settings = settings if settings is not None else FleetSettings()
    if resolve_local_deploy(deploy) > 1:
        raise SimulationError(
            "execute_fleet runs in one process; DeploySpec.workers must be 1"
        )
    prepared = _FleetPrepared(workload, settings, config, sampling)

    demand_snap, demand_obs = prepared.arm("demand", obs=obs)
    single_snap, _ = prepared.arm("single", obs=obs)
    fleet_snap, fleet_obs = prepared.arm(
        "fleet", fault_plan=fault_plan, obs=obs
    )
    strict = settings.drop_probability == 0.0 and fault_plan is None
    verify_conservation(demand_snap, strict=strict)
    verify_conservation(single_snap, strict=strict)
    verify_conservation(fleet_snap, strict=strict)

    return FleetReport(
        demand=demand_snap,
        single=single_snap,
        fleet=fleet_snap,
        ratios=live_ratios(fleet_snap, demand_snap),
        single_ratios=live_ratios(single_snap, demand_snap),
        plan=prepared.fleet_plan.summary(),
        observed=prepared.observations(
            fleet_obs, demand_obs, plan=prepared.fleet_plan.summary()
        ),
        sampling=prepared.sampling_report,
        profile=prepared.profile,
    )


def fleet_smoke_settings(seed: int = 0) -> FleetSettings:
    """The deterministic knobs ``repro fleet --smoke`` runs with."""
    return FleetSettings(seed=seed)


def _canonical_counters(report: FleetReport) -> str:
    """Canonical JSON of all three arms' counters (determinism check)."""
    return json.dumps(
        {
            "demand": report.demand.get("counters", {}),
            "single": report.single.get("counters", {}),
            "fleet": report.fleet.get("counters", {}),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def execute_fleet_smoke(
    seed: int = 0,
    *,
    obs: ObsConfig | None = None,
) -> FleetReport:
    """The ``repro fleet --smoke`` self-test.

    Runs the smoke workload through :func:`execute_fleet` **twice** and
    requires byte-identical counters across the repeats (the
    determinism gate), then asserts the four headline ratios improve on
    the single-tier deployment at equal total storage — the check CI
    runs after the chaos gate.

    Raises:
        RuntimeProtocolError: On any nondeterminism between repeats, a
            conservation violation, or a ratio that fails to improve.
    """
    report = execute_fleet(
        smoke_workload(seed), fleet_smoke_settings(seed), obs=obs
    )
    repeat = execute_fleet(smoke_workload(seed), fleet_smoke_settings(seed))
    first, second = _canonical_counters(report), _canonical_counters(repeat)
    if first != second:
        raise RuntimeProtocolError(
            "fleet smoke run is not deterministic: repeated seeded runs "
            "produced different counters"
        )
    report.require_improvement()
    return report

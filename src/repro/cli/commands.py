"""Implementations of the ``repro`` subcommands."""

from __future__ import annotations

from pathlib import Path

from ..config import BASELINE
from ..core import DisseminationPlanner, Experiment, format_table
from ..errors import ReproError, RuntimeProtocolError, TransportError
from ..popularity import (
    PopularityProfile,
    analyze_blocks,
    classify_documents,
    count_classes,
    fit_lambda,
)
from ..speculation import RiderTable, ThresholdPolicy
from ..trace import Trace, TraceCleaner, read_clf, write_clf
from ..workload import GeneratorConfig, SyntheticTraceGenerator


class CommandError(Exception):
    """A user-facing CLI failure (bad input, unusable data)."""


def _load_trace(path: str, local_domains: list[str]) -> Trace:
    log_path = Path(path)
    if not log_path.exists():
        raise CommandError(f"log file not found: {path}")
    with log_path.open() as handle:
        trace = read_clf(handle, local_domains=local_domains)
    if len(trace) == 0:
        raise CommandError(f"no parsable CLF lines in {path}")
    return trace


def cmd_generate(args) -> None:
    """``repro generate`` — write a synthetic trace as a CLF log."""
    try:
        if args.paper_scale:
            config = GeneratorConfig.paper_scale(seed=args.seed)
        else:
            config = GeneratorConfig(
                seed=args.seed,
                n_pages=args.pages,
                n_clients=args.clients,
                n_sessions=args.sessions,
                duration_days=args.days,
            )
        trace = SyntheticTraceGenerator(config).generate()
    except ReproError as error:
        raise CommandError(str(error)) from error
    output = Path(args.output)
    with output.open("w") as handle:
        for line in write_clf(trace):
            handle.write(line + "\n")
    print(
        f"wrote {len(trace):,} accesses ({len(trace.documents):,} documents, "
        f"{trace.duration / 86400:.1f} days) to {output}"
    )


def cmd_analyze(args) -> None:
    """``repro analyze`` — the section-2 measurement pipeline."""
    trace = _load_trace(args.log, args.local_domain)
    if getattr(args, "sample", None) is not None:
        from ..trace import sample_clients

        try:
            trace = sample_clients(trace, args.sample)
        except ReproError as error:
            raise CommandError(str(error)) from error
        print(
            f"sampled {args.sample:.0%} of clients: "
            f"{len(trace):,} requests remain"
        )
    if not args.no_clean:
        trace, report = TraceCleaner().clean(trace)
        print(
            f"cleaned: kept {report.kept:,}, dropped {report.dropped:,}, "
            f"renamed {report.aliases_renamed:,}"
        )
        if len(trace) == 0:
            raise CommandError("cleaning removed every request")

    profile = PopularityProfile.from_trace(trace)
    counts = count_classes(classify_documents(profile))
    print(
        format_table(
            ["remotely popular", "globally popular", "locally popular"],
            [[counts.remote, counts.global_, counts.local]],
            title="\ndocument classes (remote-ratio >85% / between / <15%)",
        )
    )

    analysis = analyze_blocks(profile, block_bytes=args.block_kb * 1024)
    if analysis.blocks:
        print(
            format_table(
                ["blocks", "top-block share", "top-10% share"],
                [
                    [
                        len(analysis.blocks),
                        f"{analysis.top_block_request_share:.1%}",
                        f"{analysis.share_of_top_fraction(0.10):.1%}",
                    ]
                ],
                title=f"\n{args.block_kb} KB block analysis (Figure 1)",
            )
        )
    curve_bytes, coverage = profile.coverage_curve()
    if curve_bytes.size:
        lam = fit_lambda(curve_bytes, coverage)
        print(f"\nexponential popularity fit: lambda = {lam:.4g} /byte")
    else:
        print("\nno remote accesses: lambda not fitted")


def cmd_simulate(args) -> None:
    """``repro simulate`` — the section-3 experiment over a log."""
    trace = _load_trace(args.log, args.local_domain)
    train_days = args.train_days
    if train_days is None:
        train_days = max(trace.duration / 86_400.0 / 2.0, 1e-6)

    config = BASELINE
    if args.max_size_kb is not None:
        config = config.with_updates(max_size=args.max_size_kb * 1024)

    try:
        experiment = Experiment(trace, config, train_days=train_days)
    except ReproError as error:
        raise CommandError(str(error)) from error

    if args.digest_fp is not None and not args.cooperative:
        raise CommandError("--digest-fp requires --cooperative")
    evaluate_kwargs = dict(
        cooperative=args.cooperative, digest_fp_rate=args.digest_fp
    )

    rows = []
    if args.adaptive_budget is not None:
        from ..speculation import AdaptiveBudgetPolicy

        if args.adaptive_budget < 0:
            raise CommandError("--adaptive-budget must be non-negative")
        policy = AdaptiveBudgetPolicy(
            target_traffic_increase=args.adaptive_budget,
            max_size=config.max_size,
        )
        ratios, __ = experiment.evaluate(policy, **evaluate_kwargs)
        rows.append(
            [
                f"adaptive@{args.adaptive_budget:.0%}",
                f"{ratios.traffic_increase:+.1%}",
                f"{ratios.server_load_reduction:.1%}",
                f"{ratios.service_time_reduction:.1%}",
                f"{ratios.miss_rate_reduction:.1%}",
            ]
        )
    else:
        thresholds = args.threshold or [0.9, 0.5, 0.25, 0.1]
        for threshold in thresholds:
            if not 0.0 < threshold <= 1.0:
                raise CommandError(f"threshold {threshold} outside (0, 1]")
            policy = ThresholdPolicy(
                threshold=threshold, max_size=config.max_size
            )
            ratios, __ = experiment.evaluate(policy, **evaluate_kwargs)
            rows.append(
                [
                    f"{threshold:.2f}",
                    f"{ratios.traffic_increase:+.1%}",
                    f"{ratios.server_load_reduction:.1%}",
                    f"{ratios.service_time_reduction:.1%}",
                    f"{ratios.miss_rate_reduction:.1%}",
                ]
            )
    mode = "cooperative" if args.cooperative else "non-cooperative"
    print(
        format_table(
            ["policy", "traffic", "load red.", "time red.", "miss red."],
            rows,
            title=(
                f"speculative service ({mode} clients, "
                f"{train_days:.1f} training days)"
            ),
        )
    )


def cmd_fit(args) -> None:
    """``repro fit`` — estimate a workload configuration from a log."""
    import dataclasses

    from ..workload import SyntheticTraceGenerator, fit_generator_config

    trace = _load_trace(args.log, args.local_domain)
    try:
        fitted = fit_generator_config(trace, seed=args.seed)
    except ReproError as error:
        raise CommandError(str(error)) from error

    rows = []
    for field in dataclasses.fields(fitted.config):
        value = getattr(fitted.config, field.name)
        provenance = fitted.measured.get(field.name)
        if provenance is None:
            provenance = (
                "(assumed default)" if field.name in fitted.assumed else ""
            )
        rows.append([field.name, f"{value:g}" if isinstance(value, float) else value, provenance])
    print(
        format_table(
            ["parameter", "value", "fitted from"],
            rows,
            title=f"workload configuration fitted from {args.log}",
        )
    )

    if args.regenerate:
        twin = SyntheticTraceGenerator(fitted.config).generate()
        output = Path(args.regenerate)
        with output.open("w") as handle:
            for line in write_clf(twin):
                handle.write(line + "\n")
        print(
            f"\nwrote a {len(twin):,}-access synthetic twin to {output} "
            f"(source had {len(trace):,})"
        )


def cmd_report(args) -> None:
    """``repro report`` — the headline evaluation as one markdown file."""
    from ..core.report import generate_report

    try:
        markdown = generate_report(args.preset, args.seed)
    except ReproError as error:
        raise CommandError(str(error)) from error
    output = Path(args.out)
    output.write_text(markdown)
    print(f"wrote evaluation report to {output}")


def cmd_sweep(args) -> None:
    """``repro sweep`` — the Figure-5 threshold sweep over a log."""
    from ..core import evaluate_thresholds

    trace = _load_trace(args.log, args.local_domain)
    train_days = args.train_days
    if train_days is None:
        train_days = max(trace.duration / 86_400.0 / 2.0, 1e-6)
    try:
        thresholds = [float(part) for part in args.thresholds.split(",") if part]
    except ValueError as error:
        raise CommandError(f"bad threshold list: {error}") from error
    if not thresholds:
        raise CommandError("empty threshold list")
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise CommandError(f"threshold {threshold} outside (0, 1]")

    try:
        experiment = Experiment(trace, BASELINE, train_days=train_days)
    except ReproError as error:
        raise CommandError(str(error)) from error
    points = evaluate_thresholds(experiment, thresholds, workers=args.workers)

    header = [
        "threshold",
        "traffic_increase",
        "load_reduction",
        "time_reduction",
        "miss_reduction",
    ]
    csv_rows = [
        [
            f"{point.parameter:g}",
            f"{point.ratios.traffic_increase:.6f}",
            f"{point.ratios.server_load_reduction:.6f}",
            f"{point.ratios.service_time_reduction:.6f}",
            f"{point.ratios.miss_rate_reduction:.6f}",
        ]
        for point in points
    ]
    if args.csv:
        with Path(args.csv).open("w") as handle:
            handle.write(",".join(header) + "\n")
            for row in csv_rows:
                handle.write(",".join(row) + "\n")
        print(f"wrote {len(csv_rows)} sweep points to {args.csv}")
    else:
        print(format_table(header, csv_rows, title="threshold sweep (Figure 5)"))


def cmd_plan(args) -> None:
    """``repro plan`` — dissemination storage planning."""
    if args.budget_mb <= 0:
        raise CommandError("--budget-mb must be positive")
    planner = DisseminationPlanner()
    for spec in args.logs:
        if "=" in spec:
            name, __, path = spec.partition("=")
        else:
            name, path = Path(spec).stem, spec
        try:
            planner.add_server(name, _load_trace(path, args.local_domain))
        except ReproError as error:
            raise CommandError(str(error)) from error

    try:
        plan = planner.plan(args.budget_mb * 1e6)
    except ReproError as error:
        raise CommandError(str(error)) from error

    rows = [
        [
            name,
            f"{plan.allocations[name] / 1e6:.2f} MB",
            len(plan.documents[name]),
        ]
        for name in planner.servers
    ]
    print(
        format_table(
            ["server", "granted storage", "documents"],
            rows,
            title=(
                f"plan for {args.budget_mb:g} MB: intercepts "
                f"{plan.expected_alpha:.1%} of remote requests "
                f"(empirical {plan.empirical_alpha:.1%})"
            ),
        )
    )


def _live_summary(report) -> list[str]:
    """Human-readable lines for one live loadtest report."""
    lines = [f"live ratios : {report.ratios.format()}"]
    if report.batch_ratios is not None:
        lines.append(f"batch check : {report.batch_ratios.format()}")
        lines.append(f"divergence  : {report.max_divergence():.3g} (max of 4 ratios)")
    latency = report.speculative.get("histograms", {}).get("request_latency", {})
    if latency.get("count"):
        lines.append(
            "latency     : "
            f"p50 {latency['p50'] * 1000:.2f} ms  "
            f"p99 {latency['p99'] * 1000:.2f} ms  "
            f"({latency['count']:,} requests)"
        )
    counters = report.speculative.get("counters", {})
    lines.append(
        "speculative : "
        f"{counters.get('accesses', 0):,.0f} accesses, "
        f"{counters.get('cache_hits', 0):,.0f} cache hits, "
        f"{counters.get('proxy_requests', 0):,.0f} proxy-served, "
        f"{counters.get('origin_requests', 0):,.0f} origin-served"
    )
    lines.append(f"disseminated: {report.disseminated_documents:,} documents")
    return lines


def cmd_loadtest(args) -> None:
    """``repro loadtest`` — drive the live runtime on the in-memory net."""
    import json as _json

    from ..runtime import (
        LiveSettings,
        execute_loadtest,
        execute_smoke,
        smoke_workload,
    )
    from ..workload import preset

    if args.smoke:
        # The CI gate: deterministic live run, self-verified against the
        # batch combined simulator; raises RuntimeProtocolError (exit 3)
        # when any of the four ratios diverges.
        report = execute_smoke(args.seed)
    else:
        try:
            workload = (
                smoke_workload(args.seed)
                if args.preset == "smoke"
                else preset(args.preset, args.seed)
            )
        except ReproError as error:
            raise CommandError(str(error)) from error
        settings = LiveSettings(
            budget_bytes=args.budget_mb * 1e6,
            concurrency=args.concurrency,
            request_timeout=args.timeout,
            learn_online=args.learn_online,
            seed=args.seed,
        )
        try:
            report = execute_loadtest(
                workload, settings, verify_batch=args.verify_batch
            )
        except (RuntimeProtocolError, TransportError):
            raise  # mapped to dedicated exit codes by main()
        except ReproError as error:
            raise CommandError(str(error)) from error
        if args.verify_batch:
            report.require_convergence()

    if args.json:
        print(
            _json.dumps(
                {
                    "speculative": report.speculative,
                    "baseline": report.baseline,
                    "ratios": report.ratios.by_name(),
                },
                sort_keys=True,
            )
        )
        return
    for line in _live_summary(report):
        print(line)


def cmd_racecheck(args) -> None:
    """``repro racecheck`` — schedule-perturbation race gate.

    Replays the smoke loadtest under seeded shuffles of same-deadline
    timer ties (every perturbation is a schedule a conforming event
    loop could have produced) and requires the full metrics snapshots
    — both arms, plus the paper's four ratios — to be bit-identical
    across all of them.  Divergence raises
    :class:`~repro.errors.RuntimeProtocolError` (exit 3).
    """
    import json as _json

    from ..analysis.schedules import run_schedule_sweep
    from ..runtime import LiveSettings, execute_loadtest, smoke_workload
    from ..runtime.metrics import verify_conservation

    if args.perturbations < 1:
        raise CommandError("--perturbations must be >= 1")
    try:
        workload = smoke_workload(args.seed)
    except ReproError as error:
        raise CommandError(str(error)) from error

    def run_arm(schedule_seed):
        settings = LiveSettings(seed=args.seed, schedule_seed=schedule_seed)
        report = execute_loadtest(workload, settings)
        # Conservation must hold on *every* legal schedule, not just
        # the stock one; racecheck runs are fault-free so the strict
        # identities apply.
        verify_conservation(report.speculative, strict=True)
        verify_conservation(report.baseline, strict=True)
        return {
            "speculative": report.speculative,
            "baseline": report.baseline,
            "ratios": report.ratios.by_name(),
        }

    try:
        sweep = run_schedule_sweep(
            run_arm,
            perturbations=args.perturbations,
            base_seed=args.base_seed,
        )
    except (RuntimeProtocolError, TransportError):
        raise  # mapped to dedicated exit codes by main()
    except ReproError as error:
        raise CommandError(str(error)) from error

    document = sweep.as_dict()
    if args.out:
        Path(args.out).write_text(
            _json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(_json.dumps(document, sort_keys=True))
    else:
        seeds = ", ".join(str(run.schedule_seed) for run in sweep.runs)
        print(
            f"racecheck: {len(sweep.runs)} perturbed schedules "
            f"(tie seeds {seeds}) vs unperturbed reference"
        )
        ratios = sweep.reference.payload["ratios"]
        print(
            "  reference ratios: "
            f"bandwidth {ratios['bandwidth']:.4f}, "
            f"server load {ratios['server_load']:.4f}, "
            f"service time {ratios['service_time']:.4f}, "
            f"miss rate {ratios['miss_rate']:.4f}"
        )
        verdict = "bit-identical" if sweep.passed else "DIVERGED"
        print(f"  snapshots: {verdict} across all schedules")
    # Gate last so --out/--json capture the report even on failure.
    sweep.require_schedule_independence()


def cmd_chaos(args) -> None:
    """``repro chaos`` — fault-injected live run with resilience checks."""
    import json as _json

    from ..runtime import (
        ChaosSettings,
        LiveSettings,
        execute_chaos,
        execute_chaos_smoke,
        smoke_workload,
    )
    from ..workload import preset

    if args.smoke:
        # The CI gate after `repro loadtest --smoke`: scripted proxy
        # crash + 2% frame drops; raises RuntimeProtocolError (exit 3)
        # when the four ratios diverge or conservation breaks.
        report = execute_chaos_smoke(args.seed, tolerance=args.tolerance)
    else:
        try:
            workload = (
                smoke_workload(args.seed)
                if args.preset == "smoke"
                else preset(args.preset, args.seed)
            )
        except ReproError as error:
            raise CommandError(str(error)) from error
        settings = ChaosSettings(
            live=LiveSettings(
                budget_bytes=args.budget_mb * 1e6,
                request_timeout=args.timeout,
                retries=args.retries,
                seed=args.seed,
            ),
            crash_proxy=None if args.crash_proxy < 0 else args.crash_proxy,
            crash_at=args.crash_at,
            restart_at=None if args.restart_at < 0 else args.restart_at,
            drop_rate=args.drop_rate,
            latency_extra=args.latency_extra,
            latency_target="" if args.latency_extra <= 0 else "origin",
            partition_proxy=(
                None if args.partition_proxy < 0 else args.partition_proxy
            ),
            partition_from=args.partition_from,
            partition_until=(
                None if args.partition_until < 0 else args.partition_until
            ),
        )
        try:
            report = execute_chaos(workload, settings)
        except (RuntimeProtocolError, TransportError):
            raise  # mapped to dedicated exit codes by main()
        except ReproError as error:
            raise CommandError(str(error)) from error
        report.require_resilience(args.tolerance)

    if args.json:
        print(
            _json.dumps(
                {
                    "clean": {
                        "speculative": report.clean.speculative,
                        "baseline": report.clean.baseline,
                    },
                    "faulted": {
                        "speculative": report.faulted.speculative,
                        "baseline": report.faulted.baseline,
                    },
                    "fault_events": [list(pair) for pair in report.fault_events],
                    "divergence": report.max_ratio_divergence(),
                },
                sort_keys=True,
            )
        )
        return
    print(f"fault events ({len(report.fault_events)}):")
    for time, label in report.fault_events:
        print(f"  t={time:10.3f}s  {label[len('fault:'):]}")
    print(f"clean ratios  : {report.clean.ratios.format()}")
    print(f"faulted ratios: {report.faulted.ratios.format()}")
    print(
        f"divergence    : {report.max_ratio_divergence():.2%} "
        "(max of 4 ratios)"
    )
    faulted = report.faulted.speculative.get("counters", {})
    print(
        "faulted run   : "
        f"{faulted.get('retries', 0):,.0f} retries, "
        f"{faulted.get('requests_failed', 0):,.0f} failed, "
        f"{faulted.get('network.frames_dropped', 0):,.0f} frames dropped, "
        f"{faulted.get('network.handler_errors', 0):,.0f} handler errors"
    )


def cmd_fleet(args) -> None:
    """``repro fleet`` — hierarchical proxy fleet vs the single tier."""
    import json as _json

    from ..fleet import FleetSettings, execute_fleet, execute_fleet_smoke
    from ..obs import ObsConfig
    from ..runtime import smoke_workload
    from ..workload import preset

    obs = ObsConfig(trace=True) if args.trace_out else ObsConfig()
    try:
        if args.smoke:
            # The CI gate after `repro chaos --smoke`: the full fleet run
            # twice, bit-identical counters required, every ratio must
            # beat the single-tier deployment (exit 3 otherwise).
            report = execute_fleet_smoke(args.seed, obs=obs)
        else:
            try:
                workload = (
                    smoke_workload(args.seed)
                    if args.preset == "smoke"
                    else preset(args.preset, args.seed)
                )
            except ReproError as error:
                raise CommandError(str(error)) from error
            settings = FleetSettings(
                budget_bytes=args.budget_mb * 1e6,
                policy=args.policy,
                probe_siblings=args.probe_siblings,
                region_fraction=args.region_fraction,
                seed=args.seed,
            )
            report = execute_fleet(workload, settings, obs=obs)
    except (RuntimeProtocolError, TransportError):
        raise  # mapped to dedicated exit codes by main()
    except ReproError as error:
        raise CommandError(str(error)) from error

    if args.trace_out:
        jsonl = report.observed.trace_jsonl() if report.observed else ""
        Path(args.trace_out).write_text(jsonl, encoding="utf-8")

    if args.json:
        print(
            _json.dumps(
                {
                    "plan": report.plan,
                    "improvement": {
                        name: list(pair)
                        for name, pair in report.improvement().items()
                    },
                    "fleet": report.fleet,
                    "single": report.single,
                    "demand": report.demand,
                },
                sort_keys=True,
            )
        )
        return
    print(report.format())
    summary = report.plan
    tiers = ", ".join(
        f"{count} {tier}" for tier, count in summary["tiers"].items()
    )
    print(
        f"plan: {summary['policy']} ({summary['nodes']} nodes: {tiers}), "
        f"{summary['stored_bytes']:,} of {summary['budget_bytes']:,.0f} "
        "bytes placed"
    )
    for name, (fleet_value, single_value) in report.improvement().items():
        sign = "<" if fleet_value < single_value else ">="
        print(
            f"  {name:12s} fleet {fleet_value:.4f} {sign} "
            f"single {single_value:.4f}"
        )


def cmd_deploy(args) -> None:
    """``repro deploy`` — multi-process origins and proxies over TCP."""
    import json as _json

    from ..config import DeploySpec
    from ..deploy import execute_deploy, execute_deploy_smoke
    from ..runtime import LiveSettings, smoke_workload
    from ..workload import preset

    smoke = None
    try:
        if args.smoke:
            # The CI gate after `repro fleet --smoke`: a clean
            # 2-shard / 2-proxy-host deployment whose merged ratios must
            # equal the single-loop reference bit for bit, then the same
            # topology under a scripted crash/partition plan, held to
            # the chaos tolerance (exit 3 otherwise).
            smoke = execute_deploy_smoke(
                args.seed, tolerance=args.tolerance, bus_dir=args.bus_dir
            )
            report = smoke.deploy
        else:
            try:
                workload = (
                    smoke_workload(args.seed)
                    if args.preset == "smoke"
                    else preset(args.preset, args.seed)
                )
                processes = (
                    args.processes
                    if args.processes is not None
                    else args.shards + 2
                )
                spec = DeploySpec(
                    processes=processes,
                    shards=args.shards,
                    replicas=args.replicas,
                    bus_path=args.bus_dir,
                )
            except ReproError as error:
                raise CommandError(str(error)) from error
            settings = LiveSettings(
                budget_bytes=args.budget_mb * 1e6, seed=args.seed
            )
            report = execute_deploy(workload, settings, spec=spec)
    except (RuntimeProtocolError, TransportError):
        raise  # mapped to dedicated exit codes by main()
    except ReproError as error:
        raise CommandError(str(error)) from error

    if args.json:
        document = {
            "processes": report.processes,
            "shards": report.spec.shards,
            "replicas": report.spec.replicas,
            "bus_path": report.bus_path,
            "bus_duplicates": report.bus_duplicates,
            "anti_entropy": report.anti_entropy,
            "speculative": report.speculative,
            "baseline": report.baseline,
            "ratios": report.ratios.by_name(),
        }
        if smoke is not None:
            document["faulted_divergence"] = (
                smoke.chaos.max_ratio_divergence()
            )
            document["fault_events"] = [
                list(pair) for pair in smoke.faulted.fault_events
            ]
        print(_json.dumps(document, sort_keys=True))
        return

    spec = report.spec
    if report.processes == 1:
        print("deploy: 1 process (local single-loop mode)")
    else:
        print(
            f"deploy: {report.processes} processes "
            f"({spec.shards} shards, {spec.replicas} replicas, "
            f"{spec.proxy_hosts} proxy hosts)"
        )
    if report.bus_path:
        print(
            f"  bus: {report.bus_path} "
            f"({report.bus_duplicates} duplicate events absorbed)"
        )
    print(f"  ratios: {report.ratios.format()}")
    if smoke is not None:
        print("  bit-identity: distributed ratios == single-loop reference")
        print(
            f"  faulted divergence: "
            f"{smoke.chaos.max_ratio_divergence():.2%} "
            f"({len(smoke.faulted.fault_events)} fault events)"
        )


def cmd_serve(args) -> None:
    """``repro serve`` — a real TCP origin server on a synthetic catalog."""
    import asyncio

    from ..runtime import (
        OnlineDependencyEstimator,
        OriginServer,
        TcpServer,
        tcp_call,
    )
    from ..runtime import smoke_workload
    from ..runtime.messages import make_request
    from ..workload import preset

    try:
        workload = (
            smoke_workload(args.seed)
            if args.preset == "smoke"
            else preset(args.preset, args.seed)
        )
        trace = SyntheticTraceGenerator(workload).generate().remote_only()
    except ReproError as error:
        raise CommandError(str(error)) from error
    if len(trace) == 0:
        raise CommandError("workload produced no remote requests to serve")

    estimator = OnlineDependencyEstimator(
        window=BASELINE.stride_timeout,
        stride_timeout=BASELINE.stride_timeout,
        learn=True,
    )
    estimator.warm(trace)
    riders = RiderTable(
        ThresholdPolicy(threshold=args.threshold),
        estimator.model,
        trace.documents,
        BASELINE.max_size,
    )
    origin = OriginServer(trace.documents, estimator=estimator, riders=riders)

    async def _serve() -> None:
        server = TcpServer(origin.handle, host=args.host, port=args.port)
        await server.start()
        print(
            f"serving {len(trace.documents):,} documents on "
            f"{args.host}:{server.port} (threshold {args.threshold})",
            flush=True,
        )
        try:
            if args.smoke:
                for index, request in enumerate(trace.requests[:5]):
                    message = make_request(
                        "smoke-client",
                        f"smoke-client#{index}",
                        request.doc_id,
                        request.timestamp,
                    )
                    reply = await tcp_call(
                        args.host, server.port, message, timeout=10.0
                    )
                    riders = len(reply.payload.get("speculated", ()))
                    print(
                        f"  {request.doc_id}: {reply.payload['size']:,} bytes "
                        f"+ {riders} speculated"
                    )
                print(f"smoke OK: {server.requests_served} requests served")
                return
            if args.max_requests is not None:
                while server.requests_served < args.max_requests:
                    await asyncio.sleep(0.05)
                print(f"served {server.requests_served} requests; exiting")
                return
            await asyncio.Event().wait()  # forever; Ctrl-C to stop
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down")


def cmd_bench(args) -> None:
    """``repro bench`` — measure engine medians and gate regressions."""
    import functools
    import json as _json
    import sys

    from .. import perf

    # With --json, stdout carries the report alone; status goes to stderr.
    status = functools.partial(print, file=sys.stderr) if args.json else print

    scale = "smoke" if args.smoke else "full"
    if args.repeats is not None and args.repeats < 1:
        raise CommandError("--repeats must be >= 1")
    section = perf.run_scale(scale, repeats=args.repeats)
    # The perf layer sits below the fleet and the runtime, so those
    # verbs are handed down as plain callables: the fleet smoke and the
    # sharded loadtest as baseline-gated wall sections.
    from ..deploy import execute_deploy_smoke
    from ..fleet import execute_fleet_smoke
    from ..runtime import LiveSettings, execute_loadtest, smoke_workload

    fleet_section = perf.time_wall(
        "fleet_smoke",
        lambda: execute_fleet_smoke(0),
        repeats=args.repeats if args.repeats is not None else 3,
    )

    # The multi-process gate as a wall section: forked shards and proxy
    # hosts over real TCP, three runs (clean, reference, faulted) per
    # repeat — the slowest section by design, so regressions in process
    # startup or bus polling surface here first.
    deploy_section = perf.time_wall(
        "deploy_smoke",
        lambda: execute_deploy_smoke(0),
        repeats=args.repeats if args.repeats is not None else 3,
    )

    # The single-loop in-memory path on its own (both arms of the smoke
    # loadtest under the virtual clock): per-frame transport, codec and
    # event-loop cost with no forks and no sockets in the number.
    loadtest_section = perf.time_wall(
        "loadtest_smoke",
        lambda: execute_loadtest(smoke_workload(0), LiveSettings(seed=0)),
        repeats=args.repeats if args.repeats is not None else 3,
    )

    shard_workers = 4
    sharded_section = perf.time_wall(
        "loadtest_sharded",
        lambda: execute_loadtest(
            smoke_workload(0), LiveSettings(seed=0), workers=shard_workers
        ),
        repeats=args.repeats if args.repeats is not None else 3,
    )
    sharded_section["workers"] = shard_workers

    sections = {
        scale: section,
        "fleet-smoke": fleet_section,
        "loadtest-smoke": loadtest_section,
        "deploy-smoke": deploy_section,
        "loadtest-sharded": sharded_section,
    }
    report = perf.build_report(sections)

    baseline_path = Path(args.baseline)
    baseline = perf.load_baseline(baseline_path)

    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"bench scale: {scale} ({section['repeats']} repeats)")
        for part in sections.values():
            medians = part["medians_seconds"]
            for name in sorted(medians):
                print(f"  {name:<22} {medians[name] * 1e3:8.1f} ms")
            for metric, achieved in sorted(part.get("speedups", {}).items()):
                print(f"  {metric} speedup: {achieved:.2f}x")

    if args.update_baseline:
        # Floors still apply so an under-floor run cannot become the
        # committed reference; only baseline-relative drift is waived.
        perf.enforce_gate(report, baseline, compare_absolute=False)
        merged = perf.merge_reports(baseline, report)
        perf.write_baseline(baseline_path, merged)
        status(f"updated baseline {baseline_path}")
        return
    perf.enforce_gate(report, baseline)
    if baseline is None:
        status(f"no baseline at {baseline_path}; speedup floors only")
    else:
        status("performance gate passed")


def _observed_run(args, *, window: float = 3600.0):
    """Run one observed loadtest/chaos via the :mod:`repro.api` facade."""
    from ..api import Session
    from ..obs import ObsConfig

    obs = ObsConfig(
        trace=True,
        timeseries=True,
        trace_limit=args.limit,
        window=window,
    )
    session = Session(seed=args.seed, obs=obs)
    try:
        if args.run == "chaos":
            return session.chaos()
        return session.loadtest()
    except (RuntimeProtocolError, TransportError):
        raise  # mapped to dedicated exit codes by main()
    except ReproError as error:
        raise CommandError(str(error)) from error


def cmd_trace(args) -> None:
    """``repro trace`` — dump the deterministic event trace of a run."""
    from ..obs import prometheus_text

    report = _observed_run(args)
    jsonl = report.trace_jsonl()

    if args.smoke:
        # The CI determinism gate: the same seed must produce a
        # byte-identical trace.  Re-run and compare; exit 3 on drift.
        again = _observed_run(args).trace_jsonl()
        if jsonl != again:
            raise RuntimeProtocolError(
                f"trace not deterministic for seed {args.seed}: "
                f"{len(jsonl)} vs {len(again)} bytes"
            )
        print(
            f"trace smoke OK: {len(jsonl.splitlines())} events, "
            f"byte-identical across two seed-{args.seed} runs"
        )

    if args.out is not None:
        Path(args.out).write_text(jsonl)
        print(f"wrote {len(jsonl.splitlines())} events to {args.out}")
    elif not args.smoke:
        print(jsonl, end="")

    if args.metrics_out is not None:
        live = report.detail.faulted if args.run == "chaos" else report.detail
        text = prometheus_text(live.speculative)
        Path(args.metrics_out).write_text(text)
        print(f"wrote Prometheus snapshot to {args.metrics_out}")


def cmd_metrics(args) -> None:
    """``repro metrics`` — windowed ratio curves and metric exports."""
    import json as _json

    from ..obs import prometheus_text

    report = _observed_run(args, window=args.window)
    observed = report.observed
    assert observed is not None  # ObsConfig above always enables channels

    if args.format == "prometheus":
        live = report.detail.faulted if args.run == "chaos" else report.detail
        output = prometheus_text(live.speculative)
    elif args.format == "json":
        output = _json.dumps(
            {
                "window": args.window,
                "speculative": observed.speculative.timeseries.to_dict(),
                "baseline": observed.baseline.timeseries.to_dict(),
            },
            sort_keys=True,
        )
    else:
        rows = [
            [
                f"{start:g}",
                f"{ratios.bandwidth_ratio:.4f}",
                f"{ratios.server_load_ratio:.4f}",
                f"{ratios.service_time_ratio:.4f}",
                f"{ratios.miss_rate_ratio:.4f}",
            ]
            for start, ratios in report.ratio_curve()
        ]
        output = format_table(
            ["window", "bandwidth", "load", "time", "miss"],
            rows,
            title=(
                f"four-ratio curve ({args.run}, seed {args.seed}, "
                f"{args.window:g}s windows)"
            ),
        )

    if args.out is not None:
        Path(args.out).write_text(
            output if output.endswith("\n") else output + "\n"
        )
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(output)


#: Peak-memory budget for the streamed-generation smoke gate, in bytes.
#: Streaming paper-scale x10 (~1.6M requests) must stay far below the
#: ~500 MB a materialized trace of that size costs; the budget leaves
#: headroom over the site + schedule + heap working set.
PROFILE_SMOKE_PEAK_BUDGET = 96 * 1024 * 1024

#: Session multiplier of the smoke gate's workload over paper scale.
PROFILE_SMOKE_SESSION_FACTOR = 10


def _profile_smoke_gate() -> dict:
    """Stream paper-scale x10 through the profiler under tracemalloc.

    Returns the gate measurements; raises RuntimeProtocolError (exit 3)
    when peak memory exceeds the budget — the streaming path has
    regressed to materializing state proportional to the trace.
    """
    import dataclasses
    import tracemalloc

    from ..trace.profiler import TraceProfiler

    config = dataclasses.replace(
        GeneratorConfig.paper_scale(0),
        n_sessions=GeneratorConfig.paper_scale(0).n_sessions
        * PROFILE_SMOKE_SESSION_FACTOR,
    )
    generator = SyntheticTraceGenerator(config)
    profiler = TraceProfiler()
    tracemalloc.start()
    tracemalloc.reset_peak()
    profile = profiler.profile(generator.stream())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if peak > PROFILE_SMOKE_PEAK_BUDGET:
        raise RuntimeProtocolError(
            f"streamed generation peaked at {peak / 1e6:.1f} MB for "
            f"{profile.n_requests:,} requests — over the "
            f"{PROFILE_SMOKE_PEAK_BUDGET / 1e6:.0f} MB budget; the "
            "stream is no longer constant-memory"
        )
    return {
        "peak_bytes": peak,
        "budget_bytes": PROFILE_SMOKE_PEAK_BUDGET,
        "n_requests": profile.n_requests,
        "profile": profile.to_dict(),
    }


def cmd_profile(args) -> None:
    """``repro profile`` — single-pass workload profiling (and mem gate)."""
    import json as _json

    from .. import perf
    from ..runtime import smoke_workload
    from ..trace.profiler import TraceProfiler
    from ..workload import preset

    if args.window <= 0:
        raise CommandError("--window must be positive")
    profiler = TraceProfiler(window_seconds=args.window)

    if args.smoke:
        # The CI gate: constant-memory streaming at paper scale x10,
        # plus a throughput section gated against BENCH_PERF.json.
        gate = _profile_smoke_gate()

        generator = SyntheticTraceGenerator(GeneratorConfig.paper_scale(0))
        counter = {"n": 0}

        def _drain() -> None:
            counter["n"] = sum(1 for _ in generator.stream(epoch=0))

        # Three repeats so the gated stream_wall median is not a single
        # sample at the mercy of one co-tenant burst.
        section = perf.time_wall("stream", _drain, repeats=3)
        median = section["medians_seconds"]["stream_wall"]
        section["requests_per_second"] = (
            counter["n"] / median if median > 0 else 0.0
        )
        report = perf.build_report({"stream": section})
        baseline_path = Path(args.baseline)
        baseline = perf.load_baseline(baseline_path)
        payload = {
            "gate": gate,
            "stream": section,
        }
        if args.out:
            Path(args.out).write_text(
                _json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        if args.json:
            print(_json.dumps(payload, sort_keys=True))
        else:
            print(
                f"stream gate: peak {gate['peak_bytes'] / 1e6:.1f} MB / "
                f"budget {gate['budget_bytes'] / 1e6:.0f} MB over "
                f"{gate['n_requests']:,} requests"
            )
            print(
                f"stream throughput: {section['requests_per_second']:,.0f} "
                f"requests/s ({median:.2f} s wall)"
            )
        if args.update_baseline:
            merged = perf.merge_reports(baseline, report)
            perf.write_baseline(baseline_path, merged)
            print(f"updated baseline {baseline_path}")
            return
        perf.enforce_gate(report, baseline)
        return

    if args.clf:
        trace = _load_trace(args.clf, [])
        profile = profiler.profile(trace)
    else:
        try:
            workload = (
                smoke_workload(args.seed)
                if args.preset == "smoke"
                else preset(args.preset, args.seed)
            )
        except ReproError as error:
            raise CommandError(str(error)) from error
        generator = SyntheticTraceGenerator(workload)
        profile = profiler.profile(generator.stream())

    if args.out:
        Path(args.out).write_text(
            _json.dumps(profile.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote profile to {args.out}")
    if args.json:
        print(_json.dumps(profile.to_dict(), sort_keys=True))
    elif not args.out:
        print(profile.format())


def cmd_sample(args) -> None:
    """``repro sample`` — sampled ratio estimation (and coverage gate)."""
    import json as _json

    from ..core.sampling import estimate_ratios, execute_sample_check
    from ..errors import TraceFormatError
    from ..runtime import smoke_workload
    from ..trace.sampling import SamplingConfig
    from ..workload import preset

    if args.check:
        # The CI gate: prove the estimator's intervals cover an exact
        # full replay of the check workload (exit 3 on a miss).
        result = execute_sample_check(
            args.seed,
            fraction=args.fraction,
            n_boot=args.boot,
            level=args.level,
        )
        if args.json:
            print(_json.dumps(result, sort_keys=True))
        else:
            print("sample check: all intervals cover the exact replay")
            for name, estimate in result["sampled"]["estimates"].items():
                print(
                    f"  {name:<13} {estimate['value']:.4f} "
                    f"[{estimate['low']:.4f}, {estimate['high']:.4f}] "
                    f"exact {result['exact'][name]:.4f}"
                )
        return

    try:
        sampling = SamplingConfig(
            fraction=args.fraction, seed=args.seed, n_boot=args.boot,
            level=args.level,
        )
    except TraceFormatError as error:
        raise CommandError(str(error)) from error
    try:
        workload = (
            smoke_workload(args.seed)
            if args.preset == "smoke"
            else preset(args.preset, args.seed)
        )
    except ReproError as error:
        raise CommandError(str(error)) from error
    trace = SyntheticTraceGenerator(workload).generate()
    try:
        report = estimate_ratios(
            trace,
            sampling,
            config=BASELINE,
            train_days=trace.duration / 86_400.0 * args.train_fraction,
        )
    except ReproError as error:
        raise CommandError(str(error)) from error
    if args.json:
        print(_json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.format())

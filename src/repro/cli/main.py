"""Argument parsing and dispatch for the ``repro`` command."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .. import __version__
from ..errors import PerfRegressionError, RuntimeProtocolError, TransportError
from . import commands


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Speculative data dissemination and service "
            "(reproduction of Bestavros, ICDE 1996)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a calibrated synthetic trace as a CLF log"
    )
    generate.add_argument("output", help="path of the log file to write")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pages", type=int, default=300)
    generate.add_argument("--clients", type=int, default=200)
    generate.add_argument("--sessions", type=int, default=2000)
    generate.add_argument("--days", type=float, default=30.0)
    generate.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the configuration calibrated to the paper's trace",
    )
    generate.set_defaults(handler=commands.cmd_generate)

    analyze = subparsers.add_parser(
        "analyze", help="popularity analysis of a CLF log (paper section 2)"
    )
    analyze.add_argument("log", help="CLF log file")
    analyze.add_argument(
        "--local-domain",
        action="append",
        default=[],
        help="domain suffix counted as local (repeatable)",
    )
    analyze.add_argument(
        "--block-kb", type=int, default=256, help="block size for Figure 1"
    )
    analyze.add_argument(
        "--no-clean", action="store_true", help="skip footnote-6 cleaning"
    )
    analyze.add_argument(
        "--sample",
        type=float,
        default=None,
        help="keep only this fraction of clients (whole streams) "
        "before analyzing — for very large logs",
    )
    analyze.set_defaults(handler=commands.cmd_analyze)

    simulate = subparsers.add_parser(
        "simulate",
        help="speculative-service experiment over a CLF log (section 3)",
    )
    simulate.add_argument("log", help="CLF log file")
    simulate.add_argument(
        "--local-domain", action="append", default=[], help="local domain suffix"
    )
    simulate.add_argument(
        "--threshold",
        type=float,
        action="append",
        default=[],
        help="T_p value to evaluate (repeatable; default a small sweep)",
    )
    simulate.add_argument(
        "--train-days",
        type=float,
        default=None,
        help="history used to estimate P/P* (default: half the trace)",
    )
    simulate.add_argument(
        "--cooperative", action="store_true", help="clients piggyback digests"
    )
    simulate.add_argument(
        "--digest-fp",
        type=float,
        default=None,
        help="encode cooperative digests as Bloom filters at this "
        "false-positive rate",
    )
    simulate.add_argument(
        "--adaptive-budget",
        type=float,
        default=None,
        help="replace the threshold sweep with the self-tuning policy "
        "targeting this traffic increase (e.g. 0.05)",
    )
    simulate.add_argument(
        "--max-size-kb", type=float, default=None, help="MaxSize cap in KB"
    )
    simulate.set_defaults(handler=commands.cmd_simulate)

    fit = subparsers.add_parser(
        "fit",
        help="estimate a synthetic-workload configuration from a CLF log",
    )
    fit.add_argument("log", help="CLF log file")
    fit.add_argument(
        "--local-domain", action="append", default=[], help="local domain suffix"
    )
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--regenerate",
        default=None,
        help="also write a synthetic twin trace (CLF) to this path",
    )
    fit.set_defaults(handler=commands.cmd_fit)

    report = subparsers.add_parser(
        "report",
        help="run the headline paper evaluation on a preset and write markdown",
    )
    report.add_argument(
        "--preset",
        default="paper",
        help="workload preset (see repro.workload.preset_names)",
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--out", default="report.md", help="markdown output path"
    )
    report.set_defaults(handler=commands.cmd_report)

    sweep = subparsers.add_parser(
        "sweep",
        help="Figure-5 style threshold sweep over a CLF log, CSV output",
    )
    sweep.add_argument("log", help="CLF log file")
    sweep.add_argument(
        "--local-domain", action="append", default=[], help="local domain suffix"
    )
    sweep.add_argument(
        "--train-days", type=float, default=None, help="history for P/P*"
    )
    sweep.add_argument(
        "--thresholds",
        default="0.95,0.75,0.5,0.35,0.25,0.15,0.1,0.05",
        help="comma-separated T_p grid",
    )
    sweep.add_argument(
        "--csv", default=None, help="write the sweep as CSV to this path"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the sweep across this many processes (byte-identical "
        "to the serial sweep; default serial)",
    )
    sweep.set_defaults(handler=commands.cmd_sweep)

    plan = subparsers.add_parser(
        "plan", help="dissemination storage planning for server logs"
    )
    plan.add_argument(
        "logs", nargs="+", help="one CLF log per home server (name=path or path)"
    )
    plan.add_argument(
        "--budget-mb", type=float, required=True, help="proxy storage budget"
    )
    plan.add_argument(
        "--local-domain", action="append", default=[], help="local domain suffix"
    )
    plan.set_defaults(handler=commands.cmd_plan)

    loadtest = subparsers.add_parser(
        "loadtest",
        help="run the live runtime (origin + proxies + load generator) "
        "on the deterministic in-memory transport",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--preset",
        default="small",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    loadtest.add_argument(
        "--budget-mb",
        type=float,
        default=2.0,
        help="proxy dissemination budget in MB",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=32, help="in-flight request cap"
    )
    loadtest.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in (virtual) seconds",
    )
    loadtest.add_argument(
        "--learn-online",
        action="store_true",
        help="keep estimating P from live requests (breaks batch parity; "
        "--verify-batch exits 3 once a decision differs)",
    )
    loadtest.add_argument(
        "--verify-batch",
        action="store_true",
        help="also replay through core.combined; exit 3 unless all four "
        "ratios match",
    )
    loadtest.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic CI self-test: smoke workload + batch "
        "verification (exit 3 on divergence)",
    )
    loadtest.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    loadtest.set_defaults(handler=commands.cmd_loadtest)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the live runtime under scripted fault injection and "
        "verify the paper's ratios survive (proxy crashes, frame drops, "
        "partitions, brownouts)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--preset",
        default="smoke",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    chaos.add_argument(
        "--budget-mb",
        type=float,
        default=2.0,
        help="proxy dissemination budget in MB",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-request timeout in (virtual) seconds",
    )
    chaos.add_argument(
        "--retries", type=int, default=3, help="retries per request"
    )
    chaos.add_argument(
        "--crash-proxy",
        type=int,
        default=0,
        help="index of the proxy to crash; -1 disables the crash",
    )
    chaos.add_argument(
        "--crash-at",
        type=float,
        default=0.2,
        help="crash time as a fraction of the fault-free run",
    )
    chaos.add_argument(
        "--restart-at",
        type=float,
        default=0.5,
        help="restart time as a fraction; -1 keeps the proxy down",
    )
    chaos.add_argument(
        "--drop-rate",
        type=float,
        default=0.02,
        help="injected global frame-drop probability",
    )
    chaos.add_argument(
        "--latency-extra",
        type=float,
        default=0.0,
        help="extra one-way seconds injected on the origin (brownout)",
    )
    chaos.add_argument(
        "--partition-proxy",
        type=int,
        default=-1,
        help="index of a proxy to partition from the origin; -1 disables",
    )
    chaos.add_argument(
        "--partition-from",
        type=float,
        default=0.2,
        help="partition start as a fraction of the fault-free run",
    )
    chaos.add_argument(
        "--partition-until",
        type=float,
        default=0.5,
        help="partition heal as a fraction; -1 never heals",
    )
    chaos.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="max faulted-vs-clean ratio divergence before failing",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic CI self-test: smoke workload, proxy crash + "
        "2%% frame drops (exit 3 on divergence or conservation failure)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    chaos.set_defaults(handler=commands.cmd_chaos)

    fleet = subparsers.add_parser(
        "fleet",
        help="run the hierarchical proxy fleet (region + subnet caches, "
        "sibling probes) against a single-tier deployment at equal "
        "total storage",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--preset",
        default="smoke",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    fleet.add_argument(
        "--policy",
        default="hierarchical",
        choices=[
            "hierarchical",
            "cooperative",
            "power-of-d",
            "greedy",
            "geographic",
        ],
        help="fleet placement policy",
    )
    fleet.add_argument(
        "--budget-mb",
        type=float,
        default=2.0,
        help="total storage budget in MB across every fleet node",
    )
    fleet.add_argument(
        "--probe-siblings",
        type=int,
        default=2,
        help="siblings probed on a node-local miss (0 disables probing)",
    )
    fleet.add_argument(
        "--region-fraction",
        type=float,
        default=0.65,
        help="fraction of each region's share kept at the region node",
    )
    fleet.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic CI gate: run twice, require bit-identical "
        "counters and every ratio to beat the single tier (exit 3 on "
        "failure)",
    )
    fleet.add_argument(
        "--trace-out",
        default=None,
        help="write the fleet arm's per-node trace as JSONL to this path",
    )
    fleet.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    fleet.set_defaults(handler=commands.cmd_fleet)

    deploy = subparsers.add_parser(
        "deploy",
        help="run the baseline/speculative pair as a real multi-process "
        "deployment: consistent-hash-sharded origins and proxy hosts "
        "over TCP, coordinated by a durable JSONL event bus",
    )
    deploy.add_argument("--seed", type=int, default=0)
    deploy.add_argument(
        "--preset",
        default="smoke",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    deploy.add_argument(
        "--shards",
        type=int,
        default=2,
        help="origin shard processes (consistent hashing over doc ids)",
    )
    deploy.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="owners per document on the hash ring (failover depth)",
    )
    deploy.add_argument(
        "--processes",
        type=int,
        default=None,
        help="total worker processes; default shards + 2 proxy hosts, "
        "1 selects the in-process single-loop mode",
    )
    deploy.add_argument(
        "--bus-dir",
        default=None,
        help="event-bus directory (default: a fresh temp dir); each arm "
        "logs its topics under its own subdirectory",
    )
    deploy.add_argument(
        "--budget-mb",
        type=float,
        default=2.0,
        help="proxy dissemination budget in MB",
    )
    deploy.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="max faulted-vs-clean ratio divergence in --smoke mode",
    )
    deploy.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic CI gate: 2-shard/2-proxy-host deployment "
        "bit-identical to the single-loop reference, then a scripted "
        "crash/partition run held to the tolerance (exit 3 on failure)",
    )
    deploy.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    deploy.set_defaults(handler=commands.cmd_deploy)

    profile = subparsers.add_parser(
        "profile",
        help="profile a workload's arrival bursts, popularity "
        "concentration, session lengths and strides in one streaming "
        "pass (no materialized trace)",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--preset",
        default="smoke",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    profile.add_argument(
        "--clf",
        default=None,
        help="profile an imported CLF log instead of a synthetic workload",
    )
    profile.add_argument(
        "--window",
        type=float,
        default=3600.0,
        help="arrival-rate window in seconds (default: 3600)",
    )
    profile.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: stream paper-scale x10 through the profiler under "
        "tracemalloc, enforce the constant-memory budget (exit 3 on "
        "regression) and gate stream throughput against the baseline",
    )
    profile.add_argument(
        "--baseline",
        default="BENCH_PERF.json",
        help="path of the committed perf baseline (default: "
        "./BENCH_PERF.json); used with --smoke",
    )
    profile.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --smoke: write this run's stream medians into the "
        "baseline file instead of gating against it",
    )
    profile.add_argument(
        "--out",
        default=None,
        help="write the profile (or smoke-gate report) as JSON to this "
        "path",
    )
    profile.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    profile.set_defaults(handler=commands.cmd_profile)

    sample = subparsers.add_parser(
        "sample",
        help="estimate the four paper ratios from a client sample with "
        "bootstrap confidence intervals (Horvitz-Thompson over "
        "per-client contributions)",
    )
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--preset",
        default="smoke",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    sample.add_argument(
        "--fraction",
        type=float,
        default=0.05,
        help="fraction of clients to sample (default: 0.05)",
    )
    sample.add_argument(
        "--boot",
        type=int,
        default=400,
        help="bootstrap replicates for the intervals (default: 400)",
    )
    sample.add_argument(
        "--level",
        type=float,
        default=0.95,
        help="confidence level for the intervals (default: 0.95)",
    )
    sample.add_argument(
        "--train-fraction",
        type=float,
        default=0.5,
        help="fraction of the trace duration used to train the "
        "dependency model (default: 0.5)",
    )
    sample.add_argument(
        "--check",
        action="store_true",
        help="CI gate: on the pinned check workload, require every "
        "interval to cover the exact full replay (exit 3 on a miss)",
    )
    sample.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    sample.set_defaults(handler=commands.cmd_sample)

    serve = subparsers.add_parser(
        "serve",
        help="serve a synthetic catalog over real TCP with in-band "
        "speculation (length-prefixed binary frames)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--preset",
        default="small",
        help="workload preset, or 'smoke' for the tiny smoke workload",
    )
    serve.add_argument(
        "--threshold", type=float, default=0.25, help="speculation T_p"
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="exit after serving this many requests",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="start, answer a few requests from an in-process client, exit",
    )
    serve.set_defaults(handler=commands.cmd_serve)

    bench = subparsers.add_parser(
        "bench",
        help="time the engine's hot loops, record BENCH_PERF.json, and "
        "gate against speedup floors and the committed baseline",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI-sized scale instead of the full reference scale",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repetitions per benchmark (default: per-scale)",
    )
    bench.add_argument(
        "--baseline",
        default="BENCH_PERF.json",
        help="path of the committed baseline (default: ./BENCH_PERF.json)",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's medians into the baseline file (speedup "
        "floors are still enforced so a bad baseline cannot land)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    bench.set_defaults(handler=commands.cmd_bench)

    trace = subparsers.add_parser(
        "trace",
        help="run an observed loadtest/chaos and dump its deterministic "
        "JSONL event trace (requests, speculation, pushes, faults)",
    )
    trace.add_argument(
        "run",
        nargs="?",
        default="loadtest",
        choices=["loadtest", "chaos"],
        help="which kind of run to trace (default loadtest)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--limit",
        type=int,
        default=65536,
        help="trace ring size; older events beyond it are dropped",
    )
    trace.add_argument(
        "--out", default=None, help="write the JSONL here instead of stdout"
    )
    trace.add_argument(
        "--metrics-out",
        default=None,
        help="also write a Prometheus text snapshot of the speculative arm",
    )
    trace.add_argument(
        "--smoke",
        action="store_true",
        help="determinism self-check: run twice and require byte-identical "
        "traces (exit 3 on drift)",
    )
    trace.set_defaults(handler=commands.cmd_trace)

    metrics = subparsers.add_parser(
        "metrics",
        help="run an observed loadtest/chaos and export windowed "
        "time-series (ratio curve table, JSON, or Prometheus text)",
    )
    metrics.add_argument(
        "run",
        nargs="?",
        default="loadtest",
        choices=["loadtest", "chaos"],
        help="which kind of run to measure (default loadtest)",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--limit", type=int, default=65536, help="trace ring size"
    )
    metrics.add_argument(
        "--window",
        type=float,
        default=3600.0,
        help="time-series window in virtual seconds",
    )
    metrics.add_argument(
        "--format",
        choices=["table", "json", "prometheus"],
        default="table",
        help="output format (default: ratio-curve table)",
    )
    metrics.add_argument(
        "--out", default=None, help="write the output here instead of stdout"
    )
    metrics.set_defaults(handler=commands.cmd_metrics)

    racecheck = subparsers.add_parser(
        "racecheck",
        help="schedule-perturbation race gate: replay a loadtest under "
        "seeded shuffles of same-timestamp timer ties and require "
        "bit-identical ratios (exit 3 on divergence)",
    )
    racecheck.add_argument("--seed", type=int, default=0, help="workload seed")
    racecheck.add_argument(
        "--perturbations",
        type=int,
        default=8,
        help="number of perturbed schedules to replay (default 8)",
    )
    racecheck.add_argument(
        "--base-seed",
        type=int,
        default=1,
        help="first tie-break seed (seeds are base..base+N-1)",
    )
    racecheck.add_argument(
        "--smoke",
        action="store_true",
        help="use the small smoke workload (the CI gate)",
    )
    racecheck.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    racecheck.add_argument(
        "--out", default=None, help="write the JSON report here as well"
    )
    racecheck.set_defaults(handler=commands.cmd_racecheck)

    subparsers.add_parser(
        "lint",
        help="static analysis enforcing simulation invariants "
        "(determinism, layering, numerical safety, API hygiene, RNG/"
        "clock provenance, async interleaving)",
        add_help=False,
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Returns:
        Process exit code: 0 on success, 1 on lint findings, 2 on a
        usage/data error, 3 on a runtime protocol violation (including
        live-vs-batch divergence), 4 on a transport failure, 5 on a
        performance regression (``repro bench`` gate).
    """
    # `repro lint` owns its whole argument tail (it has flags like
    # --format that must not collide with the main parser), so dispatch
    # it before general parsing.
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["lint"]:
        from ..analysis import runner

        return runner.main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        args.handler(args)
    except commands.CommandError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RuntimeProtocolError as error:
        print(f"protocol error: {error}", file=sys.stderr)
        return 3
    except TransportError as error:
        print(f"transport error: {error}", file=sys.stderr)
        return 4
    except PerfRegressionError as error:
        print(f"{error}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

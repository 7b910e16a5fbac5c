#!/usr/bin/env python3
"""End-to-end benchmark: four execution shapes, measured from outside.

Two ways in (README.md has the tables):

* ``python3 benchmarks/e2e/run.py --seed 0`` runs every workload in a
  fresh subprocess with tracing off, then one traced pass each, prints
  every metric by name with its unit, checks the outputs, writes
  ``out/e2e-seed0.json`` for ``compare.py`` and exits non-zero on any
  failed check.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints one JSON object as its last line:
  the end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1`` (BENCHMARK.json is the contract).

End-to-end numbers never come from a traced repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from contract import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Set-up is called at least 3 times, then until it has taken 2.5 s in
#: all or been called 9 times: a 0.3 s set-up needs more than 3 samples
#: for a steady median, a 1.7 s one does not.
SETUP_CALLS = (3, 9)
SETUP_SECONDS = 2.5
MIN_REPEATS = 3
#: A traced run prices the tracer against untraced repeats of its own:
#: at least this many, and at least this many seconds of them.
UNTRACED_REPEATS = 2
UNTRACED_SECONDS = 2.0


def bootstrap() -> Path:
    """Put the program on the path; keep temp files inside the checkout.

    Returns the scratch directory.  Exits non-zero where there is no
    program to measure (a directory holding only the benchmark).
    """
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure under {source}")
    sys.path.insert(0, str(source))
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return scratch


def fingerprint() -> dict[str, Any]:
    """The machine and commit a record was measured on."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def cpu_seconds() -> tuple[float, float]:
    """User+system CPU of this process, and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


def timed(workload: Any) -> dict[str, Any]:
    """One repeat, timed from outside the call."""
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    outcome = workload.repeat()
    wall = time.perf_counter() - started
    cpu_after = cpu_seconds()
    return {
        "outcome": outcome,
        "wall": wall,
        "cpu_self": cpu_after[0] - cpu_before[0],
        "cpu_children": cpu_after[1] - cpu_before[1],
    }


def summarise(samples: list[float], unit: str) -> dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def timed_setups(make: Any) -> tuple[Any, list[float]]:
    """Prepare several times; keep the last prepared workload."""
    fewest, most = SETUP_CALLS
    seconds: list[float] = []
    while len(seconds) < fewest or (
        len(seconds) < most and sum(seconds) < SETUP_SECONDS
    ):
        workload = make()
        started = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - started)
    return workload, seconds


def measure(args: argparse.Namespace, scratch: Path) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    from spans import NullRecorder
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload, setups = timed_setups(
        lambda: cls(args.seed, args.quick, NullRecorder(), scratch)
    )
    outcomes = workload.warm_up()

    repeats = []
    deadline = time.perf_counter() + args.seconds
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        repeats.append(timed(workload))
    outcomes += [repeat["outcome"] for repeat in repeats]

    per_repeat = {
        "accesses_per_s": [r["outcome"].accesses / r["wall"] for r in repeats],
        "cpu_us_per_access": [
            (r["cpu_self"] + r["cpu_children"]) / r["outcome"].accesses * 1e6
            for r in repeats
        ],
        "latency_p50_ms": [
            workload.latency_ms(r["outcome"], r["wall"]) for r in repeats
        ],
    }
    per_repeat["setup_s"] = setups
    per_repeat["peak_rss_mb"] = [peak_rss_mb()]
    metrics = {
        name: summarise(per_repeat[name], entry["unit"])
        for name, entry in END_TO_END.items()
    }
    return finish(args, workload, outcomes, [r["outcome"] for r in repeats], metrics)


def trace(args: argparse.Namespace, scratch: Path) -> dict[str, Any]:
    """The traced run: every per-layer metric of one workload."""
    import layers
    from spans import Recorder
    from workloads import WORKLOADS

    rec = Recorder()
    tally = layers.Tally()
    workload = WORKLOADS[args.workload](args.seed, args.quick, rec, scratch)
    with layers.traced(rec, tally):
        started = time.perf_counter()
        with rec.span("setup"):
            workload.setup()
        setup_seconds = time.perf_counter() - started
    setup_spans = rec.summary()

    outcomes = workload.warm_up()
    untraced: list[dict[str, Any]] = []
    while (
        len(untraced) < UNTRACED_REPEATS
        or sum(r["wall"] for r in untraced) < UNTRACED_SECONDS
    ):
        untraced.append(timed(workload))
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    outcomes += [r["outcome"] for r in untraced]

    mark = len(rec)
    with layers.traced(rec, tally), rec.span("repeat"):
        traced_repeat = timed(workload)
    repeat_spans = rec.summary(mark)
    outcomes.append(traced_repeat["outcome"])

    found = run_probes(args, workload, tally, scratch)
    if hasattr(workload, "observed_repeat"):
        started = time.perf_counter()
        outcomes.append(workload.observed_repeat())
        observed_wall = time.perf_counter() - started
        found["obs.on_overhead_share"] = observed_wall / untraced_wall - 1.0

    values = layers.derive(
        setup=setup_spans,
        repeat=repeat_spans,
        outcome=traced_repeat["outcome"],
        tally=tally,
        traced_wall=traced_repeat["wall"],
        untraced_wall=untraced_wall,
        setup_seconds=setup_seconds,
        cpu_self=traced_repeat["cpu_self"],
        cpu_children=traced_repeat["cpu_children"],
        probes=found,
    )
    metrics = {
        name: summarise([float(values[name])], unit)
        for name, unit in PER_LAYER.items()
    }
    rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    layer, seconds = layers.dominant_layer(repeat_spans)
    record = finish(args, workload, outcomes, [traced_repeat["outcome"]], metrics)
    record["dominant_layer"] = {"layer": layer, "self_s": seconds}
    record["spans"] = {
        name: {key: round(value, 6) for key, value in stats.items()}
        for name, stats in sorted(repeat_spans.items())
    }
    return record


def run_probes(
    args: argparse.Namespace, workload: Any, tally: Any, scratch: Path
) -> dict[str, float]:
    """The stand-alone probes that bear on this workload's layers."""
    from probes import Prober
    from workloads import mid_config

    prober = Prober(scratch)
    if args.quick:
        prober = Prober(scratch, min_seconds=0.1, round_trips=2_000)
    name = workload.name
    found = prober.codec_us(tally.corpus)
    if name in ("live-mem", "live-fleet"):
        found["runtime.transport.mem_echo_us"] = prober.mem_echo_us()
    if name in ("live-mem", "live-tcp"):
        settings = workload.settings()
        found.update(
            prober.prepare_steps(
                mid_config(args.seed, args.quick),
                settings.train_fraction,
                settings.budget_bytes,
            )
        )
    if name == "live-tcp":
        spec = workload.spec("")
        found["runtime.transport.tcp_echo_us"] = prober.tcp_echo_us()
        found.update(prober.bus_us())
        found.update(prober.ring(workload.prepared.serve, spec.shards, spec.replicas))
    return found


def finish(
    args: argparse.Namespace,
    workload: Any,
    outcomes: list[Any],
    counted: list[Any],
    metrics: dict[str, Any],
) -> dict[str, Any]:
    """Check the outputs and assemble the run's record."""
    problems = workload.verify(outcomes)
    attempted = sum(outcome.operations for outcome in counted)
    failed = sum(outcome.failed for outcome in counted)
    return {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "comparable": not args.quick,
        "fingerprint": fingerprint(),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "repeats": len(counted),
        "metrics": metrics,
    }


def report(record: dict[str, Any]) -> None:
    """Print every metric by name with its unit; the result line last."""
    tag = "" if record["comparable"] else "  [--quick: not comparable]"
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"== {record['workload']} seed={record['seed']} {kind}{tag}")
    for name, metric in record["metrics"].items():
        spread = (
            f"  q1={metric['q1']:.6g} q3={metric['q3']:.6g} n={metric['n']}"
            if metric["n"] > 1
            else ""
        )
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}{spread}")
    if "failed_share" not in record["metrics"]:
        print(f"{'failed_share':44s} {record['failed_share']:>16.6g} ratio")
    print(f"operations: {record['failed']} failed of {record['attempted']} attempted")
    if "dominant_layer" in record:
        top = record["dominant_layer"]
        print(
            f"largest self time: {top['layer']} ({top['self_s']:.3f} s of the "
            "traced repeat)"
        )
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                },
            }
        )
    )


def record_path(workload: str, seed: int, traced: int) -> Path:
    """Where a single-workload run leaves its full record."""
    return OUT / f"{workload}-seed{seed}-trace{traced}.json"


def run_one(args: argparse.Namespace) -> int:
    """Single-workload mode (what BENCHMARK.json's command drives)."""
    scratch = bootstrap()
    if args.workload == "live-tcp" and (os.cpu_count() or 1) < 2:
        print("live-tcp skipped: it forks three processes and nproc < 2")
        return 3
    record = (trace if args.trace else measure)(args, scratch)
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1)
    )
    report(record)
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in a fresh subprocess."""
    bootstrap()
    combined: dict[str, Any] = {
        "schema": 1,
        "seed": args.seed,
        "comparable": not args.quick,
        "workloads": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        entry: dict[str, Any] = {"status": "ok"}
        combined["workloads"][name] = entry
        for traced in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
            ] + (["--quick"] if args.quick else [])
            code = subprocess.run(command, cwd=ROOT).returncode
            if code == 3:
                entry["status"] = "skipped"
                break
            if code != 0:
                entry["status"] = "failed"
                status = 1
            path = record_path(name, args.seed, traced)
            if path.exists():
                record = json.loads(path.read_text())
                combined.setdefault("fingerprint", record["fingerprint"])
                entry["per_layer" if traced else "end_to_end"] = record
    target = Path(args.out) if args.out else OUT / f"e2e-seed{args.seed}.json"
    target.write_text(json.dumps(combined, indent=1))

    print("\n== summary")
    for name, entry in combined["workloads"].items():
        layer = entry.get("per_layer")
        if entry["status"] != "ok" or layer is None:
            print(f"{name:12s} {entry['status']}")
            continue
        shares = layer["metrics"]
        print(
            f"{name:12s} ok  largest self time: "
            f"{layer['dominant_layer']['layer']}  unattributed_share="
            f"{shares['unattributed_share']['value']:.3f}  trace_overhead_share="
            f"{shares['trace_overhead_share']['value']:.3f}"
        )
    print(f"record: {target}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="~10x smaller scales to self-test the harness; not comparable",
    )
    parser.add_argument("--out", help="combined record path (all-workload mode)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(RUN_SECONDS)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

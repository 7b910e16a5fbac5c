"""Golden digests for the batch (trace-replay) pipeline.

The digests below were recorded at the commit *before* the dependency
backends and replay engines were collapsed and must survive any
refactor of ``repro.speculation`` / ``repro.core`` unchanged: they pin
every :class:`SpeculationMetrics` field, ``accesses``, ``cache_hits``
and the four ratios of the Figure-5 sweep at two seeds, plus three runs
that were replayed by the general loop when recorded (cooperative
clients, a rolling estimator, an aged-count snapshot model).
"""

import dataclasses
import hashlib

import pytest

from repro.config import BASELINE
from repro.core import Experiment, evaluate_thresholds
from repro.runtime import smoke_workload
from repro.speculation.aging import AgingDependencyCounter, RollingEstimator
from repro.speculation.metrics import compare
from repro.speculation.policies import ThresholdPolicy
from repro.speculation.simulator import SpeculativeServiceSimulator
from repro.workload import SyntheticTraceGenerator

THRESHOLDS = (0.95, 0.5, 0.25, 0.1, 0.05)
TRAIN_DAYS = 5.0

GOLDEN = {
    0: {
        "baseline": "19beb84850818de8d3e296cfd9bf30f8e76b0a180584156388f7642936425417",
        "tp=0.95": "effcd0fac2257c3cff3c8b764135b6867fe2ffe5610434dd354e085b86aa063b",
        "tp=0.5": "e19262b07e6b67cb0122dd386dc678ed3a4dc812c5def92b00ad40f9085302b4",
        "tp=0.25": "cfed0e7e4d1777043a076dbe052cd02b07f0d111276acb53135694d3863c78b1",
        "tp=0.1": "872376c759b9871a9f44d359ea318af84f5d6fe96d83ff905cd9b401533f96eb",
        "tp=0.05": "5caee1050bf3c125c5614c8b4177f3d0d2a8ea1163025e022adf8b2d4f7266c3",
        "cooperative": "a22fdccde25e1c7cef94486fd567f0b12ea72af9e902e2c2aacf6a4f13b5f80f",
        "rolling": "dd705db581bbe361c0485e26a1a027fe0e0af18cb6d3434418e5c284c9878ab7",
        "aged": "a0678a88fd4023e3e29dcbf907d20b90e7e66027fd06079ecff3133a383d01ff",
    },
    1: {
        "baseline": "ab3d8e6b2c2a21dd1ec64cd9f89f6ca831233b42a71b6ccfdbeb14346a5e0f8e",
        "tp=0.95": "4cda1ddbbf0ccdc9c6eed2c04f6e9a475bd9f0d80459146e1d28ec06337c9d40",
        "tp=0.5": "46d1c873f8c06aec84fb72c41cdbe564c2da95c750be6308658124ad60c84fa2",
        "tp=0.25": "71e913cc7ebbe45473020194982eeaefb44c4bd90864959453a79f6959b3cde9",
        "tp=0.1": "00c0369309a635a3cfea1ff4dfe4dc3f53a3b92a272f9027996997d4a1ff475e",
        "tp=0.05": "30628cd6ac6a99d67a41d6f7c69eb644a807cc7ba4cbf1d7f6f3b45f3688c808",
        "cooperative": "7c6180a634252d1344e5bf50c6a862585bda84d4385542f094b93df288ff017d",
        "rolling": "cf9bd52fb1a1faa0d301edee9e2d085a1b40c20c819ca5564d8e93ddef040f0e",
        "aged": "4af3f19765cb62a03fba44454aabeccd6cdcb61eab2a54168da4b4ac875b54bf",
    },
}


def run_digest(run, ratios=None) -> str:
    """sha256 over the sorted ``name=repr(value)`` lines of one run."""
    values = dataclasses.asdict(run.metrics)
    values["accesses"] = run.accesses
    values["cache_hits"] = run.cache_hits
    if ratios is not None:
        values.update(
            {f"ratio.{k}": v for k, v in dataclasses.asdict(ratios).items()}
        )
    lines = sorted(f"{name}={value!r}" for name, value in values.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def batch_digests(seed):
    trace = SyntheticTraceGenerator(smoke_workload(seed)).generate()
    experiment = Experiment(trace, BASELINE, train_days=TRAIN_DAYS)
    baseline = experiment.baseline()
    digests = {"baseline": run_digest(baseline)}
    for point in evaluate_thresholds(experiment, list(THRESHOLDS)):
        digests[f"tp={point.parameter}"] = run_digest(point.run, point.ratios)

    policy = ThresholdPolicy(threshold=0.25)
    ratios, run = experiment.evaluate(policy, cooperative=True)
    digests["cooperative"] = run_digest(run, ratios)

    test = experiment.test
    rolling = RollingEstimator(
        trace,
        history_length_days=TRAIN_DAYS,
        update_cycle_days=1.0,
        window=BASELINE.stride_timeout,
    )
    run = SpeculativeServiceSimulator(test, BASELINE, rolling=rolling).run(policy)
    digests["rolling"] = run_digest(run, compare(run.metrics, baseline.metrics))

    # Two batches a few days apart, so the first batch's counts are
    # decayed to non-integers before the snapshot.
    counter = AgingDependencyCounter(
        decay_per_day=0.9, window=BASELINE.stride_timeout
    )
    half = experiment.train.start_time + 0.5 * (
        experiment.train.end_time - experiment.train.start_time
    )
    counter.observe(experiment.train.window(experiment.train.start_time, half))
    counter.observe(experiment.train.window(half, experiment.train.end_time + 1.0))
    aged = SpeculativeServiceSimulator(test, BASELINE, model=counter.snapshot())
    run = aged.run(policy)
    digests["aged"] = run_digest(run, compare(run.metrics, baseline.metrics))
    return digests


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_digests_match_golden(seed):
    assert batch_digests(seed) == GOLDEN[seed]

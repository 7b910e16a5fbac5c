"""Ratio estimation from client-sampled replays, and its validation gate.

:func:`ht_ratio_estimates` is Horvitz–Thompson ratio estimation with
bootstrap confidence intervals over per-client contribution vectors.
Under equal inclusion probability ``π`` (what hash sampling gives),
each sampled total estimates ``π × population total``, so ``π``
cancels in every ratio of totals — the point estimates are the plain
sampled ratios, and they are consistent for the population ratios.
The intervals come from resampling *clients* (the sampling unit) with
replacement.  This module supplies the contribution vectors by
actually replaying the trace, and the decomposition is exact:
:class:`SpeculativeServiceSimulator` keeps strictly per-client state
(caches, pending pushes, session clocks), so replaying each client's
sub-trace alone — against the shared dependency model and the shared
catalog — produces byte-identical per-client totals to one combined
replay.

:func:`estimate_ratios` is the driver the loadtest/fleet engines call
on a sampled workload; :func:`execute_sample_check` is the spot-check
gate (``repro sample --check``) that proves, against an exact
full-trace replay, that the estimator's confidence intervals cover the
true four ratios.
"""

from __future__ import annotations

import numpy as np

from ..config import BASELINE, SECONDS_PER_DAY, BaselineConfig
from ..errors import RuntimeProtocolError, SimulationError, TraceFormatError
from ..speculation.dependency import DependencyModel
from ..speculation.metrics import SpeculationMetrics, ratios_from_totals
from ..speculation.policies import SpeculationPolicy, ThresholdPolicy
from ..speculation.simulator import SpeculativeServiceSimulator
from ..trace.records import Trace
from ..trace.sampling import (
    CONTRIBUTION_COLUMNS,
    RATIO_NAMES,
    RatioEstimate,
    SampledRatioReport,
    SamplingConfig,
    sample_clients,
)
from ..workload.generator import GeneratorConfig, SyntheticTraceGenerator
from .experiment import Experiment


def _contribution_row(metrics: SpeculationMetrics) -> list[float]:
    """One client's contribution vector, ordered like CONTRIBUTION_COLUMNS."""
    return [float(getattr(metrics, column)) for column in CONTRIBUTION_COLUMNS]


def _summed_ratios(spec: np.ndarray, base: np.ndarray) -> dict[str, float]:
    """The four ratios of two contribution arrays' column totals."""
    return ratios_from_totals(
        spec.sum(axis=0).tolist(), base.sum(axis=0).tolist()
    ).by_name()


def ht_ratio_estimates(
    speculative: np.ndarray,
    baseline: np.ndarray,
    *,
    n_boot: int = 400,
    level: float = 0.95,
    seed: int = 0,
) -> dict[str, RatioEstimate]:
    """Horvitz–Thompson ratio estimates with bootstrap intervals.

    Args:
        speculative: ``(n_clients, 5)`` per-client contributions of the
            speculative arm, columns ordered like
            :data:`~repro.trace.sampling.CONTRIBUTION_COLUMNS`.
        baseline: Same shape for the no-speculation arm.
        n_boot: Bootstrap replicates (clients resampled with
            replacement).
        level: Confidence level of the percentile intervals.
        seed: Seeds the bootstrap resampling.

    Returns:
        Ratio name → :class:`RatioEstimate` for the four headline
        ratios.  Equal inclusion probabilities cancel in each ratio of
        totals, so the point estimate is the sampled ratio itself; the
        interval captures the client-sampling variability.

    Raises:
        TraceFormatError: On mismatched or empty contribution arrays.
    """
    spec = np.asarray(speculative, dtype=np.float64)
    base = np.asarray(baseline, dtype=np.float64)
    if spec.shape != base.shape or spec.ndim != 2 or spec.shape[1] != 5:
        raise TraceFormatError(
            "contribution arrays must both be (n_clients, 5)"
        )
    n_clients = spec.shape[0]
    if n_clients == 0:
        raise TraceFormatError("cannot estimate ratios from zero clients")

    points = _summed_ratios(spec, base)

    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0xB007,))
    )
    draws = rng.integers(n_clients, size=(n_boot, n_clients))
    replicates: dict[str, list[float]] = {name: [] for name in RATIO_NAMES}
    for indices in draws:
        for name, value in _summed_ratios(spec[indices], base[indices]).items():
            replicates[name].append(value)

    alpha = (1.0 - level) / 2.0
    estimates: dict[str, RatioEstimate] = {}
    for name in RATIO_NAMES:
        values = np.asarray(replicates[name])
        finite = values[np.isfinite(values)]
        if len(finite) == 0:
            low = high = points[name]
        else:
            low = float(np.quantile(finite, alpha))
            high = float(np.quantile(finite, 1.0 - alpha))
        estimates[name] = RatioEstimate(
            value=points[name],
            low=min(low, points[name]),
            high=max(high, points[name]),
        )
    return estimates


def client_contributions(
    test: Trace,
    *,
    config: BaselineConfig = BASELINE,
    model: DependencyModel,
    policy: SpeculationPolicy,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Per-client (speculative, baseline) contribution vectors.

    Each client's sub-trace is replayed twice against the shared model
    and the full test catalog — once with the policy, once without.

    Returns:
        ``(client_ids, speculative, baseline)`` where the arrays are
        ``(n_clients, 5)`` ordered like
        :data:`~repro.trace.sampling.CONTRIBUTION_COLUMNS`.

    Raises:
        SimulationError: If the test trace has no clients.
    """
    groups = test.by_client()
    if not groups:
        raise SimulationError("cannot estimate ratios from an empty test trace")
    catalog = list(test.documents.values())
    client_ids = sorted(groups)
    spec_rows: list[list[float]] = []
    base_rows: list[list[float]] = []
    for client_id in client_ids:
        sub = Trace(groups[client_id], catalog)
        simulator = SpeculativeServiceSimulator(sub, config, model=model)
        spec_rows.append(_contribution_row(simulator.run(policy).metrics))
        base_rows.append(_contribution_row(simulator.run(None).metrics))
    return client_ids, np.asarray(spec_rows), np.asarray(base_rows)


def estimate_ratios(
    trace: Trace,
    sampling: SamplingConfig = SamplingConfig(),
    *,
    config: BaselineConfig = BASELINE,
    train_days: float = 60.0,
    policy: SpeculationPolicy | None = None,
) -> SampledRatioReport:
    """Estimate the four ratios from a client-sampled replay.

    The trace is split at the ``train_days`` boundary, the dependency
    model is estimated on the **full** history (the paper's server sees
    every client's history — sampling reduces replay cost, not the
    server's knowledge; a model from a thinned history is also what
    biases the estimates), and the test half is thinned to
    ``sampling.fraction`` of its clients
    (:func:`~repro.trace.sampling.sample_clients`).  Each sampled
    client's stream is replayed with and without speculation; the
    per-client totals feed :func:`ht_ratio_estimates`.  With the model
    fixed, contributions are fixed per client and equal inclusion
    probabilities cancel — the estimates are consistent for the exact
    full-replay ratios.

    Args:
        trace: The full trace to sample.
        sampling: Fraction, selection seed and bootstrap parameters.
        config: Baseline cost/timeout parameters.
        train_days: History used to estimate the dependency model.
        policy: Speculation policy; defaults to the paper's
            :class:`ThresholdPolicy` at ``config.threshold``.

    Raises:
        SimulationError: If the split leaves an empty side or the
            sample holds no test-half requests.
    """
    policy = policy or ThresholdPolicy(config.threshold)
    boundary = trace.start_time + train_days * SECONDS_PER_DAY
    train = trace.window(trace.start_time, boundary)
    full_test = trace.window(boundary, trace.end_time + 1.0)
    if len(train) == 0 or len(full_test) == 0:
        raise SimulationError(
            f"split at {train_days} days leaves train={len(train)} "
            f"test={len(full_test)} requests"
        )
    model = DependencyModel.estimate(train, window=config.stride_timeout)
    test = sample_clients(full_test, sampling.fraction, seed=sampling.seed)
    client_ids, spec, base = client_contributions(
        test, config=config, model=model, policy=policy
    )
    estimates = ht_ratio_estimates(
        spec,
        base,
        n_boot=sampling.n_boot,
        level=sampling.level,
        seed=sampling.seed,
    )
    return SampledRatioReport(
        fraction=sampling.fraction,
        seed=sampling.seed,
        level=sampling.level,
        n_boot=sampling.n_boot,
        n_clients=len(client_ids),
        n_population=len(full_test.clients()),
        n_requests=len(test),
        estimates=estimates,
    )


def sample_check_workload(seed: int = 0) -> GeneratorConfig:
    """The workload behind the sampling spot-check gate.

    Small enough to replay exactly in seconds, big enough (hundreds of
    clients) that a 5% client sample still holds a few dozen clients —
    the regime where the bootstrap intervals are meaningful.  Client
    activity is kept homogeneous: with a Zipf-heavy population a small
    sample that misses the heavy clients produces too-narrow bootstrap
    intervals (the usual heavy-tail under-coverage), which would make
    the gate flaky for reasons unrelated to the estimator itself.
    """
    return GeneratorConfig(
        seed=seed,
        n_pages=120,
        n_clients=800,
        n_sessions=6_000,
        duration_days=20.0,
        activity_alpha=0.0,
    )


def execute_sample_check(
    seed: int = 0,
    *,
    fraction: float = 0.05,
    train_days: float = 10.0,
    n_boot: int = 400,
    level: float = 0.95,
    config: BaselineConfig = BASELINE,
) -> dict:
    """Spot-check the sampling estimator against an exact replay.

    Generates the :func:`sample_check_workload` trace, computes the
    exact four ratios with a full :class:`~repro.core.experiment.Experiment`
    replay, estimates the same ratios from a ``fraction`` client sample,
    and requires every confidence interval to cover its exact value.

    Returns:
        A JSON-ready report: exact ratios, estimates with intervals,
        and per-ratio coverage.

    Raises:
        RuntimeProtocolError: If any interval misses its exact ratio —
            the estimator (or the sampling machinery feeding it) is
            biased and must not be trusted for sampled runs.
    """
    trace = SyntheticTraceGenerator(sample_check_workload(seed)).generate()
    policy = ThresholdPolicy(config.threshold)

    experiment = Experiment(trace, config, train_days=train_days)
    exact_ratios, _ = experiment.evaluate(policy)
    exact = exact_ratios.by_name()

    sampling = SamplingConfig(
        fraction=fraction, seed=seed, n_boot=n_boot, level=level
    )
    report = estimate_ratios(
        trace,
        sampling,
        config=config,
        train_days=train_days,
        policy=policy,
    )
    coverage = report.covers(exact)
    result = {
        "seed": seed,
        "exact": exact,
        "sampled": report.to_dict(),
        "coverage": coverage,
    }
    missed = [name for name in RATIO_NAMES if not coverage.get(name, False)]
    if missed:
        raise RuntimeProtocolError(
            "sampled confidence intervals miss the exact ratio for "
            + ", ".join(missed)
            + " — client sampling cannot be trusted at this fraction"
        )
    return result

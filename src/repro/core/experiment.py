"""Experiment plumbing shared by the benchmarks.

The paper's section-3 experiments all follow one recipe: estimate P/P*
from history, replay the (later part of the) trace with and without
speculation, and compare the four ratios while sweeping one knob.
:class:`Experiment` packages the recipe; :func:`evaluate_thresholds` and
:func:`interpolate_at_traffic` derive the Figure-5/6 series and the
"x% extra bandwidth buys ..." headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import BASELINE, SECONDS_PER_DAY, BaselineConfig
from ..errors import SimulationError
from ..perf.parallel import parallel_map
from ..trace.records import Trace
from ..speculation.caches import ClientCache
from ..speculation.dependency import DependencyModel
from ..speculation.metrics import SpeculationRatios, compare
from ..speculation.policies import SpeculationPolicy, ThresholdPolicy
from ..speculation.simulator import SimulationRun, SpeculativeServiceSimulator


def train_test_split(trace: Trace, train_days: float) -> tuple[Trace, Trace]:
    """Split a trace at ``train_days`` after its start.

    Returns:
        ``(train, test)`` traces; the boundary request goes to test.

    Raises:
        SimulationError: If the split leaves either side empty.
    """
    if train_days <= 0:
        raise SimulationError("train_days must be positive")
    boundary = trace.start_time + train_days * SECONDS_PER_DAY
    train = trace.window(trace.start_time, boundary)
    test = trace.window(boundary, trace.end_time + 1.0)
    if len(train) == 0 or len(test) == 0:
        raise SimulationError(
            f"split at {train_days} days leaves train={len(train)} "
            f"test={len(test)} requests"
        )
    return train, test


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: float
    ratios: SpeculationRatios
    run: SimulationRun


class Experiment:
    """A prepared speculation experiment: model + baseline, ready to sweep.

    Args:
        trace: The full trace.
        config: Baseline parameters.
        train_days: History used to estimate the dependency model; the
            remainder of the trace is replayed.

    The no-speculation baseline for the configured cache model is run
    once and cached; :meth:`evaluate` compares any policy against it.
    """

    def __init__(
        self,
        trace: Trace,
        config: BaselineConfig = BASELINE,
        *,
        train_days: float = 60.0,
    ):
        self._config = config
        self.train, self.test = train_test_split(trace, train_days)
        self.model = DependencyModel.estimate(self.train, window=config.stride_timeout)
        self._simulator = SpeculativeServiceSimulator(
            self.test, config, model=self.model
        )
        self._baselines: dict[tuple, SimulationRun] = {}

    @property
    def config(self) -> BaselineConfig:
        return self._config

    @property
    def simulator(self) -> SpeculativeServiceSimulator:
        return self._simulator

    def baseline(
        self,
        *,
        cache_factory: Callable[[], ClientCache] | None = None,
        cache_key: str = "default",
    ) -> SimulationRun:
        """The no-speculation run for a cache model (cached per key).

        Raises:
            SimulationError: If a ``cache_factory`` is given under the
                default key — the run would be compared against (or
                cached as) the default-cache baseline.
        """
        if cache_factory is not None and cache_key == "default":
            raise SimulationError(
                "a cache_factory needs its own cache_key; 'default' names "
                "the baseline under the config's SessionTimeout caches"
            )
        key = ("baseline", cache_key)
        if key not in self._baselines:
            self._baselines[key] = self._simulator.run(
                None, cache_factory=cache_factory
            )
        return self._baselines[key]

    def evaluate(
        self,
        policy: SpeculationPolicy,
        *,
        cache_factory: Callable[[], ClientCache] | None = None,
        cache_key: str = "default",
        cooperative: bool = False,
        digest_fp_rate: float | None = None,
        prefetcher=None,
    ) -> tuple[SpeculationRatios, SimulationRun]:
        """Run one policy and compare it to the matching baseline."""
        base = self.baseline(cache_factory=cache_factory, cache_key=cache_key)
        run = self._simulator.run(
            policy,
            cache_factory=cache_factory,
            cooperative=cooperative,
            digest_fp_rate=digest_fp_rate,
            prefetcher=prefetcher,
        )
        return compare(run.metrics, base.metrics), run


def evaluate_thresholds(
    experiment: Experiment,
    thresholds: list[float],
    *,
    policy_factory: Callable[[float], SpeculationPolicy] | None = None,
    workers: int | None = None,
) -> list[SweepPoint]:
    """The Figure-5 sweep: the four ratios across ``T_p`` values.

    This is the engine behind :meth:`repro.api.Session.sweep`.

    Args:
        experiment: A prepared experiment.
        thresholds: ``T_p`` values, any order (returned in given order).
        policy_factory: Builds the policy per threshold; defaults to the
            paper's :class:`ThresholdPolicy`.
        workers: Shard thresholds across this many processes (see
            :func:`repro.perf.parallel.parallel_map`).  Results are
            byte-identical to the serial sweep for any worker count;
            ``None`` or ``1`` stays serial.
    """
    factory = policy_factory or (lambda tp: ThresholdPolicy(threshold=tp))

    def point(threshold: float) -> SweepPoint:
        ratios, run = experiment.evaluate(factory(threshold))
        return SweepPoint(parameter=threshold, ratios=ratios, run=run)

    if workers is not None and workers > 1:
        # Materialize the shared baseline before forking so every
        # worker inherits it instead of recomputing it per shard.
        experiment.baseline()
        return parallel_map(point, thresholds, workers=workers)
    return [point(threshold) for threshold in thresholds]


def interpolate_at_traffic(
    points: list[SweepPoint], traffic_increase: float
) -> SpeculationRatios | None:
    """Reductions bought by a given extra-traffic budget (Figure 6).

    Linearly interpolates the sweep between the two points bracketing
    ``traffic_increase``; the no-speculation origin (zero extra traffic,
    all ratios 1.0) anchors the left end, so small budgets interpolate
    toward "do nothing".  Returns the last point's ratios when the
    request exceeds the sweep's reach.
    """
    if traffic_increase < 0:
        raise SimulationError("traffic_increase must be non-negative")
    if not points:
        return None
    origin = SpeculationRatios(
        bandwidth_ratio=1.0,
        server_load_ratio=1.0,
        service_time_ratio=1.0,
        miss_rate_ratio=1.0,
    )
    series: list[tuple[float, SpeculationRatios]] = [(0.0, origin)]
    series += sorted(
        ((p.ratios.traffic_increase, p.ratios) for p in points),
        key=lambda item: item[0],
    )
    below = series[0]
    above = None
    for item in series:
        if item[0] <= traffic_increase:
            below = item
        else:
            above = item
            break
    if above is None or below[0] == traffic_increase:
        return below[1]
    span = above[0] - below[0]
    weight = (traffic_increase - below[0]) / span

    def mix(a: float, b: float) -> float:
        return a + (b - a) * weight

    return SpeculationRatios(
        bandwidth_ratio=1.0 + traffic_increase,
        server_load_ratio=mix(below[1].server_load_ratio, above[1].server_load_ratio),
        service_time_ratio=mix(
            below[1].service_time_ratio, above[1].service_time_ratio
        ),
        miss_rate_ratio=mix(below[1].miss_rate_ratio, above[1].miss_rate_ratio),
    )

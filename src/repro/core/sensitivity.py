"""Sensitivity analysis over workload parameters.

How robust are the paper's conclusions to the workload?  A reviewer's
natural question, answered by sweeping one generator knob at a time and
re-running the speculation experiment.  :func:`sweep_workload`
automates the loop; results print with
:func:`repro.core.reporting.format_table` or feed further analysis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import BASELINE, BaselineConfig
from ..errors import SimulationError
from ..perf.parallel import parallel_map
from ..speculation.metrics import SpeculationRatios
from ..speculation.policies import SpeculationPolicy, ThresholdPolicy
from ..workload.generator import GeneratorConfig, SyntheticTraceGenerator
from .experiment import Experiment


@dataclass(frozen=True)
class SensitivityPoint:
    """One swept value and its experiment outcome.

    Attributes:
        value: The parameter value for this run.
        ratios: The four speculation ratios against that workload's own
            baseline.
        n_requests: Size of the generated trace (diagnostic).
    """

    value: object
    ratios: SpeculationRatios
    n_requests: int


def sweep_workload(
    parameter: str,
    values: list,
    *,
    base_config: GeneratorConfig | None = None,
    policy: SpeculationPolicy | None = None,
    sim_config: BaselineConfig = BASELINE,
    train_fraction: float = 0.5,
    workers: int | None = None,
) -> list[SensitivityPoint]:
    """Sweep one workload parameter and measure the speculation ratios.

    This is the engine behind :meth:`repro.api.Session.sensitivity`.

    Args:
        parameter: A :class:`GeneratorConfig` field name.
        values: Values to sweep (each produces a fresh workload with
            the same seed, so only the swept knob differs).
        base_config: Starting configuration (default: a small test
            workload).
        policy: Speculation policy (default: the baseline threshold
            policy at the sim config's threshold).
        sim_config: Simulation parameters.
        train_fraction: Fraction of each trace used to estimate P/P*.
        workers: Shard the swept values across this many processes (see
            :func:`repro.perf.parallel.parallel_map`); each value is an
            independent generate-estimate-replay pipeline, so results
            are byte-identical to the serial loop.  ``None`` or ``1``
            stays serial.

    Raises:
        SimulationError: On an unknown parameter name or empty values.
    """
    if not values:
        raise SimulationError("values must be non-empty")
    base_config = base_config or GeneratorConfig(
        seed=0, n_pages=100, n_clients=100, n_sessions=800, duration_days=20
    )
    if parameter not in {f.name for f in dataclasses.fields(base_config)}:
        raise SimulationError(
            f"unknown GeneratorConfig field {parameter!r}"
        )
    policy = policy or ThresholdPolicy(
        threshold=sim_config.threshold, max_size=sim_config.max_size
    )

    def point(value: object) -> SensitivityPoint:
        config = dataclasses.replace(base_config, **{parameter: value})
        trace = SyntheticTraceGenerator(config).generate()
        train_days = trace.duration / 86_400.0 * train_fraction
        experiment = Experiment(trace, sim_config, train_days=train_days)
        ratios, __ = experiment.evaluate(policy)
        return SensitivityPoint(value=value, ratios=ratios, n_requests=len(trace))

    return parallel_map(point, values, workers=workers or 1)

"""High-level API: the planner facade, experiment sweeps, and report rendering.

* :mod:`repro.core.planner` — :class:`DisseminationPlanner`, the
  facade for the dissemination protocol.
* :mod:`repro.core.experiment` — train/test preparation, threshold
  sweeps, and traffic-level interpolation used by the benchmarks.
* :mod:`repro.core.reporting` — plain-text tables and series for the
  benchmark harness output.
* :mod:`repro.core.sampling` — ratio estimation from client-sampled
  replays, and the ``repro sample --check`` validation gate.
"""

from .planner import DisseminationPlan, DisseminationPlanner
from .experiment import (
    Experiment,
    SweepPoint,
    evaluate_thresholds,
    interpolate_at_traffic,
    train_test_split,
)
from .reporting import format_series, format_table
from .sensitivity import SensitivityPoint, sweep_workload
from .combined import CombinedProtocolSimulator, CombinedResult
from .sampling import (
    client_contributions,
    estimate_ratios,
    execute_sample_check,
    ht_ratio_estimates,
    sample_check_workload,
)

__all__ = [
    "DisseminationPlanner",
    "DisseminationPlan",
    "Experiment",
    "SweepPoint",
    "train_test_split",
    "evaluate_thresholds",
    "interpolate_at_traffic",
    "format_table",
    "format_series",
    "SensitivityPoint",
    "sweep_workload",
    "CombinedProtocolSimulator",
    "CombinedResult",
    "client_contributions",
    "estimate_ratios",
    "ht_ratio_estimates",
    "execute_sample_check",
    "sample_check_workload",
]

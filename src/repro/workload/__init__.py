"""Synthetic workload generation calibrated to the paper's traces.

The paper's evaluation is driven by HTTP logs of ``cs-www.bu.edu``
(Jan-Mar 1995).  Those logs are not available, so this subpackage builds
the closest synthetic equivalent:

* :mod:`repro.workload.distributions` — bounded Zipf popularity,
  lognormal-body/Pareto-tail document sizes, exponential gaps.
* :mod:`repro.workload.sitegraph` — a synthetic web site: pages with
  embedded objects (embedding dependencies, followed with probability 1)
  and hyperlinks (traversal dependencies, followed uniformly among a
  page's anchors — producing the 1/k peaks of the paper's Figure 4).
* :mod:`repro.workload.clients` — a client population with geography
  (used by the topology layer) and skewed per-client activity.
* :mod:`repro.workload.updates` — per-class document update (mutation)
  processes matching the paper's measured update rates.
* :mod:`repro.workload.generator` — the trace generator proper.
* :mod:`repro.workload.seeds` — per-session ``SeedSequence`` states,
  derived a block of sessions at a time.
* :mod:`repro.workload.draws` — numpy's ``Generator`` draws for a block
  of per-session PCG64 streams at once, bit for bit.
* :mod:`repro.workload.calibration` — the paper-reported target
  statistics and checks that a generated trace matches them.
"""

from .distributions import (
    BoundedZipf,
    HeavyTailedSizes,
    exponential_gap,
)
from .sitegraph import Page, SiteGraph
from .clients import ClientPopulation
from .updates import UpdateProcess, UpdateEvent
from .generator import GeneratorConfig, SyntheticTraceGenerator
from .calibration import PAPER_TARGETS, CalibrationCheck, check_calibration
from .presets import preset, preset_names
from .fit import FittedWorkload, fit_generator_config

__all__ = [
    "BoundedZipf",
    "HeavyTailedSizes",
    "exponential_gap",
    "Page",
    "SiteGraph",
    "ClientPopulation",
    "UpdateProcess",
    "UpdateEvent",
    "GeneratorConfig",
    "SyntheticTraceGenerator",
    "PAPER_TARGETS",
    "CalibrationCheck",
    "check_calibration",
    "preset",
    "preset_names",
    "FittedWorkload",
    "fit_generator_config",
]

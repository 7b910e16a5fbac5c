"""repro — reproduction of Bestavros (ICDE 1996).

Speculative data dissemination and service to reduce server load,
network traffic and service time in distributed information systems.

Public API highlights:

* :class:`repro.config.BaselineConfig` — the paper's baseline parameters.
* :mod:`repro.trace` — trace records, CLF parsing, cleaning, sessions.
* :mod:`repro.workload` — the calibrated synthetic trace generator.
* :mod:`repro.topology` — routing trees, proxy placement.
* :mod:`repro.popularity` — popularity profiles and the exponential model.
* :mod:`repro.dissemination` — optimal storage allocation + simulator.
* :mod:`repro.speculation` — P/P* dependency model, policies, simulator.
* :mod:`repro.core` — high-level facades and experiment sweeps.
"""

from .config import BASELINE, BaselineConfig
from .errors import (
    AllocationError,
    CalibrationError,
    DependencyModelError,
    PolicyError,
    ReproError,
    RuntimeProtocolError,
    SimulationError,
    TopologyError,
    TraceFormatError,
    TransportError,
)

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "BaselineConfig",
    "ReproError",
    "TraceFormatError",
    "CalibrationError",
    "TopologyError",
    "AllocationError",
    "DependencyModelError",
    "SimulationError",
    "RuntimeProtocolError",
    "TransportError",
    "PolicyError",
    "__version__",
]

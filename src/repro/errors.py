"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting genuine bugs (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TraceFormatError(ReproError):
    """A trace line or record could not be parsed or is internally invalid."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CalibrationError(ReproError):
    """A synthetic workload failed to meet a calibration target."""


class TopologyError(ReproError, ValueError):
    """A routing tree or cluster definition is malformed or queried badly.

    Also subclasses :class:`ValueError` so callers probing a tree with
    unvalidated node ids (e.g. ``hops_from`` / ``subtree_leaves`` on an
    unknown id) can catch the standard exception without importing the
    library hierarchy.
    """


class AllocationError(ReproError):
    """Storage allocation inputs are infeasible or inconsistent."""


class DependencyModelError(ReproError):
    """The P / P* dependency model was queried or built incorrectly."""


class SimulationError(ReproError):
    """A trace-driven simulation was configured or driven incorrectly."""


class RuntimeProtocolError(SimulationError):
    """A live runtime peer violated the serving protocol.

    Raised when a node receives a malformed or out-of-contract message
    (unknown kind, missing fields, oversized frame) or when the live
    system's behaviour diverges from its batch reference.  Subclasses
    :class:`SimulationError` so existing broad handlers still catch it,
    while the CLI maps it to a distinct exit code.
    """


class TransportError(SimulationError):
    """A message could not be delivered or timed out in flight.

    Covers both the simulated in-memory network (dropped frames,
    per-request timeouts) and the real TCP transport
    (connection failures, truncated frames).  Distinct from
    :class:`RuntimeProtocolError`: the peer behaved correctly but the
    network did not.
    """


class PolicyError(ReproError):
    """A speculation policy received invalid parameters."""


class PerfRegressionError(ReproError):
    """A benchmark run regressed past the committed baseline's gate.

    Raised by :mod:`repro.perf.bench` when a measured median slows down
    beyond the allowed margin on the same machine, or when a sparse/dict
    speedup ratio falls below its floor.  The CLI maps it to a distinct
    exit code so CI can tell a perf regression from a correctness
    failure.
    """

"""The paper's four evaluation metrics (section 3.2).

All four are ratios of a speculation run against a no-speculation run
over the same trace and cache model:

* **Bandwidth ratio** — bytes communicated with / without speculation
  (> 1: speculation buys its gains with extra traffic).
* **Server load ratio** — requests hitting the server with / without.
* **Service time ratio** — total retrieval latency with / without.
* **Miss rate ratio** — client byte miss rate with / without.

:func:`ratios_from_totals` is the one place that turns a run's five
totals into these ratios, zero rules included; every engine (batch
replay, combined replay, live counters, the sampling bootstrap) calls
it through a thin adaptor for its own shape of totals.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

from ..errors import SimulationError
from ..trace.sampling import CONTRIBUTION_COLUMNS, RATIO_NAMES


@dataclass(frozen=True)
class SpeculationMetrics:
    """Raw totals from one simulation run.

    Attributes:
        bytes_sent: Total bytes communicated server → clients, demand
            and speculative together.
        server_requests: Requests that reached the server.
        service_time: Total retrieval latency in cost units
            (ServCost per server round trip + CommCost per demand byte).
        miss_bytes: Bytes the client had to fetch (not in its cache).
        accessed_bytes: Bytes of all client accesses (hit or miss).
        speculated_documents: Documents pushed speculatively.
        speculated_bytes: Bytes pushed speculatively.
        wasted_bytes: Speculated bytes never used before being purged.
    """

    bytes_sent: float
    server_requests: int
    service_time: float
    miss_bytes: float
    accessed_bytes: float
    speculated_documents: int = 0
    speculated_bytes: float = 0.0
    wasted_bytes: float = 0.0

    def __post_init__(self) -> None:
        numbers = (
            self.bytes_sent,
            self.server_requests,
            self.service_time,
            self.miss_bytes,
            self.accessed_bytes,
            self.speculated_documents,
            self.speculated_bytes,
            self.wasted_bytes,
        )
        if any(value < 0 for value in numbers):
            raise SimulationError("metrics must be non-negative")

    @property
    def miss_rate(self) -> float:
        """Byte miss rate: bytes not found in cache over bytes accessed."""
        return _byte_miss_rate(self.miss_bytes, self.accessed_bytes)


@dataclass(frozen=True)
class SpeculationRatios:
    """The four ratios (speculation / baseline), plus conveniences."""

    bandwidth_ratio: float
    server_load_ratio: float
    service_time_ratio: float
    miss_rate_ratio: float

    @property
    def traffic_increase(self) -> float:
        """Extra traffic bought: ``bandwidth_ratio − 1`` (≥ 0 usually)."""
        return self.bandwidth_ratio - 1.0

    @property
    def server_load_reduction(self) -> float:
        return 1.0 - self.server_load_ratio

    @property
    def service_time_reduction(self) -> float:
        return 1.0 - self.service_time_ratio

    @property
    def miss_rate_reduction(self) -> float:
        return 1.0 - self.miss_rate_ratio

    def by_name(self) -> dict[str, float]:
        """The four ratios keyed by :data:`~repro.trace.sampling.RATIO_NAMES`."""
        return dict(zip(RATIO_NAMES, astuple(self)))

    def max_gap(self, other: SpeculationRatios) -> float:
        """Largest relative gap of ``other`` from these reference ratios.

        Per ratio: 0 when the two values are equal (``inf == inf``
        included); ``inf`` when they differ and either is not finite
        (NaN included, so a NaN never passes a ``<= tolerance`` gate);
        otherwise ``|other − reference| / |reference|``, over 1 when
        the reference is 0.
        """
        return max(
            _relative_gap(reference, value)
            for reference, value in zip(astuple(self), astuple(other))
        )

    def format(self) -> str:
        """One-line human-readable rendering of the four ratios."""
        return (
            f"traffic {self.traffic_increase:+.1%}  "
            f"load -{self.server_load_reduction:.1%}  "
            f"time -{self.service_time_reduction:.1%}  "
            f"miss -{self.miss_rate_reduction:.1%}"
        )


def _relative_gap(reference: float, value: float) -> float:
    if value == reference:
        return 0.0
    if not (math.isfinite(reference) and math.isfinite(value)):
        return math.inf
    return abs(value - reference) / (abs(reference) if reference else 1.0)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator == 0:
        return 1.0 if numerator == 0 else math.inf
    return numerator / denominator


def _byte_miss_rate(miss_bytes: float, accessed_bytes: float) -> float:
    return miss_bytes / accessed_bytes if accessed_bytes else 0.0


def ratios_from_totals(
    speculation: Sequence[float], baseline: Sequence[float]
) -> SpeculationRatios:
    """The paper's four ratios from two runs' five totals.

    Each side is ``(traffic, server_requests, service_time,
    miss_bytes, accessed_bytes)``, ordered like
    :data:`~repro.trace.sampling.CONTRIBUTION_COLUMNS`.  The zero rules:
    ``x/0`` is ``inf``, ``0/0`` is 1, and a run that accessed nothing
    has a byte miss rate of 0.
    """
    traffic, requests, time, miss, accessed = speculation
    base_traffic, base_requests, base_time, base_miss, base_accessed = baseline
    return SpeculationRatios(
        bandwidth_ratio=_ratio(traffic, base_traffic),
        server_load_ratio=_ratio(requests, base_requests),
        service_time_ratio=_ratio(time, base_time),
        miss_rate_ratio=_ratio(
            _byte_miss_rate(miss, accessed),
            _byte_miss_rate(base_miss, base_accessed),
        ),
    )


def _totals(metrics: SpeculationMetrics) -> list[float]:
    return [getattr(metrics, column) for column in CONTRIBUTION_COLUMNS]


def compare(
    speculation: SpeculationMetrics, baseline: SpeculationMetrics
) -> SpeculationRatios:
    """Compute the four ratios of a speculation run over its baseline."""
    return ratios_from_totals(_totals(speculation), _totals(baseline))

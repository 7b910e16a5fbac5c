"""Self-tuning speculation under a bandwidth budget.

The paper reads its results through budgets — "if only 3% extra
bandwidth is tolerable, then MaxSize = 15KB …" — but its policy keeps
`T_p` fixed, leaving the operator to find the threshold matching a
budget by sweeping.  :class:`AdaptiveBudgetPolicy` closes the loop: it
tracks the ratio of speculative to demand bytes it generates and steers
its threshold multiplicatively toward a target traffic increase, so the
operator states the budget directly.

The control signal matters: a pushed document that the client goes on
to use is bandwidth-*neutral* (it replaces the demand fetch it
predicted), so raw pushed bytes wildly overstate the net traffic cost.
The server-side estimate of net cost is the **expected wasted bytes**
``(1 − p*) × size`` per push — a push with probability ``p*`` is used
with frequency ``p*`` — and that is what the controller steers on, so
the target maps directly onto the paper's Figure-6 x-axis.

The controller is deliberately simple (multiplicative
increase/decrease with clamping): thresholds move a fixed relative step
each decision, so convergence is robust to workload shifts at the cost
of a small steady-state oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PolicyError
from ..trace.records import Document
from .dependency import DependencyModel
from .policies import Candidate, ThresholdPolicy


@dataclass
class AdaptiveBudgetPolicy:
    """Threshold policy that steers itself toward a traffic budget.

    Attributes:
        target_traffic_increase: Desired speculative-to-demand byte
            ratio (e.g. ``0.05`` = spend 5% extra bandwidth).
        initial_threshold: Starting ``T_p``.
        adjust_rate: Relative threshold step per decision (e.g. 0.02 =
            2% up or down).
        min_threshold: Floor below which the threshold never falls.
        max_size: MaxSize cap applied to candidates.
        use_closure: Rank by ``P*`` (default) or direct ``P``.
        warmup_bytes: Demand bytes to observe before steering begins
            (avoids wild swings from the first few requests).
        window_bytes: Size of the sliding byte window the observed
            ratio is measured over; early history is rescaled away so
            the controller tracks the *current* rate rather than
            carrying start-up transients forever.
    """

    target_traffic_increase: float
    initial_threshold: float = 0.5
    adjust_rate: float = 0.02
    min_threshold: float = 0.02
    max_size: float = math.inf
    use_closure: bool = True
    warmup_bytes: float = 100_000.0
    window_bytes: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.target_traffic_increase < 0:
            raise PolicyError("target_traffic_increase must be >= 0")
        if not 0.0 < self.initial_threshold <= 1.0:
            raise PolicyError("initial_threshold must be in (0, 1]")
        if not 0.0 < self.adjust_rate < 1.0:
            raise PolicyError("adjust_rate must be in (0, 1)")
        if not 0.0 < self.min_threshold <= 1.0:
            raise PolicyError("min_threshold must be in (0, 1]")
        if self.max_size <= 0:
            raise PolicyError("max_size must be positive")
        if self.warmup_bytes < 0:
            raise PolicyError("warmup_bytes must be non-negative")
        if self.window_bytes <= 0:
            raise PolicyError("window_bytes must be positive")
        self._threshold = self.initial_threshold
        # Fractional by design: both totals decay by a float scale when
        # the observation window is renormalised (see observe()).
        self._demand_bytes = 0.0  # repro-lint: disable=N003
        self._speculative_bytes = 0.0  # repro-lint: disable=N003

    @property
    def threshold(self) -> float:
        """The threshold currently in force."""
        return self._threshold

    @property
    def observed_traffic_increase(self) -> float:
        """Expected-wasted-to-demand byte ratio over the window.

        This is the server's estimate of the *net* traffic increase:
        pushes weighted by their probability of going unused.
        """
        if self._demand_bytes <= 0:
            return 0.0
        return self._speculative_bytes / self._demand_bytes

    def _steer(self) -> None:
        if self._demand_bytes < self.warmup_bytes:
            return
        observed = self.observed_traffic_increase
        if observed > self.target_traffic_increase:
            self._threshold = min(1.0, self._threshold * (1 + self.adjust_rate))
        else:
            self._threshold = max(
                self.min_threshold, self._threshold / (1 + self.adjust_rate)
            )

    def select(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
    ) -> list[Candidate]:
        """Speculate under the current threshold, then steer it."""
        document = catalog.get(requested)
        if document is not None:
            self._demand_bytes += document.size
        # Slide the window: rescale history so the ratio reflects the
        # most recent ``window_bytes`` of demand.
        if self._demand_bytes > self.window_bytes:
            scale = self.window_bytes / self._demand_bytes
            self._demand_bytes *= scale
            self._speculative_bytes *= scale

        inner = ThresholdPolicy(
            threshold=self._threshold,
            max_size=self.max_size,
            use_closure=self.use_closure,
        )
        chosen = inner.select(requested, model, catalog)
        for candidate in chosen:
            # Expected wasted bytes: a push used with frequency p only
            # costs net bandwidth when it goes unused.  (A candidate is
            # always a catalog member.)
            size = catalog[candidate.doc_id].size
            self._speculative_bytes += (1.0 - candidate.probability) * size
        self._steer()
        return chosen

"""Resilience primitives: backoff, circuit breaking, duplicate filtering.

The live runtime's failure paths all funnel through three small,
seed-deterministic mechanisms:

* :class:`BackoffPolicy` — exponential backoff with *seeded* jitter for
  retry loops (the load generator's request retries and the proxy's
  upstream forwards).  The caller owns the RNG, so one policy object
  can serve many independent, reproducible retry streams.
* :class:`CircuitBreaker` — a per-upstream closed → open → half-open
  breaker.  After ``failure_threshold`` consecutive transport failures
  the breaker opens and callers fast-fail instead of burning a full
  timeout per request; after ``reset_timeout`` seconds one probe is
  let through (half-open) and its outcome decides between closing and
  re-opening.  Time comes from ``loop.time()`` so the breaker works
  identically under the virtual clock and on real sockets.
* :class:`DuplicateFilter` — a bounded LRU of demand keys giving
  servers at-least-once *accounting*: a retried request whose first
  reply was lost in flight is served again (the client still needs the
  bytes) but counted as ``duplicate_service`` rather than fresh load,
  so live ratios stay comparable with the exactly-once batch replay.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import SimulationError

#: Breaker state names, as used in metrics counter suffixes.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with multiplicative seeded jitter.

    Attributes:
        base: Delay before the first retry, in seconds.
        factor: Multiplier applied per subsequent attempt.
        max_delay: Upper clamp on the raw (un-jittered) delay.
        jitter: Fraction of the delay that is randomised away
            (0.5 → the actual delay is uniform in [0.5·d, d]).
    """

    base: float = 0.25
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1.0 or self.max_delay < 0:
            raise SimulationError(
                "backoff needs base >= 0, factor >= 1 and max_delay >= 0"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError("backoff jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """The sleep before retrying after failed attempt ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base * self.factor ** max(0, attempt))
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * float(rng.random()))


def name_digest(name: str) -> int:
    """A name as a 31-bit integer, stable across runs and processes, for
    seeding one stream per named actor or link."""
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) % (2**31)
    return digest


def retry_rng(seed: int, name: str) -> np.random.Generator:
    """A per-actor jitter RNG, stable across runs for the same seed+name."""
    return np.random.default_rng((seed, name_digest(name)))


class CircuitBreaker:
    """A closed/open/half-open breaker for one upstream dependency.

    Args:
        failure_threshold: Consecutive failures that open the breaker.
        reset_timeout: Seconds the breaker stays open before letting a
            single half-open probe through.
        clock: Time source; defaults to the running loop's ``time()``
            (virtual under :func:`~repro.runtime.clock.run_virtual`).
        on_transition: Called with ``(old_state, new_state)`` on every
            state change — wire metrics/event recording here.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 4,
        reset_timeout: float = 60.0,
        clock: Callable[[], float] | None = None,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise SimulationError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise SimulationError("reset_timeout must be positive")
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._clock = clock
        self._on_transition = on_transition
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half-open``."""
        return self._state

    def watch(self, hook: Callable[[str, str], None]) -> None:
        """Replace the transition callback (owners wire their metrics here)."""
        self._on_transition = hook

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    def _transition(self, new_state: str) -> None:
        if new_state == self._state:
            return
        old_state = self._state
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)

    def allow(self) -> bool:
        """Whether a call may be issued right now.

        Open breakers reject until ``reset_timeout`` has elapsed, then
        admit exactly one probe (half-open).  A rejected caller should
        fail fast with a transport error instead of waiting out a
        timeout.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if self._now() - self._opened_at < self._reset_timeout:
                return False
            self._transition(BREAKER_HALF_OPEN)
            self._probe_in_flight = True
            return True
        # half-open: one probe at a time
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        """The upstream answered: close from any state."""
        self._failures = 0
        self._probe_in_flight = False
        self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A transport failure: count toward opening, or re-open a probe."""
        self._probe_in_flight = False
        if self._state == BREAKER_HALF_OPEN:
            self._opened_at = self._now()
            self._transition(BREAKER_OPEN)
            return
        if self._state == BREAKER_OPEN:
            return  # a straggler from before the breaker opened
        self._failures += 1
        if self._failures >= self._failure_threshold:
            self._opened_at = self._now()
            self._transition(BREAKER_OPEN)


class DuplicateFilter:
    """Bounded LRU set of demand keys for at-least-once accounting.

    Retries carry the same *demand key* (one logical request) under
    fresh correlation ids; a server uses this filter to serve the
    retry while counting it as duplicate service instead of new load.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise SimulationError("duplicate filter capacity must be >= 1")
        self._capacity = capacity
        self._seen: OrderedDict[str, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, key: str) -> bool:
        """Record ``key``; True when it was already present (a duplicate)."""
        if key in self._seen:
            self._seen.move_to_end(key)
            return True
        self._seen[key] = None
        if len(self._seen) > self._capacity:
            self._seen.popitem(last=False)
        return False


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BackoffPolicy",
    "CircuitBreaker",
    "DuplicateFilter",
    "name_digest",
    "retry_rng",
]

"""Deterministic virtual time for asyncio event loops.

The runtime's in-memory transport must be **replayable**: the same seed
and workload have to produce the same metrics snapshot, and a simulated
minute must cost no wall-clock time.  Both follow from one substitution:
instead of letting the selector block until the next timer is due, the
loop's selector is patched to *jump* virtual time forward by exactly the
timeout it was asked to block for, and ``loop.time()`` is patched to
read that virtual clock.  Every ``asyncio.sleep``, ``call_later`` and
``wait_for`` then runs against simulated time, in the deterministic
order of the loop's timer heap (ties broken by its monotone sequence
counter), and a 90-day workload replays in milliseconds.

A loop turn costs no kernel call: while the selector holds nothing but
the loop's own wake-up pipe — the only state a virtual-clock run is
allowed to be in — the patched ``select`` returns without polling.

Real-I/O transports (the TCP transport) must **not** run under a
virtual clock — a patched selector never waits for sockets; use a
normal ``asyncio.run`` for those.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from collections.abc import Coroutine
from typing import Any, TypeVar

import numpy as np

from ..errors import RuntimeProtocolError, SimulationError

T = TypeVar("T")


class _RankedTimerHandle(asyncio.TimerHandle):
    """Timer handle whose heap order breaks ties by a seeded rank.

    The stock loop resolves timers scheduled for the *same* deadline by
    an unstable heap order that happens to follow insertion sequence.
    Any code whose results depend on that order is racy — it would
    break under a different-but-legal scheduler.  The race gate
    (``repro racecheck``) shuffles exactly those ties: each handle gets
    a seeded random rank consulted only when two deadlines are equal,
    so every perturbation is a schedule a conforming event loop could
    have produced.
    """

    __slots__ = ("_tie_rank",)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _RankedTimerHandle):
            return (self._when, self._tie_rank) < (other._when, other._tie_rank)
        when = getattr(other, "_when", None)
        if when is None:
            return NotImplemented
        return self._when < when

    def __le__(self, other: object) -> bool:
        less = self.__lt__(other)
        if less is NotImplemented:
            return NotImplemented
        return less or self._when == getattr(other, "_when", None)


class VirtualClock:
    """A manually-advanced clock that can drive a selector event loop.

    Args:
        start: Initial virtual time in seconds.
        tie_seed: When not ``None``, same-deadline timers fire in a
            seeded random order instead of insertion order (see
            :class:`_RankedTimerHandle`).  Used by ``repro racecheck``
            to prove results do not depend on tie-break order.
    """

    def __init__(self, start: float = 0.0, tie_seed: int | None = None):
        self._now = float(start)
        self._tie_seed = tie_seed

    def time(self) -> float:
        """Current virtual time in seconds (monotone, starts at ``start``)."""
        return self._now

    def install(self, loop: asyncio.AbstractEventLoop) -> None:
        """Patch a selector event loop to run on virtual time.

        The loop's ``time()`` is replaced by this clock and its
        selector's ``select(timeout)`` is replaced by one that advances
        the clock by ``timeout`` and returns at once — so timers fire
        in order at zero wall cost.  The kernel is polled (without
        blocking) only if something beyond the loop's own wake-up pipe
        has been registered with the selector.

        Raises:
            SimulationError: If the loop is not selector-based.
            RuntimeProtocolError: (later, while running) if every task
                blocks with no timer scheduled — a virtual-time
                deadlock, surfaced instead of spinning forever.
        """
        selector: selectors.BaseSelector | None = getattr(loop, "_selector", None)
        if selector is None:
            raise SimulationError(
                "virtual clock needs a selector event loop "
                f"(got {type(loop).__name__})"
            )
        original_select = selector.select
        registered = selector.get_map()

        def virtual_select(
            timeout: float | None = None,
        ) -> list[tuple[selectors.SelectorKey, int]]:
            if timeout is None:
                # No ready callbacks and no timers: nothing can ever
                # advance the clock again.
                raise RuntimeProtocolError(
                    "virtual-clock deadlock: all tasks are blocked and "
                    "no timer is scheduled"
                )
            if timeout > 0:
                self._now += timeout
            if len(registered) <= 1:
                # Only the loop's self-pipe: no I/O can be ready, and
                # cross-thread wake-ups land in the ready queue anyway.
                return []
            return original_select(0)

        selector.select = virtual_select  # type: ignore[method-assign]
        loop.time = self.time  # type: ignore[method-assign]
        if self._tie_seed is not None:
            self._install_tie_shuffle(loop)

    def _install_tie_shuffle(self, loop: asyncio.AbstractEventLoop) -> None:
        """Replace ``loop.call_at`` so equal-deadline timers get seeded
        tie-break ranks.  ``call_later`` delegates to ``call_at``, so
        one patch covers both; ready-queue (``call_soon``) FIFO order
        is untouched because it reflects causal program order."""
        rng = np.random.default_rng(self._tie_seed)

        def ranked_call_at(
            when: float,
            callback: Any,
            *args: Any,
            context: Any = None,
        ) -> asyncio.TimerHandle:
            timer = _RankedTimerHandle(when, callback, args, loop, context)
            timer._tie_rank = float(rng.random())
            # The loop rebuilds ``_scheduled`` when compacting
            # cancelled timers, so fetch it per call.
            heapq.heappush(
                loop._scheduled, timer  # type: ignore[attr-defined]
            )
            timer._scheduled = True
            return timer

        loop.call_at = ranked_call_at  # type: ignore[method-assign]


def run_virtual(
    coro: Coroutine[Any, Any, T],
    *,
    start: float = 0.0,
    schedule_seed: int | None = None,
) -> T:
    """Run a coroutine to completion on a fresh virtual-clock loop.

    The drop-in replacement for ``asyncio.run`` used by tests, the
    benchmarks and ``repro loadtest``: all sleeps and timeouts resolve
    against virtual time, so runs are fast and bit-reproducible.

    Args:
        coro: The coroutine to drive.
        start: Initial virtual time.
        schedule_seed: When not ``None``, perturb the firing order of
            same-deadline timers with this seed (legal-schedule
            shuffling for the race gate; results must not change).

    Returns:
        Whatever the coroutine returns.
    """
    clock = VirtualClock(start, tie_seed=schedule_seed)
    loop = asyncio.new_event_loop()
    try:
        clock.install(loop)
        return loop.run_until_complete(coro)
    finally:
        try:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            loop.close()

"""Counters, histograms and windowed time-series on one registry.

This module owns the metric primitives that used to live in
``repro.runtime.metrics`` (which still re-exports them): monotone
:class:`Counter`, exact-quantile :class:`Histogram` and the
creates-on-first-use :class:`MetricsRegistry` with its canonical JSON
snapshot.  On top of those it adds the observability layer's windowed
view: a :class:`TimeSeriesRecorder` that samples *cumulative* counter
values into fixed-width time windows so the paper's four ratios become
curves over the run instead of end-of-run scalars.

Cumulative (Prometheus-style) sampling is deliberate: each window
stores the counter's value *after* its last increment in that window,
so the final sample of every series equals the live counter exactly —
no re-summation, no float re-association — which is what the
time-series↔ratios parity test asserts bit-for-bit.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Sequence

from ..speculation.metrics import SpeculationRatios, ratios_from_totals
from .trace import Tracer

#: A counter's exact accumulated state: the integer part plus the
#: non-overlapping float partials (see :meth:`Counter.state`).
CounterState = tuple[int, tuple[float, ...]]


class Counter:
    """A named monotone counter (int or float increments).

    Integer increments accumulate exactly in an ``int``; float
    increments accumulate as Shewchuk partials (the ``math.fsum``
    algorithm, maintained incrementally), so :attr:`value` is the
    *correctly rounded* sum of every increment — independent of
    increment order.  That order-independence is what lets the sharded
    load generator merge per-shard counters into values bit-identical
    to a single-process run: the exact states add, and rounding happens
    once at the end.
    """

    __slots__ = ("_int", "_partials")

    def __init__(self) -> None:
        self._int: int = 0
        self._partials: list[float] = []

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative to stay monotone)."""
        if isinstance(amount, int):
            self._int += amount
        else:
            self._add_float(float(amount))

    def _add_float(self, x: float) -> None:
        # One round of Shewchuk's algorithm: fold ``x`` into the
        # non-overlapping partials without losing a single bit.
        partials = self._partials
        count = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[count] = low
                count += 1
            x = high
        partials[count:] = [x]

    @property
    def value(self) -> float:
        """The correctly rounded sum of every increment.

        Stays an ``int`` while only integer increments have been seen,
        so integer counters keep rendering as integers in snapshots.
        """
        if not self._partials:
            return self._int
        return math.fsum([self._int, *self._partials])

    def state(self) -> CounterState:
        """The exact accumulated state, for cross-process merging."""
        return (self._int, tuple(self._partials))

    @classmethod
    def from_states(cls, states: Iterable[CounterState]) -> "Counter":
        """Rebuild one counter from many exact states.

        Because each state is exact, the merged counter's
        :attr:`value` equals what a single counter fed every original
        increment (in any order) would report — bit for bit.
        """
        merged = cls()
        for int_part, partials in states:
            merged._int += int_part
            for partial in partials:
                merged._add_float(partial)
        return merged


class Histogram:
    """Stores raw observations; quantiles are computed on demand.

    Exact rather than bucketed: live runs are bounded by the workload
    trace, so storing every observation is affordable and keeps p50/p99
    deterministic to the last bit.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile; 0.0 when empty."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def extend(self, values: Iterable[float]) -> None:
        """Bulk-record observations (shard merging)."""
        self._values.extend(values)

    @property
    def values(self) -> tuple[float, ...]:
        """Every raw observation, in recording order."""
        return tuple(self._values)

    def summary(self) -> dict[str, float]:
        """Count, mean and the standard quantiles, rounded for stability.

        The mean uses ``math.fsum``, so the summary is independent of
        observation order — merged shard histograms summarise exactly
        like a single-process histogram over the same observations.
        """
        if not self._values:
            return {"count": 0}
        total = math.fsum(self._values)
        return {
            "count": len(self._values),
            "mean": round(total / len(self._values), 9),
            "p50": round(self.quantile(0.50), 9),
            "p90": round(self.quantile(0.90), 9),
            "p99": round(self.quantile(0.99), 9),
            "max": round(max(self._values), 9),
        }


@dataclass(frozen=True)
class TimeSample:
    """One cumulative sample: the series value at the end of a window."""

    window_start: float
    value: float


class TimeSeriesRecorder:
    """Rolls cumulative counter values into fixed-width time windows.

    Args:
        window: Window width in (virtual) seconds.
        clock: Returns the current time for :meth:`sample`; live code
            passes the event loop's clock.  Batch simulators instead
            call :meth:`sample_at` with explicit trace timestamps.
        max_windows: Per-series ring bound — oldest windows drop first
            so unbounded runs stay bounded in memory.
    """

    __slots__ = ("_clock", "_series", "max_windows", "window")

    def __init__(
        self,
        *,
        window: float = 3600.0,
        clock: Callable[[], float] | None = None,
        max_windows: int = 4096,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.window = float(window)
        self.max_windows = max(1, int(max_windows))
        self._clock = clock
        self._series: dict[str, deque[list[float]]] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach (or replace) the clock used by :meth:`sample`."""
        self._clock = clock

    def sample(self, name: str, value: float) -> None:
        """Record the series' cumulative value at the clock's *now*."""
        clock = self._clock
        self.sample_at(clock() if clock is not None else 0.0, name, value)

    def sample_at(self, time: float, name: str, value: float) -> None:
        """Record the series' cumulative value at an explicit time."""
        bucket = float(int(time // self.window))
        series = self._series.get(name)
        if series is None:
            series = deque(maxlen=self.max_windows)
            self._series[name] = series
        if series and series[-1][0] == bucket:
            series[-1][1] = value
        else:
            series.append([bucket, value])

    @property
    def names(self) -> tuple[str, ...]:
        """The recorded series names, sorted."""
        return tuple(sorted(self._series))

    def series(self, name: str) -> tuple[TimeSample, ...]:
        """The windowed samples for one series, oldest first."""
        return tuple(
            TimeSample(window_start=bucket * self.window, value=value)
            for bucket, value in self._series.get(name, ())
        )

    def final_values(self) -> dict[str, float]:
        """Last cumulative sample per series.

        Because sampling is cumulative, each entry equals the live
        counter's end-of-run value exactly.
        """
        return {
            name: series[-1][1]
            for name, series in sorted(self._series.items())
            if series
        }

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict rendering: window width plus all series."""
        return {
            "window": self.window,
            "series": {
                name: [
                    [bucket * self.window, value]
                    for bucket, value in series
                ]
                for name, series in sorted(self._series.items())
            },
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Canonical JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


class _RecordedCounter(Counter):
    """A counter that mirrors every post-increment value to a recorder."""

    __slots__ = ("_name", "_recorder")

    def __init__(self, name: str, recorder: TimeSeriesRecorder):
        super().__init__()
        self._name = name
        self._recorder = recorder

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` and sample the new cumulative value."""
        super().inc(amount)
        self._recorder.sample(self._name, self.value)


class _RecordedHistogram(Histogram):
    """A histogram that mirrors cumulative count/sum to a recorder."""

    __slots__ = ("_name", "_recorder", "_total")

    def __init__(self, name: str, recorder: TimeSeriesRecorder):
        super().__init__()
        self._name = name
        self._recorder = recorder
        self._total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation and sample cumulative count and sum."""
        self._values.append(value)
        self._total += value
        recorder = self._recorder
        recorder.sample(self._name + ".count", float(len(self._values)))
        recorder.sample(self._name + ".sum", self._total)


class MetricsRegistry:
    """Creates-on-first-use registry of counters, histograms and events.

    Args:
        recorder: Optional :class:`TimeSeriesRecorder`; when given,
            counters and histograms mirror cumulative values into it.
        tracer: Optional :class:`~repro.obs.trace.Tracer`; when given,
            :meth:`trace_event` records structured events (and is a
            no-op otherwise, so instrumented hot paths stay free).
        clock: Time source for :meth:`trace_event` when the caller does
            not pass an explicit time.
    """

    def __init__(
        self,
        *,
        recorder: TimeSeriesRecorder | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._events: list[tuple[float, str]] = []
        self.recorder = recorder
        self.tracer = tracer
        self._clock = clock

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source used for traces and window sampling."""
        self._clock = clock
        if self.recorder is not None:
            self.recorder.bind_clock(clock)

    def counter(self, name: str) -> Counter:
        """The named counter, created at zero on first use."""
        found = self._counters.get(name)
        if found is None:
            if self.recorder is not None:
                found = _RecordedCounter(name, self.recorder)
            else:
                found = Counter()
            self._counters[name] = found
        return found

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty on first use."""
        found = self._histograms.get(name)
        if found is None:
            if self.recorder is not None:
                found = _RecordedHistogram(name, self.recorder)
            else:
                found = Histogram()
            self._histograms[name] = found
        return found

    def value(self, name: str) -> float:
        """Current value of a counter; 0 if it was never touched."""
        found = self._counters.get(name)
        return found.value if found is not None else 0

    def record_event(self, time: float, name: str) -> None:
        """Append one timestamped event (fault injections, recoveries)."""
        self._events.append((round(float(time), 9), name))

    def trace_event(
        self, kind: str, *, time: float | None = None, **fields: Any
    ) -> None:
        """Record a structured trace event; no-op without a tracer."""
        tracer = self.tracer
        if tracer is None:
            return
        if time is None:
            clock = self._clock
            time = clock() if clock is not None else 0.0
        tracer.event(time, kind, **fields)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict snapshot: sorted counters + histogram summaries.

        The event timeline is included only when non-empty, so clean
        runs keep their historical snapshot shape.
        """
        snapshot: dict[str, Any] = {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }
        if self._events:
            snapshot["events"] = [[time, name] for time, name in self._events]
        return snapshot

    def to_json(self, *, indent: int | None = None) -> str:
        """Canonical JSON rendering — identical runs give identical text."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def export_state(self) -> dict[str, Any]:
        """Exact, picklable state for cross-process merging.

        Unlike :meth:`snapshot` — which rounds (histogram summaries)
        and re-associates (counter values) — this carries every
        counter's exact partials and every histogram's raw
        observations, so :func:`merge_registry_states` can rebuild a
        registry whose snapshot matches a single-process run bit for
        bit.
        """
        return {
            "counters": {
                name: counter.state()
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: list(histogram.values)
                for name, histogram in sorted(self._histograms.items())
            },
            "events": list(self._events),
        }


def merge_registry_states(
    states: Sequence[dict[str, Any]],
    *,
    max_counters: Collection[str] = (),
) -> MetricsRegistry:
    """Rebuild one registry from per-shard :meth:`~MetricsRegistry.export_state` exports.

    Counters merge by summing exact states (bit-identical to a single
    counter that saw every increment); histograms merge by
    concatenating raw observations in shard order (their summaries are
    order-independent); events merge time-sorted.  Counters named in
    ``max_counters`` merge by taking the maximum shard value instead —
    that is how clock-like readings (``run.virtual_seconds``) combine,
    since every shard's virtual clock starts at zero.
    """
    merged = MetricsRegistry()
    counter_names = sorted({name for s in states for name in s["counters"]})
    for name in counter_names:
        shard_states = [
            s["counters"][name] for s in states if name in s["counters"]
        ]
        if name in max_counters:
            peak = max(
                Counter.from_states([state]).value for state in shard_states
            )
            counter = merged.counter(name)
            counter.inc(peak)
        else:
            merged._counters[name] = Counter.from_states(
                (int_part, tuple(partials))
                for int_part, partials in shard_states
            )
    histogram_names = sorted(
        {name for s in states for name in s["histograms"]}
    )
    for name in histogram_names:
        histogram = merged.histogram(name)
        for state in states:
            histogram.extend(state["histograms"].get(name, ()))
    events = sorted(
        (tuple(event) for state in states for event in state["events"]),
    )
    for time, event_name in events:
        merged.record_event(time, event_name)
    return merged


#: The load generator's counters behind the paper's four ratios, in
#: :func:`~repro.speculation.metrics.ratios_from_totals` order.
_RATIO_COUNTERS = (
    "bytes_hops",
    "origin_requests",
    "service_cost",
    "miss_bytes",
    "accessed_bytes",
)


def ratios_from_counters(
    spec: dict[str, float], base: dict[str, float]
) -> SpeculationRatios:
    """The paper's four ratios from two counter mappings.

    Reads the load generator's ``bytes_hops``, ``origin_requests``,
    ``service_cost``, ``miss_bytes`` and ``accessed_bytes`` counters
    (an absent counter reads 0).  Works equally on a live snapshot's
    ``counters`` dict and on :meth:`TimeSeriesRecorder.final_values`.
    """
    return ratios_from_totals(
        [spec.get(name, 0) for name in _RATIO_COUNTERS],
        [base.get(name, 0) for name in _RATIO_COUNTERS],
    )


def ratio_curve(
    spec: TimeSeriesRecorder, base: TimeSeriesRecorder
) -> list[tuple[float, SpeculationRatios]]:
    """Per-window four-ratio curve from two recorders.

    Aligns the two cumulative recordings on the union of their window
    boundaries, carrying each counter's last known value forward, and
    computes the four ratios at every boundary.  The final point equals
    :func:`ratios_from_counters` over the recorders' final values — and
    therefore equals the end-of-run live ratios exactly.
    """
    sides = []
    for recorder in (spec, base):
        samples = {name: recorder.series(name) for name in _RATIO_COUNTERS}
        boundaries = {
            point.window_start
            for series in samples.values()
            for point in series
        }
        sides.append((samples, boundaries))
    timeline = sorted(sides[0][1] | sides[1][1])

    def values_at(
        samples: dict[str, tuple[TimeSample, ...]], when: float
    ) -> dict[str, float]:
        values: dict[str, float] = {}
        for name, series in samples.items():
            current = 0.0
            for point in series:
                if point.window_start > when:
                    break
                current = point.value
            values[name] = current
        return values

    return [
        (
            when,
            ratios_from_counters(
                values_at(sides[0][0], when), values_at(sides[1][0], when)
            ),
        )
        for when in timeline
    ]

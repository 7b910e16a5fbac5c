"""Unified observability: traces, time-series, exporters.

The paper's four ratios (bandwidth, server load, service time, byte
miss rate) are measured in several places — batch replay, the live
runtime, the chaos gate.  ``repro.obs`` is the one layer they all share
for *how the numbers were produced*: structured trace events on the
virtual clock (:mod:`~repro.obs.trace`), windowed time-series that turn
the ratios into curves (:mod:`~repro.obs.timeseries`), and deterministic
JSONL/Prometheus exporters with a provenance manifest
(:mod:`~repro.obs.export`).

Everything is off by default and zero-overhead when off: an
:class:`ObsConfig` with no flags set produces a plain
:class:`MetricsRegistry`, exactly what the runtime used before this
layer existed.  :func:`default_registry` is the single factory every
runtime node uses when no registry is supplied, so traces and metrics
always share one registry per arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .export import config_digest, prometheus_text, run_manifest, trace_jsonl
from .timeseries import (
    Counter,
    CounterState,
    Histogram,
    MetricsRegistry,
    TimeSample,
    TimeSeriesRecorder,
    merge_registry_states,
    ratio_curve,
    ratios_from_counters,
)
from .trace import EVENT_KINDS, TraceEvent, Tracer, events_to_jsonl

__all__ = [
    "EVENT_KINDS",
    "ArmObservations",
    "Counter",
    "CounterState",
    "Histogram",
    "MetricsRegistry",
    "ObsBundle",
    "ObsConfig",
    "RunObservations",
    "TimeSample",
    "TimeSeriesRecorder",
    "TraceEvent",
    "Tracer",
    "config_digest",
    "default_registry",
    "events_to_jsonl",
    "prometheus_text",
    "merge_registry_states",
    "ratio_curve",
    "ratios_from_counters",
    "run_manifest",
    "trace_jsonl",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to observe during a run.

    The default is everything off — the configuration every legacy
    entry point implicitly ran with, with zero overhead on the hot
    paths.

    Attributes:
        trace: Record structured :class:`TraceEvent` values.
        timeseries: Roll counters into per-window cumulative series.
        trace_limit: Trace ring-buffer capacity per arm.
        window: Time-series window width in virtual seconds.
    """

    trace: bool = False
    timeseries: bool = False
    trace_limit: int = 65536
    window: float = 3600.0

    @property
    def enabled(self) -> bool:
        """True when any observation channel is on."""
        return self.trace or self.timeseries

    @classmethod
    def full(cls, *, window: float = 3600.0) -> "ObsConfig":
        """Convenience: tracing and time-series both on."""
        return cls(trace=True, timeseries=True, window=window)


@dataclass
class ObsBundle:
    """Live wiring for one run arm: registry + optional tracer/recorder.

    Attributes:
        registry: The arm's metrics registry (tracer/recorder attached
            when the config enables them).
        tracer: The trace ring, or None when tracing is off.
        recorder: The time-series recorder, or None when off.
    """

    registry: MetricsRegistry
    tracer: Tracer | None = None
    recorder: TimeSeriesRecorder | None = None

    @classmethod
    def from_config(cls, config: ObsConfig | None) -> "ObsBundle":
        """Build the wiring an :class:`ObsConfig` asks for."""
        if config is None or not config.enabled:
            return cls(registry=MetricsRegistry())
        tracer = Tracer(limit=config.trace_limit) if config.trace else None
        recorder = (
            TimeSeriesRecorder(window=config.window)
            if config.timeseries
            else None
        )
        return cls(
            registry=MetricsRegistry(recorder=recorder, tracer=tracer),
            tracer=tracer,
            recorder=recorder,
        )

    def observations(self) -> "ArmObservations":
        """Freeze what was observed into an :class:`ArmObservations`."""
        return ArmObservations(
            trace=self.tracer.events if self.tracer is not None else (),
            dropped=self.tracer.dropped if self.tracer is not None else 0,
            timeseries=self.recorder,
        )


@dataclass(frozen=True)
class ArmObservations:
    """What one run arm (baseline or speculative) observed.

    Attributes:
        trace: The retained trace events, oldest first.
        dropped: Trace events lost to the ring bound.
        timeseries: The arm's recorder, or None when time-series were
            off.
    """

    trace: tuple[TraceEvent, ...] = ()
    dropped: int = 0
    timeseries: TimeSeriesRecorder | None = None

    def trace_jsonl(self) -> str:
        """Deterministic JSONL rendering of the arm's trace."""
        return events_to_jsonl(self.trace)


@dataclass(frozen=True)
class RunObservations:
    """Observability output of one paired run (both arms + provenance).

    Attributes:
        speculative: Observations from the speculative arm.
        baseline: Observations from the baseline arm.
        manifest: Provenance manifest (seed, config digest, git sha).
    """

    speculative: ArmObservations
    baseline: ArmObservations
    manifest: dict[str, Any] = field(default_factory=dict)

    def trace_jsonl(self) -> str:
        """JSONL of the speculative arm's trace (the interesting one)."""
        return self.speculative.trace_jsonl()

    def ratio_curve(self) -> list[tuple[float, Any]]:
        """Per-window four-ratio curve; empty when time-series were off."""
        if (
            self.speculative.timeseries is None
            or self.baseline.timeseries is None
        ):
            return []
        return ratio_curve(
            self.speculative.timeseries, self.baseline.timeseries
        )


def default_registry() -> MetricsRegistry:
    """The single factory for a node's registry when none is supplied.

    Every runtime component (origin, proxy, daemon, load generator)
    funnels through here instead of constructing ``MetricsRegistry()``
    inline, so an observed run can never end up with a node silently
    counting into a registry the trace does not see.
    """
    return MetricsRegistry()

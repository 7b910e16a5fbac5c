"""Structured tracing: spans/events on the virtual clock.

The four end-of-run ratios say *what* speculation and dissemination
cost; a trace says *why* — which request triggered which speculation
decision, which push paid for which proxy hit, which fault forced which
retry.  A :class:`Tracer` records :class:`TraceEvent` values into a
bounded ring buffer (oldest events drop first, with a drop counter, so
an unbounded run cannot exhaust memory) and renders them as a
deterministic JSONL stream: on the virtual clock, the same seed
produces a byte-identical trace, which ``repro trace --smoke`` asserts
in CI.

Zero overhead when disabled: instrumented code paths call
:meth:`~repro.obs.timeseries.MetricsRegistry.trace_event`, which
returns immediately when no tracer is attached — the hot loops never
build event objects they will not keep.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any

#: Event kinds the runtime and the batch simulators emit.  Free-form
#: kinds are allowed; these are the vocabulary the exporters document.
EVENT_KINDS: tuple[str, ...] = (
    "request",       # a demand request was served (client side)
    "speculation",   # the origin decided to push one rider
    "push",          # a dissemination push landed on a proxy
    "dissemination", # the daemon pushed a plan to a proxy
    "fault",         # a scripted fault fired
    "retry",         # a client retried after a transport failure
    "fleet-serve",   # a cache node served a document it held
    "fleet-probe",   # a sibling probe answered (or missed) a node's miss
    "event",         # free-form timeline marker
)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped structured event.

    Attributes:
        time: Virtual-clock seconds (rounded to 9 decimals, the same
            stability contract as the metrics snapshots).
        kind: Event vocabulary entry (see :data:`EVENT_KINDS`).
        fields: Sorted ``(key, value)`` payload pairs — sorted at
            construction so rendering order never depends on call-site
            keyword order.
    """

    time: float
    kind: str
    fields: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict rendering (``t`` and ``kind`` plus the payload)."""
        record: dict[str, Any] = {"t": self.time, "kind": self.kind}
        record.update(self.fields)
        return record


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` values.

    Args:
        limit: Ring capacity; when full the *oldest* events are dropped
            and counted in :attr:`dropped` (the tail of a run is what
            post-mortems need).
    """

    __slots__ = ("_events", "dropped")

    def __init__(self, *, limit: int = 65536):
        self._events: deque[TraceEvent] = deque(maxlen=max(1, int(limit)))
        #: Events discarded because the ring was full.
        self.dropped: int = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._events)

    def event(self, time: float, kind: str, **fields: Any) -> None:
        """Record one event at ``time`` (virtual seconds)."""
        ring = self._events
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(
            TraceEvent(
                time=round(float(time), 9),
                kind=kind,
                fields=tuple(sorted(fields.items())),
            )
        )

    def to_jsonl(self) -> str:
        """Deterministic JSONL rendering, one event per line.

        Identical runs (same seed, same workload, same code) produce
        byte-identical output — keys are sorted and times are rounded,
        so the text is safe to diff or hash in CI.
        """
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self._events
        )


def events_to_jsonl(events: tuple[TraceEvent, ...]) -> str:
    """Render an event tuple (e.g. from a report) as deterministic JSONL."""
    return "\n".join(
        json.dumps(event.to_dict(), sort_keys=True) for event in events
    )

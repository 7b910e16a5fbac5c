"""Scripted, deterministic fault injection for the in-memory network.

A :class:`FaultPlan` is a time-ordered script of fault events (link
partitions, per-link or global drop/latency ramps, node crash +
restart, daemon pauses) expressed in virtual seconds from run start.
A :class:`FaultInjector` executes the plan on the event loop and is
consulted by :class:`~repro.runtime.transport.InMemoryNetwork` on
every frame, so the same seed and plan reproduce the same failures,
frame for frame — chaos runs are as replayable as clean runs.

Semantics:

* **crash** — frames to *and* from the node are dropped until the
  matching ``restart``; registered crash hooks run (a proxy loses its
  holdings), and restart hooks run on recovery (the dissemination
  daemon anti-entropy re-push).
* **partition / heal** — frames between the two named endpoints are
  dropped in both directions.
* **drop_rate** — extra seeded frame-drop probability, globally
  (empty target), per node, or per directed link.
* **latency_add** — extra one-way delay, globally, per node, or per
  directed link (an origin brownout is ``latency_add`` on the origin).
* **pause_daemon / resume_daemon** — gates the dissemination daemon's
  replan loop via its registered pause/resume hooks.

Every applied event is counted (``faults.<action>``) and appended to
the metrics registry's event timeline, so a chaos run's snapshot
carries its own fault history.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import SimulationError
from .metrics import MetricsRegistry

#: Every action a fault event may carry.
ACTIONS = frozenset(
    {
        "crash",
        "restart",
        "partition",
        "heal",
        "drop_rate",
        "latency_add",
        "pause_daemon",
        "resume_daemon",
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    Attributes:
        at: Virtual seconds after run start when the event fires.
        action: One of :data:`ACTIONS`.
        target: ``()`` for global scope, ``(node,)`` for one endpoint,
            ``(src, dst)`` for one directed link (``partition`` treats
            the pair as bidirectional).
        value: Action parameter (drop probability or extra seconds).
    """

    at: float
    action: str
    target: tuple[str, ...] = ()
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError("fault event time must be non-negative")
        if self.action not in ACTIONS:
            raise SimulationError(f"unknown fault action {self.action!r}")
        if self.action == "drop_rate" and not 0.0 <= self.value <= 1.0:
            raise SimulationError("drop_rate value must be in [0, 1]")
        if self.action == "latency_add" and self.value < 0:
            raise SimulationError("latency_add value must be non-negative")

    def label(self) -> str:
        """Compact human-readable form for logs and snapshots."""
        scope = "/".join(self.target) if self.target else "*"
        if self.action in ("drop_rate", "latency_add"):
            return f"{self.action}[{scope}]={self.value:g}"
        return f"{self.action}[{scope}]"


@dataclass
class FaultPlan:
    """A scripted sequence of fault events, built fluently.

    Builder methods append paired apply/revert events; ``until=None``
    leaves a fault in place for the rest of the run.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append one raw event."""
        self.events.append(event)
        return self

    def crash(
        self, node: str, *, at: float, restart_at: float | None = None
    ) -> "FaultPlan":
        """Crash ``node`` at ``at``; restart it at ``restart_at`` (or never)."""
        self.add(FaultEvent(at=at, action="crash", target=(node,)))
        if restart_at is not None:
            if restart_at <= at:
                raise SimulationError("restart_at must come after the crash")
            self.add(FaultEvent(at=restart_at, action="restart", target=(node,)))
        return self

    def partition(
        self, a: str, b: str, *, at: float, heal_at: float | None = None
    ) -> "FaultPlan":
        """Cut the ``a`` ↔ ``b`` link at ``at``; heal it at ``heal_at``."""
        self.add(FaultEvent(at=at, action="partition", target=(a, b)))
        if heal_at is not None:
            if heal_at <= at:
                raise SimulationError("heal_at must come after the partition")
            self.add(FaultEvent(at=heal_at, action="heal", target=(a, b)))
        return self

    def drop_rate(
        self,
        probability: float,
        *,
        at: float = 0.0,
        until: float | None = None,
        target: tuple[str, ...] = (),
    ) -> "FaultPlan":
        """Add an extra frame-drop probability over a window."""
        self.add(
            FaultEvent(at=at, action="drop_rate", target=target, value=probability)
        )
        if until is not None:
            if until <= at:
                raise SimulationError("until must come after at")
            self.add(FaultEvent(at=until, action="drop_rate", target=target))
        return self

    def latency_add(
        self,
        extra_seconds: float,
        *,
        at: float,
        until: float | None = None,
        target: tuple[str, ...] = (),
    ) -> "FaultPlan":
        """Add one-way delay over a window (a brownout when targeted)."""
        self.add(
            FaultEvent(
                at=at, action="latency_add", target=target, value=extra_seconds
            )
        )
        if until is not None:
            if until <= at:
                raise SimulationError("until must come after at")
            self.add(FaultEvent(at=until, action="latency_add", target=target))
        return self

    def pause_daemon(self, *, at: float, until: float | None = None) -> "FaultPlan":
        """Pause the dissemination daemon's replan loop over a window."""
        self.add(FaultEvent(at=at, action="pause_daemon"))
        if until is not None:
            if until <= at:
                raise SimulationError("until must come after at")
            self.add(FaultEvent(at=until, action="resume_daemon"))
        return self

    def ordered(self) -> list[FaultEvent]:
        """Events sorted by fire time, ties kept in insertion order."""
        indexed = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].at, pair[0])
        )
        return [event for _, event in indexed]


class FaultInjector:
    """Executes a :class:`FaultPlan` and answers the network's queries.

    Args:
        plan: The scripted fault sequence.
        seed: Seeds the injector's own drop RNG (independent of the
            network's per-link jitter streams, so adding faults never
            perturbs the clean latency draws).
        metrics: Registry receiving ``faults.*`` counters and the
            event timeline; a private one is created when omitted.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        self._plan = plan
        self._rng = np.random.default_rng((seed, 0xFA))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._down: set[str] = set()
        self._cut: set[frozenset[str]] = set()
        self._drop_rates: dict[tuple[str, ...], float] = {}
        self._latency_adds: dict[tuple[str, ...], float] = {}
        self._crash_hooks: dict[str, Callable[[], None]] = {}
        self._restart_hooks: dict[str, Callable[[], None]] = {}
        self._pause_hook: Callable[[], None] | None = None
        self._resume_hook: Callable[[], None] | None = None
        self.log: list[tuple[float, str]] = []

    def register_node(
        self,
        name: str,
        *,
        on_crash: Callable[[], None] | None = None,
        on_restart: Callable[[], None] | None = None,
    ) -> None:
        """Attach crash/restart callbacks for one endpoint."""
        if on_crash is not None:
            self._crash_hooks[name] = on_crash
        if on_restart is not None:
            self._restart_hooks[name] = on_restart

    def register_daemon(
        self, *, pause: Callable[[], None], resume: Callable[[], None]
    ) -> None:
        """Attach the dissemination daemon's pause/resume hooks."""
        self._pause_hook = pause
        self._resume_hook = resume

    # -- plan execution ------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one event's state change and run its hooks."""
        action, target = event.action, event.target
        if action == "crash":
            self._down.add(target[0])
            hook = self._crash_hooks.get(target[0])
            if hook is not None:
                hook()
        elif action == "restart":
            self._down.discard(target[0])
            hook = self._restart_hooks.get(target[0])
            if hook is not None:
                hook()
        elif action == "partition":
            self._cut.add(frozenset(target))
        elif action == "heal":
            self._cut.discard(frozenset(target))
        elif action == "drop_rate":
            if event.value > 0.0:
                self._drop_rates[target] = event.value
            else:
                self._drop_rates.pop(target, None)
        elif action == "latency_add":
            if event.value > 0.0:
                self._latency_adds[target] = event.value
            else:
                self._latency_adds.pop(target, None)
        elif action == "pause_daemon":
            if self._pause_hook is not None:
                self._pause_hook()
        elif action == "resume_daemon":
            if self._resume_hook is not None:
                self._resume_hook()
        self.metrics.counter(f"faults.{action}").inc()
        self.log.append((event.at, event.label()))
        self.metrics.record_event(event.at, f"fault:{event.label()}")
        self.metrics.trace_event(
            "fault", time=event.at, action=action, label=event.label()
        )

    async def run(self) -> None:
        """Fire every plan event at its virtual time, then return."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for event in self._plan.ordered():
            delay = event.at - (loop.time() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            self.apply(event)

    # -- network queries -----------------------------------------------------

    def _keys(self, source: str, destination: str) -> tuple[tuple[str, ...], ...]:
        return ((), (source,), (destination,), (source, destination))

    def intercept(self, source: str, destination: str) -> bool:
        """Whether the network must drop this frame right now."""
        if source in self._down or destination in self._down:
            return True
        if frozenset((source, destination)) in self._cut:
            return True
        if self._drop_rates:
            chance = 0.0
            for key in self._keys(source, destination):
                chance = max(chance, self._drop_rates.get(key, 0.0))
            if chance > 0.0 and float(self._rng.random()) < chance:
                return True
        return False

    def extra_latency(self, source: str, destination: str) -> float:
        """Additional one-way delay currently injected on this link."""
        if not self._latency_adds:
            return 0.0
        extra = 0.0
        for key in self._keys(source, destination):
            extra += self._latency_adds.get(key, 0.0)
        return extra

    def is_down(self, node: str) -> bool:
        """Whether ``node`` is currently crashed."""
        return node in self._down


__all__ = ["ACTIONS", "FaultEvent", "FaultInjector", "FaultPlan"]

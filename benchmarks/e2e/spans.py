"""In-memory span recorder for the traced pass.

The program under test is not edited: the traced pass wraps its public
callables from here (:meth:`Recorder.wrap`) and the harness brackets
its own calls with :meth:`Recorder.span`.  A span is a name, a parent,
a start and an end; the parent is the span that was current — in the
calling task's :mod:`contextvars` context — when this one started, so
spans opened by different asyncio tasks never adopt each other.  Spans
stay in memory until :meth:`Recorder.dump` writes them out at exit.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterator


class Recorder:
    """Collects spans; wraps and later restores public callables.

    Spans live in four parallel columns, indexed by span id in start
    order.  A list per span would be a garbage-collector-tracked object
    per frame, and the collections that triggers cost several times
    what the wrappers themselves do.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "e2e_span", default=-1
        )
        self._patched: list[tuple[Any, str, Any]] = []
        self._enabled = True
        # Forked deploy workers inherit the wrappers; they are measured
        # by rusage and counters only, so their copies pass straight
        # through instead of growing columns nobody reads.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def __len__(self) -> int:
        return len(self.names)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a call the harness itself makes."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._current.get())
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        token = self._current.set(index)
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._current.reset(token)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments
        (one callable serving two roles gets two span names).
        ``observe(args, result)`` runs after the span closed, so what it
        costs lands in the caller's self time, not in this span.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if kind is not None else raw
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        current, clock = self._current, time.perf_counter
        label = name if callable(name) else (lambda args: name)

        # The two wrappers differ only in ``await``; their bodies are
        # inlined because they run once per frame and their cost is the
        # tracer's overhead.
        if inspect.iscoroutinefunction(original):

            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self._enabled:
                    return await original(*args, **kwargs)
                index = len(names)
                names.append(label(args))
                parents.append(current.get())
                ends.append(0.0)
                token = current.set(index)
                starts.append(clock())
                try:
                    result = await original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    current.reset(token)
                if observe is not None:
                    observe(args, result)
                return result

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self._enabled:
                    return original(*args, **kwargs)
                index = len(names)
                names.append(label(args))
                parents.append(current.get())
                ends.append(0.0)
                token = current.set(index)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    current.reset(token)
                if observe is not None:
                    observe(args, result)
                return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def unwrap_all(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def summary(self, lo: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, over the spans from ``lo`` on: calls, total,
        median and self seconds.  ``lo`` must be a root span, so that
        every parent of a later span is at or after it.

        Self time is a span's duration minus the part of that interval
        its direct children cover.  Everything wrapped here is either
        synchronous or never suspends, so siblings do not overlap and
        the covered part is the sum of the clipped children.
        """
        starts, ends = self.starts, self.ends
        covered = [0.0] * (len(self) - lo)
        for index in range(lo, len(self)):
            parent = self.parents[index]
            if parent >= lo:
                covered[parent - lo] += max(
                    0.0,
                    min(ends[index], ends[parent])
                    - max(starts[index], starts[parent]),
                )
        durations: dict[str, list[float]] = {}
        self_time: dict[str, float] = {}
        for index in range(lo, len(self)):
            name = self.names[index]
            duration = ends[index] - starts[index]
            durations.setdefault(name, []).append(duration)
            self_time[name] = (
                self_time.get(name, 0.0) + duration - covered[index - lo]
            )
        return {
            name: {
                "calls": len(values),
                "total_s": sum(values),
                "median_s": statistics.median(values),
                "self_s": self_time[name],
            }
            for name, values in durations.items()
        }

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: a name table, then one
        ``[name index, parent, start, end]`` row per span, times in
        seconds from the first span's start."""
        table = list(dict.fromkeys(self.names))
        code = {name: position for position, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            f"[{code[name]},{parent},{start - origin:.9f},{end - origin:.9f}]"
            for name, parent, start, end in zip(
                self.names, self.parents, self.starts, self.ends
            )
        ]
        header = '{"names":[' + ",".join(f'"{name}"' for name in table) + "]}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join([header, *rows]) + "\n")


class NullRecorder:
    """The recorder of an untraced run: spans cost one no-op context."""

    _NOTHING = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext[None]:
        """A shared do-nothing context manager."""
        del name
        return self._NOTHING

"""Clock/units provenance checker (flow-based).

The runtime keeps three incompatible scalar families in play: virtual-
clock seconds (``loop.time()`` under the installed
:class:`~repro.runtime.clock.VirtualClock`), wall-clock durations
(``time.perf_counter``/``monotonic``, legal only in perf code and the
deploy bus), and exact integer byte counters.  N003 catches byte counters
*initialised* as floats by name pattern; this checker extends that to
flow: it tracks the three families through assignments and calls with
the :mod:`repro.analysis.dataflow` engine and flags arithmetic that
mixes them.

Rules:

* ``U001`` — virtual-clock seconds mixed (``+``/``-``/comparison)
  with wall-clock seconds.  The two timelines are unrelated; their
  difference is meaningless and schedule-dependent.
* ``U002`` — a byte counter mixed additively (or compared) with a
  time value of either family.  Bytes convert to seconds only through
  an explicit rate division, which the analysis treats as a unit
  boundary (division strips both labels).

Known limitations (documented in ``docs/static_analysis.md``): labels
do not flow through container elements or ``min``/``max``-style
builtins, module-level code is not analysed, and wall/virtual typing
of bare parameters relies on ``__init__`` attribute seeding plus
return-label call summaries.
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext
from ..dataflow import (
    EMPTY,
    FunctionRecord,
    ProgramIndex,
    ProvenanceAnalysis,
    ref_of,
    terminal_name,
)
from ..findings import Rule, Severity

VIRTUAL = "time:virtual"
WALL = "time:wall"
BYTES = "bytes"

#: ``time`` module calls yielding wall-clock scalars.
_WALL_CALLS = frozenset({"perf_counter", "monotonic", "process_time"})

#: Additive operators that require like units on both sides.
_ADDITIVE = (ast.Add, ast.Sub)

#: Operators treated as unit-conversion boundaries (rates/ratios).
_CONVERSION = (ast.Div, ast.FloorDiv, ast.Mod)


class _UnitsAnalysis(ProvenanceAnalysis):
    """One function's unit provenance; collects mixing events."""

    def __init__(
        self,
        checker: "UnitsChecker",
        record: FunctionRecord,
        initial_env: dict[str, frozenset[str]],
    ):
        super().__init__(record.node, initial_env)
        self.checker = checker
        self.record = record
        #: (node, rule, description of the two sides)
        self.mix_events: list[tuple[ast.AST, str, str]] = []

    # -- sources ---------------------------------------------------------
    def leaf_labels(self, node, ref):
        name = terminal_name(ref)
        if name and self.checker.is_byte_counter(name):
            return frozenset({BYTES})
        return EMPTY

    def call_result(self, call, arg_labels, env):
        checker = self.checker
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _WALL_CALLS or (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and ref_of(func) == "time.time"
        ):
            return frozenset({WALL})
        if name == "time" and isinstance(func, ast.Attribute):
            base = terminal_name(ref_of(func.value)).lower()
            if any(
                needle in base
                for needle in checker.config.virtual_time_bases
            ) or self._is_loop_call(func.value):
                return frozenset({VIRTUAL})
        if name and "loop_time" in name:
            return frozenset({VIRTUAL})
        record = checker.index.resolve_call(call, self.record.class_name)
        if record is not None:
            return checker.return_summary(record)
        return EMPTY

    @staticmethod
    def _is_loop_call(node: ast.expr) -> bool:
        """``asyncio.get_event_loop()``-style receiver expressions."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name in ("get_event_loop", "get_running_loop")

    # -- mixing ----------------------------------------------------------
    def combine_binop(self, node, left, right):
        if isinstance(node.op, _CONVERSION):
            # Rates and ratios change units; stop label propagation so
            # e.g. ``body_bytes / bandwidth`` can be added to seconds.
            return (left | right) - {BYTES, VIRTUAL, WALL}
        return left | right

    def observe_binop(self, node, left, right):
        if not self.observing or not isinstance(node.op, _ADDITIVE):
            return
        self._check_pair(node, left, right)

    def observe_compare(self, node, parts):
        if not self.observing:
            return
        for index in range(len(parts) - 1):
            self._check_pair(node, parts[index], parts[index + 1])

    def _check_pair(self, node, left, right):
        both = left | right
        if VIRTUAL in both and WALL in both and not (
            VIRTUAL in left and WALL in left
        ) and not (VIRTUAL in right and WALL in right):
            self.mix_events.append(
                (node, "U001", "virtual-clock seconds with wall-clock seconds")
            )
        time_side = {VIRTUAL, WALL}
        if BYTES in both and (both & time_side):
            bytes_only = (BYTES in left and not (left & time_side)) or (
                BYTES in right and not (right & time_side)
            )
            time_only = (left & time_side and BYTES not in left) or (
                right & time_side and BYTES not in right
            )
            if bytes_only and time_only:
                self.mix_events.append(
                    (node, "U002", "a byte counter with a time value")
                )


class UnitsChecker(Checker):
    """Flow-based unit separation for clocks and byte counters."""

    name = "units"
    rules = (
        Rule(
            "U001",
            "virtual-clock seconds mixed with wall-clock seconds",
            Severity.ERROR,
            "The virtual timeline advances by simulated delays, the "
            "wall timeline by host speed; sums or comparisons across "
            "them are schedule-dependent noise.",
        ),
        Rule(
            "U002",
            "byte counter mixed additively with a time value",
            Severity.ERROR,
            "Bytes become seconds only through an explicit rate "
            "division; direct addition or comparison corrupts both "
            "the traffic and the timing ledgers.",
        ),
    )

    def __init__(self, config):
        super().__init__(config)
        self.index: ProgramIndex | None = None
        self._return_cache: dict[int, frozenset[str]] = {}
        self._class_envs: dict[
            tuple[int, str], dict[str, frozenset[str]]
        ] = {}

    def is_byte_counter(self, name: str) -> bool:
        """Return ``True`` if ``name`` matches the byte-counter patterns."""
        lowered = name.lower().lstrip("_")
        return any(
            lowered.endswith(suffix)
            for suffix in self.config.byte_counter_suffixes
        ) or any(
            lowered.startswith(prefix)
            for prefix in self.config.byte_counter_prefixes
        )

    def return_summary(self, record: FunctionRecord) -> frozenset[str]:
        """Return the unit labels a call to ``record`` may produce."""
        key = id(record.node)
        cached = self._return_cache.get(key)
        if cached is not None:
            return cached
        self._return_cache[key] = EMPTY  # break recursion
        analysis = _UnitsAnalysis(self, record, self._seed_env(record))
        analysis.run()
        labels = analysis.return_labels & {VIRTUAL, WALL, BYTES}
        self._return_cache[key] = labels
        return labels

    def _seed_env(self, record: FunctionRecord) -> dict[str, frozenset[str]]:
        env: dict[str, frozenset[str]] = {}
        for param in record.param_names:
            if self.is_byte_counter(param):
                env[param] = frozenset({BYTES})
        if record.class_name is not None and record.node.name != "__init__":
            class_env = self._class_envs.get(
                (id(record.ctx), record.class_name)
            )
            if class_env:
                for ref, labels in class_env.items():
                    env.setdefault(ref, labels)
        return env

    def finalize(self, files: list[FileContext]) -> None:
        self.index = ProgramIndex(files)
        for record in self.index.records:
            if record.class_name is None or record.node.name != "__init__":
                continue
            analysis = _UnitsAnalysis(self, record, self._seed_env(record))
            analysis.run()
            attrs = {
                ref: labels & frozenset({VIRTUAL, WALL, BYTES})
                for ref, labels in analysis.all_env.items()
                if ref.startswith("self.")
            }
            attrs = {ref: labels for ref, labels in attrs.items() if labels}
            if attrs:
                self._class_envs[(id(record.ctx), record.class_name)] = attrs

        for record in self.index.records:
            analysis = _UnitsAnalysis(self, record, self._seed_env(record))
            analysis.run()
            for node, rule_id, description in analysis.mix_events:
                self.report(
                    rule_id,
                    node,
                    f"expression mixes {description}; keep the unit "
                    "families separate (convert through an explicit "
                    "rate first)",
                    ctx=record.ctx,
                )

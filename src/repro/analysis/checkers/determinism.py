"""Determinism checker — no unseeded randomness, no wall-clock reads.

The paper's evaluation is trace-driven: the same trace, seed and
configuration must reproduce Table 1 bit-for-bit.  The codebase
therefore threads ``np.random.Generator`` instances (derived from
``config.seed``) through every stochastic component.  This checker
machine-checks that convention:

* ``D001`` — the stdlib ``random`` module is banned; its global state
  makes results depend on import order and on unrelated callers.
* ``D002`` — the legacy ``np.random.*`` global API (``np.random.rand``,
  ``np.random.seed``, ...) is banned; randomness must flow through an
  explicit ``Generator``.
* ``D003`` — ``np.random.default_rng()`` *without* a seed argument
  draws OS entropy; a seed (or ``SeedSequence``) must be passed.
* ``D004`` — wall-clock reads (``time.time()``, ``datetime.now()``,
  ...) leak real time into simulated time.  ``time.perf_counter``
  stays legal everywhere (it measures the *measurement*, not the
  simulation); ``time.monotonic`` is permitted only in the modules
  named by ``LintConfig.monotonic_modules`` — the deploy bus, whose
  cross-process waits have wall deadlines.
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext
from ..findings import Rule, Severity

#: (penultimate, last) dotted-name components that read the wall clock.
_WALL_CLOCK = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "localtime"),
        ("time", "ctime"),
        ("time", "gmtime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Monotonic reads: wall-clock durations, allowed only in the modules
#: the config names (the real-I/O transport).
_MONOTONIC = frozenset(
    {
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
    }
)


def _dotted_name(node: ast.AST) -> list[str]:
    """Flatten ``a.b.c`` attribute chains into components ([] if dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class DeterminismChecker(Checker):
    """Forbid unseeded randomness and wall-clock leakage."""

    name = "determinism"
    rules = (
        Rule(
            "D001",
            "stdlib `random` is banned; pass an np.random.Generator instead",
            Severity.ERROR,
            "The global Mersenne state makes runs depend on import order "
            "and on every other caller of `random`.",
        ),
        Rule(
            "D002",
            "legacy global np.random API call; use an explicit Generator",
            Severity.ERROR,
            "np.random.seed/rand/choice mutate hidden global state, so two "
            "simulations sharing a process contaminate each other.",
        ),
        Rule(
            "D003",
            "np.random.default_rng() without a seed draws OS entropy",
            Severity.ERROR,
            "An unseeded Generator cannot reproduce Table 1; derive the "
            "seed from config.seed or accept a Generator parameter.",
        ),
        Rule(
            "D004",
            "wall-clock read in simulation code",
            Severity.ERROR,
            "time.time()/datetime.now() couple simulated time to real "
            "time; simulated clocks must come from the trace.",
        ),
    )

    def begin_file(self, ctx: FileContext) -> None:
        super().begin_file(ctx)
        # Aliases bound to the numpy module ("np", "numpy", ...) and to
        # the numpy.random submodule, collected up front so handler
        # order never matters.
        self._numpy_aliases: set[str] = set()
        self._np_random_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        self._numpy_aliases.add(local)
                    if alias.name == "numpy.random":
                        self._np_random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        self._np_random_aliases.add(alias.asname or "random")

    # -- imports ---------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        """Flag `import random` (D001)."""
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    "D001", node, "import of stdlib `random` is forbidden"
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Flag from-imports of stdlib `random` (D001) and `numpy.random` legacy names (D002)."""
        if node.level == 0 and node.module and (
            node.module == "random" or node.module.startswith("random.")
        ):
            self.report(
                "D001", node, "import from stdlib `random` is forbidden"
            )
        if node.level == 0 and node.module == "numpy.random":
            # `from numpy.random import rand` — same global-state trap.
            for alias in node.names:
                if alias.name not in self.config.allowed_np_random:
                    self.report(
                        "D002",
                        node,
                        f"`from numpy.random import {alias.name}` uses the "
                        "legacy global RNG; use np.random.default_rng",
                    )

    # -- calls -----------------------------------------------------------
    def _is_np_random_chain(self, parts: list[str]) -> bool:
        """True for ``np.random.X`` / ``numpy.random.X`` / ``nprand.X``."""
        if len(parts) >= 3 and parts[-3] in self._numpy_aliases:
            return parts[-2] == "random"
        if len(parts) == 2 and parts[0] in self._np_random_aliases:
            return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        """Flag legacy `np.random.*` calls (D002), unseeded `default_rng()` (D003) and wall-clock reads (D004)."""
        parts = _dotted_name(node.func)
        if not parts:
            return
        if self._is_np_random_chain(parts):
            attr = parts[-1]
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        "D003",
                        node,
                        "np.random.default_rng() without a seed is "
                        "irreproducible; pass config.seed (or derive "
                        "a SeedSequence from it)",
                    )
            elif attr not in self.config.allowed_np_random:
                self.report(
                    "D002",
                    node,
                    f"np.random.{attr}() uses the legacy global RNG; "
                    "thread an np.random.Generator through instead",
                )
        elif len(parts) >= 2 and tuple(parts[-2:]) in _WALL_CLOCK:
            self.report(
                "D004",
                node,
                f"{'.'.join(parts)}() reads the wall clock; simulation "
                "time must come from the trace or the config",
            )
        elif len(parts) >= 2 and tuple(parts[-2:]) in _MONOTONIC:
            module = self.ctx.module if self.ctx is not None else None
            if module not in self.config.monotonic_modules:
                self.report(
                    "D004",
                    node,
                    f"{'.'.join(parts)}() measures wall durations; only "
                    "the real-I/O transport modules "
                    f"({', '.join(self.config.monotonic_modules)}) may",
                )

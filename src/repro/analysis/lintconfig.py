"""Configuration for the ``repro lint`` framework.

:class:`LintConfig` carries everything the engine and checkers need:
which rules are enabled, the architectural layer ranking enforced by
the layering checker, and per-checker tuning knobs.  Defaults encode
this repository's invariants; a ``[tool.repro-lint]`` table in
``pyproject.toml`` can override them so the configuration lives next
to the code it governs.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any


class LintConfigError(Exception):
    """The lint configuration (CLI flags or pyproject table) is invalid."""


#: The architectural DAG of the ``repro`` package, as layer ranks.  A
#: module may only import packages of *strictly lower* rank (imports
#: within one package are always allowed).  Equal-rank packages are
#: peers and must stay independent — e.g. ``dissemination`` and
#: ``speculation`` are the paper's two protocols and must not couple.
DEFAULT_LAYER_RANKS: dict[str, int] = {
    "errors": 0,
    "config": 1,
    "trace": 2,
    "workload": 3,
    "popularity": 4,
    "topology": 4,
    "speculation": 5,
    "dissemination": 5,
    "analysis": 6,
    "perf": 6,
    "obs": 7,
    "core": 8,
    "runtime": 9,
    "fleet": 10,
    "deploy": 11,
    "api": 12,
    "cli": 13,
}

#: ``np.random`` attributes that are legitimate under seeded use.
DEFAULT_ALLOWED_NP_RANDOM: frozenset[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: RNG stream role → name substrings.  A variable, attribute or
#: parameter whose terminal name contains one of these substrings is
#: declared to hold that stream's ``Generator``; the rngflow checker
#: flags any other stream's generator flowing into it (R002) and uses
#: the role to type otherwise-anonymous ``default_rng`` results.
DEFAULT_RNG_STREAM_NAMES: dict[str, tuple[str, ...]] = {
    "faults": ("fault_rng", "faults_rng", "chaos_rng"),
    "network": ("jitter_rng", "net_rng", "network_rng", "latency_rng"),
    "retry": ("retry_rng", "backoff_rng"),
    "workload": ("workload_rng", "trace_rng"),
    "loadgen": ("loadgen_rng", "client_rng"),
}

#: Module prefix → stream: a bare ``np.random.default_rng(...)`` call
#: inside one of these modules mints a generator of that stream.
DEFAULT_RNG_STREAM_MODULES: dict[str, str] = {
    "repro.runtime.faults": "faults",
    "repro.runtime.transport": "network",
    "repro.runtime.resilience": "retry",
    "repro.runtime.loadgen": "loadgen",
    "repro.workload": "workload",
}

#: Factory callables whose *result* is a generator of a known stream,
#: wherever they are called from (``retry_rng`` is PR 3's derivation).
DEFAULT_RNG_FACTORIES: dict[str, str] = {
    "retry_rng": "retry",
}

#: Sink callables (by simple name) and the stream whose generator they
#: must be fed.  ``BackoffPolicy.delay(attempt, rng)`` is the canonical
#: retry sink: the caller owns the generator, so a fault or jitter
#: generator reaching it silently couples two streams (R001).
DEFAULT_RNG_SINKS: dict[str, str] = {
    "delay": "retry",
}

#: Call names (terminal attribute) whose result carries virtual-clock
#: seconds when the receiver looks like an event loop or clock — e.g.
#: ``loop.time()``, ``self._clock.time()`` — plus whole-name matches
#: like ``_loop_time``.  Used by the units checker (U001/U002).
DEFAULT_VIRTUAL_TIME_BASES: tuple[str, ...] = ("loop", "clock")

#: Builtins whose shadowing the hygiene checker reports.  Restricted to
#: names that plausibly appear as locals in simulation code; obscure
#: builtins are excluded to keep the rule quiet.
DEFAULT_SHADOWED_BUILTINS: frozenset[str] = frozenset(
    {
        "all", "any", "bin", "bool", "bytes", "dict", "dir", "filter",
        "float", "format", "hash", "id", "input", "int", "iter", "len",
        "list", "map", "max", "min", "next", "object", "open", "print",
        "range", "round", "set", "sorted", "str", "sum", "tuple", "type",
        "vars", "zip",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """Immutable settings consumed by the engine and every checker."""

    #: If non-empty, only these rule ids run (``--select``).
    select: frozenset[str] = frozenset()
    #: Rule ids disabled globally (``--disable`` / pyproject).
    disable: frozenset[str] = frozenset()
    #: Top-level package whose layering is enforced.
    root_package: str = "repro"
    #: Package → rank map realising the architectural DAG.
    layer_ranks: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_RANKS)
    )
    #: ``np.random`` attributes exempt from the determinism checker.
    allowed_np_random: frozenset[str] = DEFAULT_ALLOWED_NP_RANDOM
    #: Builtin names the hygiene checker refuses to see rebound.
    shadowed_builtins: frozenset[str] = DEFAULT_SHADOWED_BUILTINS
    #: Name suffixes treated as byte counters by the numeric checker.
    byte_counter_suffixes: tuple[str, ...] = ("_bytes", "bytes")
    #: Name prefixes treated as byte counters (``bytes_sent`` etc.).
    byte_counter_prefixes: tuple[str, ...] = ("bytes_",)
    #: Name suffixes treated as probabilities by the numeric checker.
    probability_suffixes: tuple[str, ...] = ("probability", "_prob", "p_star")
    #: Modules where ``time.monotonic`` is permitted (D004).  Real-I/O
    #: code may wait on wall deadlines; simulation code may not.
    monotonic_modules: tuple[str, ...] = ("repro.deploy.bus",)
    #: RNG stream role → name substrings (rngflow checker).
    rng_stream_names: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_RNG_STREAM_NAMES)
    )
    #: Module prefix → stream for anonymous generator creations.
    rng_stream_modules: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_RNG_STREAM_MODULES)
    )
    #: Factory callable name → stream of the generator it returns.
    rng_factories: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_RNG_FACTORIES)
    )
    #: Sink callable name → stream whose generator it must receive.
    rng_sinks: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_RNG_SINKS)
    )
    #: Receiver-name substrings marking ``<recv>.time()`` as virtual.
    virtual_time_bases: tuple[str, ...] = DEFAULT_VIRTUAL_TIME_BASES

    def rule_enabled(self, rule_id: str) -> bool:
        """Apply ``select``/``disable`` filtering to one rule id."""
        if rule_id in self.disable:
            return False
        if self.select and rule_id not in self.select:
            return False
        return True

    def with_updates(self, **changes: Any) -> "LintConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def _coerce_rule_set(value: Any, key: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintConfigError(f"[tool.repro-lint] {key} must be a list of strings")
    return frozenset(value)


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig`, merging ``[tool.repro-lint]`` overrides.

    Args:
        pyproject: Explicit path to a ``pyproject.toml``.  ``None``
            searches the current directory and its parents; a missing
            file (or one without the table) yields pure defaults.

    Raises:
        LintConfigError: The table exists but is malformed.
    """
    config = LintConfig()
    path = pyproject
    if path is None:
        for candidate in [Path.cwd(), *Path.cwd().parents]:
            if (candidate / "pyproject.toml").is_file():
                path = candidate / "pyproject.toml"
                break
    if path is None or not path.is_file():
        return config
    try:
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as error:
        raise LintConfigError(f"cannot parse {path}: {error}") from error
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return config
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")

    changes: dict[str, Any] = {}
    if "disable" in table:
        changes["disable"] = _coerce_rule_set(table["disable"], "disable")
    if "select" in table:
        changes["select"] = _coerce_rule_set(table["select"], "select")
    if "root-package" in table:
        if not isinstance(table["root-package"], str):
            raise LintConfigError("[tool.repro-lint] root-package must be a string")
        changes["root_package"] = table["root-package"]
    if "layers" in table:
        layers = table["layers"]
        if not isinstance(layers, dict) or not all(
            isinstance(rank, int) for rank in layers.values()
        ):
            raise LintConfigError(
                "[tool.repro-lint.layers] must map package names to integer ranks"
            )
        changes["layer_ranks"] = dict(layers)
    if "monotonic-modules" in table:
        modules = table["monotonic-modules"]
        if not isinstance(modules, list) or not all(
            isinstance(module, str) for module in modules
        ):
            raise LintConfigError(
                "[tool.repro-lint] monotonic-modules must be a list of strings"
            )
        changes["monotonic_modules"] = tuple(modules)
    if "rng-streams" in table:
        streams = table["rng-streams"]
        if not isinstance(streams, dict) or not all(
            isinstance(names, list)
            and all(isinstance(name, str) for name in names)
            for names in streams.values()
        ):
            raise LintConfigError(
                "[tool.repro-lint.rng-streams] must map stream names to "
                "lists of name substrings"
            )
        changes["rng_stream_names"] = {
            stream: tuple(names) for stream, names in streams.items()
        }
    for key, attr in (
        ("rng-modules", "rng_stream_modules"),
        ("rng-factories", "rng_factories"),
        ("rng-sinks", "rng_sinks"),
    ):
        if key in table:
            mapping = table[key]
            if not isinstance(mapping, dict) or not all(
                isinstance(stream, str) for stream in mapping.values()
            ):
                raise LintConfigError(
                    f"[tool.repro-lint.{key}] must map names to stream names"
                )
            changes[attr] = dict(mapping)
    return config.with_updates(**changes) if changes else config

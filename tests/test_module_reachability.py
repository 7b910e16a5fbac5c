"""Every module in ``src/repro`` is run by an entry point, or is named
here as the library half of one paper experiment.

The import graph is built from the source with ``ast``; nothing in
``repro`` is imported.  The roots are the CLI, ``repro.api``, the two
``__main__`` modules and the ``repro`` imports of the end-to-end
benchmark (``benchmarks/e2e/*.py``).  Two rules keep re-exports from
hiding dead code:

* ``from pkg import name`` is an edge to the submodule that *defines*
  ``name``, not to every submodule ``pkg/__init__.py`` re-exports.
* A package ``__init__`` imports a submodule only if it uses an
  imported name beyond the import line and ``__all__`` (as
  ``analysis/checkers/__init__.py`` does when it registers checkers).

A module no root reaches must be in :data:`EXPERIMENT_ONLY`, with the
bench script of the EXPERIMENTS.md row it reproduces.  Anything else
is a module nothing runs: delete it, or move it under
``tests/oracles/`` if it is the reference a test compares against.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ROOTS = ("repro.cli.main", "repro.api", "repro.__main__", "repro.analysis.__main__")

#: Modules only a paper-experiment bench script runs → that script.
EXPERIMENT_ONLY = {
    "repro.dissemination.freshness": "benchmarks/bench_a6_mutable_freshness.py",
    "repro.speculation.prefetch": "benchmarks/bench_e5_prefetch_hybrid.py",
    "repro.speculation.user_profiles": "benchmarks/bench_e8_user_profiles.py",
    "repro.dissemination.hierarchy": "benchmarks/bench_e9_bottleneck_relief.py",
    "repro.dissemination.shielding": "benchmarks/bench_e9_bottleneck_relief.py",
}


def _modules() -> dict[str, Path]:
    """Dotted name → file for every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` statement names."""
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for __ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _defining_module(package: str, name: str) -> str:
    """Follow ``package/__init__`` re-exports to where ``name`` is defined."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in MODULES or not _is_package(package):
        return package
    for node in TREES[package].body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(package, node)
            for alias in node.names:
                if (alias.asname or alias.name) == name and source in MODULES:
                    return _defining_module(source, alias.name)
    return package


def _with_parents(module: str) -> set[str]:
    """A module and the packages Python runs before it."""
    parts = module.split(".")
    return {
        ".".join(parts[:i])
        for i in range(1, len(parts) + 1)
        if ".".join(parts[:i]) in MODULES
    }


def _targets(module: str, node: ast.Import | ast.ImportFrom) -> set[str]:
    """The ``repro`` modules one import statement runs."""
    if isinstance(node, ast.Import):
        found = set()
        for alias in node.names:
            if alias.name.split(".")[0] == "repro":
                found |= _with_parents(alias.name)
        return found
    source = _absolute(module, node)
    if source.split(".")[0] != "repro" or source not in MODULES:
        return set()
    found = _with_parents(source)
    for alias in node.names:
        if alias.name != "*":
            found |= _with_parents(_defining_module(source, alias.name))
    return found


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module reads (``__all__``'s strings are not reads)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _edges(module: str, tree: ast.Module) -> set[str]:
    """The modules ``module`` imports, under the package-``__init__`` rule."""
    is_init = module in MODULES and _is_package(module)
    used = _used_names(tree) if is_init else set()
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        bound = {(a.asname or a.name).split(".")[0] for a in node.names}
        if is_init and not bound & used:
            continue
        found |= _targets(module, node)
    return found


def _reached(roots: set[str]) -> set[str]:
    seen: set[str] = set()
    stack = [m for root in roots for m in _with_parents(root)]
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        stack.extend(_edges(module, TREES[module]) - seen)
    return seen


def _benchmark_roots() -> set[str]:
    roots = set()
    for path in sorted((REPO / "benchmarks" / "e2e").glob("*.py")):
        roots |= _edges("benchmarks.e2e", ast.parse(path.read_text()))
    return roots


def test_every_module_is_reached_or_experiment_only():
    assert set(ROOTS) <= set(MODULES)
    reached = _reached(set(ROOTS) | _benchmark_roots())
    unreached = sorted(set(MODULES) - reached)
    assert unreached == sorted(EXPERIMENT_ONLY), (
        "modules no entry point runs (delete them, or move a test's "
        f"reference to tests/oracles/): {sorted(set(unreached) - set(EXPERIMENT_ONLY))}; "
        f"listed as experiment-only but reached or gone: "
        f"{sorted(set(EXPERIMENT_ONLY) - set(unreached))}"
    )


def test_each_experiment_only_module_is_run_by_its_bench_script():
    for module, script in EXPERIMENT_ONLY.items():
        path = REPO / script
        assert path.exists(), script
        assert module in _edges(script, ast.parse(path.read_text())), (
            f"{script} does not import {module}"
        )

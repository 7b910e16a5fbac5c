"""API-hygiene checker — the classic Python traps, simulator edition.

* ``H001`` — mutable default arguments.  A shared default list/dict is
  per-*process* state, which breaks the "two simulations in one process
  are independent" assumption the benchmark harness relies on.
* ``H002`` — ``except:`` / overly broad ``except Exception`` that
  swallows the error.  The library's contract (see
  :mod:`repro.errors`) is that genuine bugs propagate; a handler this
  broad must re-raise or it converts crashes into silently wrong
  Table-1 numbers.
* ``H003`` — shadowing a builtin (``len``, ``sum``, ``id``, ...) with a
  parameter or local.  In numeric code ``sum`` and ``max`` are load-
  bearing; rebinding them produces confusing late failures.
"""

from __future__ import annotations

import ast

from ..base import Checker
from ..findings import Rule, Severity


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler body (re-)raise on every path it cares about?

    Conservative: any ``raise`` statement anywhere in the handler body
    counts as "the error is not swallowed".
    """
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class ApiHygieneChecker(Checker):
    """Mutable defaults, swallowed exceptions, shadowed builtins."""

    name = "hygiene"
    rules = (
        Rule(
            "H001",
            "mutable default argument",
            Severity.ERROR,
            "Default values are evaluated once per process; a mutable "
            "default is hidden shared state between simulation runs.",
        ),
        Rule(
            "H002",
            "bare/broad except swallows errors",
            Severity.ERROR,
            "Catching Exception (or everything) without re-raising "
            "turns bugs into silently wrong results; catch the narrow "
            "ReproError subclass you mean, or re-raise.",
        ),
        Rule(
            "H003",
            "builtin shadowed by parameter or assignment",
            Severity.WARNING,
            "Rebinding len/sum/max/... in numeric code invites "
            "confusing failures far from the rebind.",
        ),
    )

    _MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)
    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque"})

    # -- H001 ------------------------------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef):
        args = node.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        defaults = list(args.defaults) + list(args.kw_defaults)
        # Align defaults to the tail of the positional args, then the
        # kw-only args (kw_defaults is already 1:1 with kwonlyargs).
        positional = args.posonlyargs + args.args
        pos_defaults = args.defaults
        pairs = list(
            zip(positional[len(positional) - len(pos_defaults):], pos_defaults)
        ) + [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        del named, defaults
        for arg, default in pairs:
            mutable = isinstance(default, self._MUTABLE_LITERALS)
            if isinstance(default, ast.Call):
                func = default.func
                callee = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                mutable = callee in self._MUTABLE_CALLS
            if mutable:
                self.report(
                    "H001",
                    default,
                    f"argument `{arg.arg}` of `{node.name}` has a mutable "
                    "default; use None and create the value inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check defaults (H001) and parameter names (H003)."""
        self._check_defaults(node)
        self._check_shadowed_params(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check_defaults(node)
        self._check_shadowed_params(node)

    # -- H002 ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        """Flag bare/broad exception handlers that swallow errors (H002)."""
        if node.type is None:
            if not _body_reraises(node):
                self.report(
                    "H002",
                    node,
                    "bare `except:` swallows every error (including "
                    "KeyboardInterrupt); catch a specific exception or "
                    "re-raise",
                )
            return
        broad = {"Exception", "BaseException"}
        names: list[str] = []
        types = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for type_node in types:
            if isinstance(type_node, ast.Name):
                names.append(type_node.id)
        if any(name in broad for name in names) and not _body_reraises(node):
            self.report(
                "H002",
                node,
                f"`except {' / '.join(names)}` without re-raise swallows "
                "simulator bugs; catch the narrow ReproError subclass "
                "you expect, or add `raise`",
            )

    # -- H003 ------------------------------------------------------------
    def _check_shadowed_params(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        every = (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        for arg in every:
            if arg.arg in self.config.shadowed_builtins:
                self.report(
                    "H003",
                    arg,
                    f"parameter `{arg.arg}` of `{node.name}` shadows the "
                    f"builtin `{arg.arg}`",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Flag assignments that shadow builtins (H003)."""
        for target in node.targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                if (
                    isinstance(element, ast.Name)
                    and element.id in self.config.shadowed_builtins
                ):
                    self.report(
                        "H003",
                        element,
                        f"assignment to `{element.id}` shadows a builtin",
                    )

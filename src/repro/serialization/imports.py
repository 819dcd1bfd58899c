"""AST-based import analysis — the ``findimports`` substitute (§3.4.2).

The Client automates *library detection*: it analyzes PE classes for
import dependencies and ships the list to the Execution Engine, which
auto-installs prerequisites (§3.3).  The original implementation used the
``findimports`` package plus cloudpickle's implicit capture; offline we
implement the analysis directly on the AST, which also lets us detect
imports hidden inside method bodies (the dispel4py idiom of importing
inside ``__init__``/``_process``, as in Listing 2).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Iterable

from repro import pyast
from repro.errors import SerializationError

#: modules shipped with the engine environment itself; never "installed"
_STDLIB = set(getattr(sys, "stdlib_module_names", ())) | {"__future__"}


@dataclass(frozen=True)
class ImportInfo:
    """One imported module as seen in the source."""

    module: str
    #: the top-level distribution-ish name (``astropy`` for ``astropy.io``)
    root: str
    #: names bound by the import (``from x import a, b`` -> ("a", "b"))
    names: tuple[str, ...] = ()
    #: line number of the import statement
    lineno: int = 0

    @property
    def is_stdlib(self) -> bool:
        return self.root in _STDLIB


def _walk_imports(tree: ast.AST) -> Iterable[ImportInfo]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name
                yield ImportInfo(
                    module=module,
                    root=module.split(".")[0],
                    names=(alias.asname or module.split(".")[0],),
                    lineno=node.lineno,
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level and not node.module:
                continue  # pure relative import: stays within user package
            module = node.module or ""
            yield ImportInfo(
                module=module,
                root=module.split(".")[0],
                names=tuple(alias.asname or alias.name for alias in node.names),
                lineno=node.lineno,
            )


def analyze_imports(source: str) -> list[ImportInfo]:
    """All imports appearing anywhere in ``source`` (module or class body).

    Duplicates (same module at different lines) are collapsed, keeping the
    earliest occurrence.  Raises :class:`SerializationError` on syntax
    errors, carrying the parser message for the client to display.
    """
    try:
        tree = pyast.parse(source)
    except SyntaxError as exc:
        raise SerializationError(
            "cannot analyze imports: source does not parse",
            params={"line": exc.lineno},
            details=str(exc),
        ) from exc
    seen: dict[str, ImportInfo] = {}
    for info in _walk_imports(tree):
        if info.module not in seen:
            seen[info.module] = info
    return sorted(seen.values(), key=lambda i: (i.lineno, i.module))


def external_requirements(source: str) -> list[str]:
    """The auto-install list: top-level non-stdlib modules in ``source``.

    This is exactly what the Client transmits to the Execution Engine
    ("an all-inclusive requirement list", §3.3).
    """
    roots = {
        info.root
        for info in analyze_imports(source)
        if info.root and not info.is_stdlib
    }
    return sorted(roots)


def merge_requirements(sources: Iterable[str]) -> list[str]:
    """Union of :func:`external_requirements` across many code fragments."""
    merged: set[str] = set()
    for source in sources:
        if source:
            merged.update(external_requirements(source))
    return sorted(merged)

"""RPR008 — every parse of Python source goes through ``repro.pyast``.

Invariant: CPython 3.11's ``ast.parse`` shares a recursion-depth
counter between threads, so an ingest job parsing files beside a
request thread that summarizes code could fail with ``SystemError: AST
constructor recursion depth mismatch``.  :func:`repro.pyast.parse`
serializes every parse behind one lock; a direct ``ast.parse`` anywhere
else under ``repro/`` bypasses it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import Finding, LintModule, Rule, register_rule

_HELPER = "repro/pyast.py"


@register_rule
class ParseLockRule(Rule):
    name = "RPR008"
    summary = "no ast.parse outside repro.pyast.parse (the locked parse)"

    def applies_to(self, module: LintModule) -> bool:
        return "repro/" in module.posix and not module.posix.endswith(
            _HELPER
        )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and module.resolve_call(node) == "ast.parse"
            ):
                yield self.finding(
                    module,
                    node,
                    "ast.parse races other threads' parses on CPython"
                    " 3.11 — call repro.pyast.parse",
                )

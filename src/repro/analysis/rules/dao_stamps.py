"""RPR003 — every DAO write to pes/workflows bumps the mutation counter.

Invariant (``repro/registry/dao.py``): the registry mutation counter
versions the whole registry (a write reply's ``registryVersion``, a
bulk write's ``ifVersion``), so an unbumped write leaves a reader of it
behind the rows.

Where the counter lives: since schema v13 it is a row of
``shard_stamps``, ``(0, 'mutations')`` — user 0 is no user, its rows
are the registry-wide counters, the record tables' id high-water marks
beside it.  Its writers are helpers (``_bump_mutation``,
``_issue_ids``), not the mutating method.

Detection: a method "writes" when it executes SQL matching
``INSERT INTO/UPDATE/DELETE FROM pes|workflows`` — string literals and
f-strings, where a storage row's record-table placeholder
(``{store.table}``) counts as a record table and its owner table and
memory text tables (``{store.owners}``, ``{store.docs}``,
``{store.fts}``) do not, so the SQL must sit inline at the ``execute``
call.  Such a method must contain a ``_bump_mutation()`` call.

Hooks: a method a storage row names in a hook slot (``link=``,
``relink=``, ``unlink=``, a string) runs inside the write that calls it,
so its own record writes need no bump; instead a method that runs hooks
(``_hook(...)``) or calls one by name counts as writing.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.lint import (
    Finding,
    LintModule,
    Rule,
    register_rule,
)
from repro.analysis.rules.common import walk_scope

_SQL_WRITE = re.compile(
    r"(?i)\b(?:insert(?:\s+or\s+\w+)?\s+into|update|delete\s+from)\s+"
    r"(pes\b|workflows\b|\{[^{}]*\.table\})"
)

_HOOK_RUNNER = "_hook"
_HOOK_SLOTS = frozenset({"link", "relink", "unlink"})


def _sql_text(node: ast.Call) -> str | None:
    """The SQL a call executes: a string literal, or an f-string with
    each placeholder kept as its source in braces (``{store.table}``;
    a conditional ``SET`` clause still names its table outside them)."""
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    if isinstance(first, ast.JoinedStr):
        return "".join(
            part.value
            if isinstance(part, ast.Constant)
            else "{" + ast.unparse(part.value) + "}"
            for part in first.values
        )
    return None


def _hooks(tree: ast.AST) -> set[str]:
    """The methods the module's storage rows name in a hook slot."""
    return {
        keyword.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg in _HOOK_SLOTS
        and isinstance(keyword.value, ast.Constant)
        and isinstance(keyword.value.value, str)
    }


def _written(fn: ast.FunctionDef) -> set[str]:
    """Record tables whose SQL ``fn`` itself executes a write to."""
    tables: set[str] = set()
    for node in walk_scope(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("execute", "executemany")
        ):
            sql = _sql_text(node)
            if sql:
                tables.update(_SQL_WRITE.findall(sql))
    return tables


def _calls(fn: ast.FunctionDef, method: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        for node in walk_scope(fn)
    )


@register_rule
class DaoCounterRule(Rule):
    name = "RPR003"
    summary = "DAO methods writing pes/workflows must bump the mutation counter"

    def applies_to(self, module: LintModule) -> bool:
        return module.posix.endswith("repro/registry/dao.py")

    def check(self, module: LintModule) -> Iterable[Finding]:
        hooks = _hooks(module.tree)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                tables = _written(fn)
                # a hook's writes are checked where it runs
                hook = fn.name in hooks
                if not hook and any(
                    _calls(fn, name) for name in {_HOOK_RUNNER, *hooks}
                ):
                    tables.add("its hooks' tables")
                if tables and not hook and not _calls(fn, "_bump_mutation"):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes"
                        f" {'/'.join(sorted(tables))} without bumping the"
                        " registry mutation counter",
                    )

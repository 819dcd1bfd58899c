"""RPR003 — every DAO write to pes/workflows bumps the counter and
stamps + journals the changed shards through the one helper.

Invariant (PRs 3/8, ``repro/registry/dao.py``): the registry mutation
counter is the freshness authority for every persisted artifact (index
slabs and delta journals, the only index state on disk), and since
schema v6 each mutation must *also* stamp exactly the ``(user, kind)`` shards it
changed — an unbumped or unstamped write makes a stale slab load as
fresh on the next attach, silently serving deleted or missing rows.
Since schema v8 the stamp and the shard's journal row are one act:
``_stamp_shards`` writes both in the mutation's transaction, so *stamp
== journal tip* holds by construction — as long as nothing stamps or
journals around it.

Where the counter lives: since schema v13 it is a row of
``shard_stamps`` itself, ``(0, 'mutations')`` — user 0 is no user, its
rows are the registry-wide counters, the record tables' id high-water
marks beside it — so one page holds it and the stamps a write moves.
Its writers are helpers too (``_bump_mutation``, ``_issue_ids``), not
the mutating method.

Detection: a method "writes" when it executes SQL matching
``INSERT INTO/UPDATE/DELETE FROM pes|workflows`` — string literals and
f-strings, where a storage row's record-table placeholder
(``{store.table}``) counts as a record table and its owner or text
table (``{store.owners}``, ``{store.text}``) does not, so the SQL must
sit inline at the ``execute`` call.  Such a method must contain both a
``_bump_mutation()`` call and a ``_stamp_shards(...)`` call, and must
not itself write the persisted membership state — stamps, journal or,
since schema v9 made them ids-only membership too, base slabs
(``shard_stamps`` / ``index_deltas`` / ``index_shards`` SQL).
``append_index_delta``, the single journal-row writer, may be called
from ``_stamp_shards`` only.

Hooks: a method a storage row names in a hook slot (``link=``,
``relink=``, ``unlink=``, a string) runs inside the write that calls it,
so its own record writes need no bump or stamp; instead a method that
runs hooks (``_hook(...)``) or calls one by name counts as writing.
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

#: the persisted membership state (stamps, journal, ids-only base
#: slabs) only ``_stamp_shards`` and the base-slab writers, which are
#: not mutations, may touch
_STAMP_SQL_WRITE = re.compile(
    r"(?i)\b(?:insert(?:\s+or\s+\w+)?\s+into|update|delete\s+from)\s+"
    r"(shard_stamps|index_deltas|index_shards)\b"
)

_STAMP_HELPER = "_stamp_shards"
_JOURNAL_WRITER = "append_index_delta"
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


def _written(fn: ast.FunctionDef, sql_write: re.Pattern) -> set[str]:
    """Tables, out of those ``sql_write`` names, whose SQL ``fn``
    itself executes a write to."""
    tables: set[str] = set()
    for node in walk_scope(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("execute", "executemany")
        ):
            sql = _sql_text(node)
            if sql:
                tables.update(sql_write.findall(sql))
    return tables


def _calls(fn: ast.FunctionDef, method: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        for node in walk_scope(fn)
    )


@register_rule
class DaoStampRule(Rule):
    name = "RPR003"
    summary = (
        "DAO methods writing pes/workflows must bump the mutation"
        " counter and stamp + journal the changed shards through"
        " _stamp_shards alone"
    )

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
                if fn.name != _STAMP_HELPER and _calls(fn, _JOURNAL_WRITER):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes a journal row outside"
                        f" {_STAMP_HELPER} (stamp and journal are one act)",
                    )
                tables = _written(fn, _SQL_WRITE)
                # a hook's writes are checked where it runs
                hook = fn.name in hooks
                if not hook and any(
                    _calls(fn, name) for name in {_HOOK_RUNNER, *hooks}
                ):
                    tables.add("its hooks' tables")
                if not tables:
                    continue
                wrote = "/".join(sorted(tables))
                if not hook and not _calls(fn, "_bump_mutation"):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes {wrote} without"
                        " bumping the registry mutation counter"
                        " (persisted slabs would load stale-as-fresh)",
                    )
                if not hook and not _calls(fn, _STAMP_HELPER):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes {wrote} without"
                        " stamping the changed shards"
                        " (_stamp_shards; v6 per-shard freshness)",
                    )
                around = _written(fn, _STAMP_SQL_WRITE)
                if around:
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes"
                        f" {'/'.join(sorted(around))} itself: a mutation"
                        f" stamps and journals only through {_STAMP_HELPER}",
                    )

"""RPR003 — every DAO write to pes/workflows bumps the counter and
stamps + journals the changed shards through the one helper.

Invariant (PRs 3/8, ``repro/registry/dao.py``): the registry mutation
counter is the freshness authority for every persisted artifact (index
slabs, delta journals, IVF/HNSW training state), and since schema v6
each mutation must *also* stamp exactly the ``(user, kind)`` shards it
changed — an unbumped or unstamped write makes a stale slab load as
fresh on the next attach, silently serving deleted or missing rows.
Since schema v8 the stamp and the shard's journal row are one act:
``_stamp_shards`` writes both in the mutation's transaction, so *stamp
== journal tip* holds by construction — as long as nothing stamps or
journals around it.

Detection: a method "writes" when it executes SQL matching
``INSERT INTO/UPDATE/DELETE FROM pes|workflows`` (string literals and
the literal parts of f-strings) or mutates the in-memory
``self._pes``/``self._workflows`` stores; such a method must contain
both a mutation bump (``_bump_mutation()`` call or
``self._mutations += …``) and a ``_stamp_shards(...)`` call, and must
not itself write the persisted membership state — stamps, journal or,
since schema v9 made them ids-only membership too, base slabs
(``shard_stamps`` / ``index_deltas`` / ``index_shards`` SQL, the
``self._shard_stamps``/``_shard_tips``/``_shard_deltas``/
``_base_shards`` stores).  ``append_index_delta``, the single
journal-row writer, may be called from ``_stamp_shards`` only.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.lint import (
    Finding,
    LintModule,
    Rule,
    dotted_name,
    register_rule,
)
from repro.analysis.rules.common import walk_scope

_SQL_WRITE = re.compile(
    r"(?i)\b(?:insert(?:\s+or\s+\w+)?\s+into|update|delete\s+from)\s+"
    r"(pes|workflows)\b"
)

_MEMORY_STORES = {"self._pes", "self._workflows"}

#: the persisted membership state (stamps, journal, ids-only base
#: slabs) only ``_stamp_shards`` and the base-slab writers, which are
#: not mutations, may touch
_STAMP_SQL_WRITE = re.compile(
    r"(?i)\b(?:insert(?:\s+or\s+\w+)?\s+into|update|delete\s+from)\s+"
    r"(shard_stamps|index_deltas|index_shards)\b"
)
_STAMP_STORES = {
    "self._shard_stamps",
    "self._shard_tips",
    "self._shard_deltas",
    "self._base_shards",
}

_STAMP_HELPER = "_stamp_shards"
_JOURNAL_WRITER = "append_index_delta"


def _sql_text(node: ast.Call) -> str | None:
    """The SQL a call executes: a string literal, or the literal parts
    of an f-string (a conditional ``SET`` clause still names its table
    outside the braces)."""
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    if isinstance(first, ast.JoinedStr):
        return " ".join(
            part.value
            for part in first.values
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
    return None


def _written(
    fn: ast.FunctionDef, sql_write: re.Pattern, stores: set[str]
) -> set[str]:
    """Tables (SQL) and in-memory stores ``fn`` itself writes, out of
    the given ones."""
    tables: set[str] = set()
    for node in walk_scope(fn):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in ("execute", "executemany"):
                sql = _sql_text(node)
                if sql:
                    tables.update(sql_write.findall(sql))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    store = dotted_name(target.value)
                    if store in stores:
                        tables.add(store.rsplit("._", 1)[-1])
    return tables


def _has_bump(fn: ast.FunctionDef) -> bool:
    for node in walk_scope(fn):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr == "_bump_mutation":
                return True
        if isinstance(node, ast.AugAssign):
            if dotted_name(node.target) == "self._mutations":
                return True
    return False


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
                tables = _written(fn, _SQL_WRITE, _MEMORY_STORES)
                if not tables:
                    continue
                wrote = "/".join(sorted(tables))
                if not _has_bump(fn):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes {wrote} without"
                        " bumping the registry mutation counter"
                        " (persisted slabs would load stale-as-fresh)",
                    )
                if not _calls(fn, _STAMP_HELPER):
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes {wrote} without"
                        " stamping the changed shards"
                        " (_stamp_shards; v6 per-shard freshness)",
                    )
                around = _written(fn, _STAMP_SQL_WRITE, _STAMP_STORES)
                if around:
                    yield self.finding(
                        module,
                        fn,
                        f"{cls.name}.{fn.name} writes"
                        f" {'/'.join(sorted(around))} itself: a mutation"
                        f" stamps and journals only through {_STAMP_HELPER}",
                    )

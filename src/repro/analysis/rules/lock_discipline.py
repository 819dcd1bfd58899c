"""RPR002 — no ``await``/blocking call while a lock is held.

Invariant (PRs 3/5, batcher + write core): critical sections guard
in-memory state transitions and are sized to stay microseconds-short —
the batcher publishes flush results, the DAO lock holds one write's
transaction.  Sleeping or awaiting inside one turns every contending
thread (or the whole event loop) into a convoy; the runtime complement
is :mod:`repro.analysis.lockwatch`, which catches the dynamic cases
static scoping cannot see.

A context-manager expression "looks like a lock" when its terminal
identifier contains ``lock`` or ``mutex`` — the repo's naming
convention (``self._lock``, ``self._engines_lock``) makes this exact here.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import (
    Finding,
    LintModule,
    Rule,
    dotted_name,
    register_rule,
)
from repro.analysis.rules.common import (
    BLOCKING_CALLS,
    _SCOPE_NODES,
    walk_scope,
)


def _lock_label(item: ast.withitem) -> str | None:
    dotted = dotted_name(item.context_expr)
    if dotted is None:
        return None
    terminal = dotted.rsplit(".", 1)[-1].lower()
    if "lock" in terminal or "mutex" in terminal:
        return dotted
    return None


@register_rule
class LockDisciplineRule(Rule):
    name = "RPR002"
    summary = (
        "no await / blocking call inside a `with <lock>:` critical"
        " section"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            labels = [
                label
                for label in (_lock_label(item) for item in node.items)
                if label is not None
            ]
            if not labels:
                continue
            held = ", ".join(labels)
            for stmt in node.body:
                for inner in _walk_statement(stmt):
                    if isinstance(inner, ast.Await):
                        yield self.finding(
                            module,
                            inner,
                            f"await while {held} is held blocks every"
                            " contender for the duration of the awaited"
                            " I/O",
                        )
                    elif isinstance(inner, ast.Call):
                        origin = module.resolve_call(inner)
                        if origin in BLOCKING_CALLS:
                            yield self.finding(
                                module,
                                inner,
                                f"blocking call {origin}() while {held}"
                                " is held convoys every contender",
                            )


def _walk_statement(stmt: ast.stmt):
    yield stmt
    if not isinstance(stmt, _SCOPE_NODES):
        # a def/class statement under the lock only *creates* the
        # object; its body runs elsewhere, outside the critical section
        yield from walk_scope(stmt)

"""RPR005 — no nondeterminism sources in ranking/merge/fusion code paths.

Invariant (PRs 1/7): search results are *bitwise* reproducible —
batched == single-shot == brute-force, hybrid fusion stable across
runs.  The parity tests pin the
outputs; this rule pins the inputs by banning the classic entropy
sources from the ranking modules: wall-clock reads, ``random``/
``numpy.random``, UUIDs, and direct iteration over sets (whose order
varies with insertion history and hash seeding).  ``time.monotonic``/
``time.sleep`` stay legal — they shape latency, never result order.

Scope is the bitwise-determinism surface named in the architecture
docs: ``repro/search/{index,fusion,serving}.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import Finding, LintModule, Rule, register_rule

_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "uuid.uuid4",
        "uuid.uuid1",
    }
)

_BANNED_PREFIXES = ("random.", "numpy.random.")

_SURFACE = (
    "repro/search/index.py",
    "repro/search/fusion.py",
    "repro/search/serving.py",
)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_rule
class DeterminismRule(Rule):
    name = "RPR005"
    summary = (
        "no time.time()/random/uuid/set-iteration in the"
        " bitwise-determinism surface (search ranking/merge/fusion)"
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.posix.endswith(_SURFACE)

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                origin = module.resolve_call(node)
                if origin is None:
                    continue
                if origin in _BANNED_CALLS or origin.startswith(
                    _BANNED_PREFIXES
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{origin}() in a ranking/merge path breaks"
                        " bitwise reproducibility",
                    )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(
                    module,
                    node.iter,
                    "iterating a set in a ranking/merge path: order"
                    " depends on insertion history — sort first",
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield self.finding(
                            module,
                            comp.iter,
                            "comprehension over a set in a ranking/"
                            "merge path: order depends on insertion"
                            " history — sort first",
                        )

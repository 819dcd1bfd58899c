"""AST feature extraction — the structural view of code.

UnixCoder's distinguishing trait (paper §2.3) is converting Abstract
Syntax Trees into sequential text so the encoder sees structure as well
as surface tokens.  This module provides the equivalent hand-rolled
features:

* :func:`structural_features` — parent>child node-type bigrams, call
  targets, literal kinds, control-flow shape.  These are *identifier
  independent*, which is what lets AST-based models find renamed clones.
* :func:`dataflow_pairs` — normalized variable def-use chains, the
  GraphCodeBERT-style dataflow signal.

All functions tolerate partial code: if the text does not parse as a
module we retry with common fragment repairs and fall back to empty
features rather than raising.
"""

from __future__ import annotations

import ast
import textwrap

from repro import pyast


def parse_lenient(source: str) -> ast.AST | None:
    """Parse ``source``, tolerating indentation and trailing fragments.

    Attempts, in order: as-is, dedented, wrapped in a function (for bare
    ``return``/``yield`` fragments), and progressively truncated to the
    longest parsable line prefix (for partial-code completion queries).
    Returns ``None`` if nothing parses.
    """
    candidates = [source, textwrap.dedent(source)]
    wrapped = "def __fragment__():\n" + textwrap.indent(
        textwrap.dedent(source) or "pass", "    "
    )
    candidates.append(wrapped)
    for candidate in candidates:
        try:
            return pyast.parse(candidate)
        except SyntaxError:
            continue
    # longest parsable prefix, useful for cut-off partial code
    lines = textwrap.dedent(source).splitlines()
    for end in range(len(lines) - 1, 0, -1):
        prefix = "\n".join(lines[:end])
        for candidate in (
            prefix,
            "def __fragment__():\n" + textwrap.indent(prefix or "pass", "    "),
        ):
            try:
                return pyast.parse(candidate)
            except SyntaxError:
                continue
    return None


def structural_features(source: str) -> list[str]:
    """Identifier-independent structural features.

    Feature families (prefixed to keep hash spaces disjoint):

    * ``ast2:Parent>Child`` — node-type bigrams along tree edges
    * ``call:name`` — called function/attribute names (API usage is a
      strong clone signal that survives local-variable renames)
    * ``op:Kind`` — operator node kinds (Add, Mod, Pow, ...)
    * ``shape:...`` — control-flow summary (loop depth, branch count)
    """
    tree = parse_lenient(source)
    if tree is None:
        return []
    features: list[str] = []
    max_depth = 0
    n_loops = n_branches = 0

    def call_name(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def visit(node: ast.AST, depth: int) -> None:
        nonlocal max_depth, n_loops, n_branches
        max_depth = max(max_depth, depth)
        parent_name = type(node).__name__
        if isinstance(node, (ast.For, ast.While)):
            n_loops += 1
        if isinstance(node, ast.If):
            n_branches += 1
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name:
                features.append(f"call:{name}")
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare)):
            if isinstance(node, ast.Compare):
                for op in node.ops:
                    features.append(f"op:{type(op).__name__}")
            elif isinstance(node, ast.BoolOp):
                features.append(f"op:{type(node.op).__name__}")
            else:
                features.append(f"op:{type(node.op).__name__}")
        for child in ast.iter_child_nodes(node):
            child_name = type(child).__name__
            if child_name not in ("Load", "Store", "Del"):
                features.append(f"ast2:{parent_name}>{child_name}")
            visit(child, depth + 1)

    visit(tree, 0)
    features.append(f"shape:depth={min(max_depth, 12)}")
    features.append(f"shape:loops={min(n_loops, 6)}")
    features.append(f"shape:branches={min(n_branches, 6)}")
    return features


def dataflow_pairs(source: str) -> list[str]:
    """Normalized def-use dataflow edges (GraphCodeBERT's extra signal).

    Variables are renamed to slots (``v0``, ``v1``, ...) in first-definition
    order, making the features invariant under consistent identifier
    renaming.  Each feature is ``df:<def-slot>-><use-context>``.
    """
    tree = parse_lenient(source)
    if tree is None:
        return []
    slots: dict[str, str] = {}

    def slot_of(name: str) -> str:
        if name not in slots:
            slots[name] = f"v{len(slots)}"
        return slots[name]

    features: list[str] = []

    class Visitor(ast.NodeVisitor):
        def visit_Assign(self, node: ast.Assign) -> None:
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        slot = slot_of(leaf.id)
                        features.append(
                            f"df:{slot}<-{type(node.value).__name__}"
                        )
            self.generic_visit(node)

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            if isinstance(node.target, ast.Name):
                slot = slot_of(node.target.id)
                features.append(f"df:{slot}<-aug{type(node.op).__name__}")
            self.generic_visit(node)

        def visit_For(self, node: ast.For) -> None:
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    features.append(f"df:{slot_of(leaf.id)}<-iter")
            self.generic_visit(node)

        def visit_arg(self, node: ast.arg) -> None:
            slot_of(node.arg)

        def visit_Name(self, node: ast.Name) -> None:
            if isinstance(node.ctx, ast.Load) and node.id in slots:
                features.append(f"df:use:{slots[node.id]}")

    Visitor().visit(tree)
    return features


def docstring_of(source: str) -> str:
    """First docstring found in the module / its first def or class."""
    tree = parse_lenient(source)
    if tree is None:
        return ""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            doc = ast.get_docstring(node)
            if doc:
                return doc
    return ""

"""Semantics-preserving code mutations for corpus fabrication.

The clone clusters of the CodeNet-like dataset and the corpus diversity
of the CoSQA/CSN-like datasets come from applying these mutations to the
code bank's reference implementations:

* :func:`rename_identifiers` — consistent renaming of user-defined
  identifiers (function names, parameters, locals) in one of several
  naming styles; attribute names, builtins and imports are preserved, so
  mutated code still runs.
* :func:`strip_docstrings` / :func:`strip_comments` — remove the NL
  signal (CodeNet submissions rarely carry documentation).
* :func:`truncate_code` — keep the leading fraction of lines, producing
  the partial-code queries of the clone-detection evaluation.
"""

from __future__ import annotations

import ast
import builtins
import random
import re

from repro import pyast

_BUILTIN_NAMES = frozenset(dir(builtins))

#: naming-style pools for renaming
_SNAKE_WORDS = (
    "value", "item", "total", "result", "current", "entry", "record",
    "element", "number", "bucket", "accum", "cursor", "piece", "chunk",
    "sample", "token", "figure", "slot", "probe", "datum", "cell",
)
_CAMEL_WORDS = (
    "Value", "Item", "Total", "Result", "Current", "Entry", "Record",
    "Element", "Number", "Bucket", "Accum", "Cursor", "Piece", "Chunk",
)
_ABBREVS = (
    "a", "b", "c", "d", "x", "y", "z", "p", "q", "r", "s", "t", "u", "v",
    "n1", "n2", "k1", "k2", "m1", "m2",
)


def collect_renameable(source: str) -> list[str]:
    """User-defined identifiers safe to rename, in first-seen order.

    Includes function definition names, parameters, assigned locals and
    loop/comprehension targets; excludes builtins, imported names and
    anything only ever read (likely a global/builtin reference).
    """
    try:
        tree = pyast.parse(source)
    except SyntaxError:
        return []
    imported: set[str] = set()
    defined: list[str] = []
    seen: set[str] = set()

    def mark(name: str) -> None:
        if (
            name
            and name not in seen
            and name not in _BUILTIN_NAMES
            and not name.startswith("__")
        ):
            seen.add(name)
            defined.append(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mark(node.name)
            for arg in (
                list(node.args.args)
                + list(node.args.posonlyargs)
                + list(node.args.kwonlyargs)
            ):
                mark(arg.arg)
            if node.args.vararg:
                mark(node.args.vararg.arg)
            if node.args.kwarg:
                mark(node.args.kwarg.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            mark(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    mark(leaf.id)
    return [name for name in defined if name not in imported]


def _style_name(style: str, index: int, rng: random.Random, used: set[str]) -> str:
    for _attempt in range(50):
        if style == "snake":
            name = rng.choice(_SNAKE_WORDS) + "_" + rng.choice(_SNAKE_WORDS)
        elif style == "camel":
            name = rng.choice(_SNAKE_WORDS) + rng.choice(_CAMEL_WORDS)
        elif style == "abbrev":
            name = rng.choice(_ABBREVS)
        else:  # generic (AdvTest-style normalization)
            name = f"var{index}"
        if name not in used and name not in _BUILTIN_NAMES:
            used.add(name)
            return name
    name = f"ident{index}_{rng.randrange(1000)}"
    used.add(name)
    return name


def rename_identifiers(
    source: str, rng: random.Random, style: str = "snake",
    keep: set[str] | None = None,
) -> str:
    """Consistently rename user identifiers in the given naming style.

    ``keep`` protects selected names (e.g. the function's own name when a
    CSN-style dataset should preserve entry-point naming).  Occurrences
    after a dot (attributes) are never touched.
    """
    names = [n for n in collect_renameable(source) if not keep or n not in keep]
    if not names:
        return source
    used: set[str] = set(names) | (keep or set())
    mapping = {
        name: _style_name(style, i, rng, used) for i, name in enumerate(names)
    }
    out = source
    for old, new in mapping.items():
        out = re.sub(rf"(?<![\w.]){re.escape(old)}\b", new, out)
    return out


def strip_docstrings(source: str) -> str:
    """Remove module/function/class docstrings, keeping code lines."""
    try:
        tree = pyast.parse(source)
    except SyntaxError:
        return source
    doomed: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                stmt = body[0]
                doomed.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
    if not doomed:
        return source
    lines = source.splitlines()
    dead = {
        line_no
        for start, end in doomed
        for line_no in range(start, end + 1)
    }
    kept = [line for i, line in enumerate(lines, 1) if i not in dead]
    return "\n".join(kept) + ("\n" if source.endswith("\n") else "")


def strip_comments(source: str) -> str:
    """Remove ``#`` comments (outside string literals), keep code."""
    out_lines = []
    for line in source.splitlines():
        result = []
        quote: str | None = None
        i = 0
        while i < len(line):
            char = line[i]
            if quote:
                result.append(char)
                if char == quote and (i == 0 or line[i - 1] != "\\"):
                    quote = None
            elif char in ("'", '"'):
                quote = char
                result.append(char)
            elif char == "#":
                break
            else:
                result.append(char)
            i += 1
        text = "".join(result).rstrip()
        if text or not line.strip().startswith("#"):
            out_lines.append(text)
    return "\n".join(out_lines) + ("\n" if source.endswith("\n") else "")


def truncate_code(source: str, fraction: float = 0.5, min_lines: int = 2) -> str:
    """Keep the leading ``fraction`` of non-empty lines (partial code)."""
    lines = [line for line in source.splitlines() if line.strip()]
    keep = max(min_lines, int(round(len(lines) * fraction)))
    return "\n".join(lines[:keep]) + "\n"


def make_clone(
    source: str,
    rng: random.Random,
    *,
    style: str | None = None,
    strip_doc: bool = True,
    strip_com: bool = True,
    keep: set[str] | None = None,
) -> str:
    """One mutated clone: optional doc/comment strip + style renaming."""
    out = source
    if strip_doc:
        out = strip_docstrings(out)
    if strip_com:
        out = strip_comments(out)
    chosen = style or rng.choice(("snake", "camel", "abbrev", "generic"))
    return rename_identifiers(out, rng, chosen, keep=keep)

"""Code summarization — the ``codet5-base-multi-sum`` substitute (§2.5).

Laminar stores a natural-language description for every PE; when the
user does not provide one, the Client auto-generates it from the code.
Offline we replace the CodeT5 generator with an AST-driven template
summarizer: docstrings win, then leading comments, then a phrase
composed from API-idiom mining and identifier subtokens.  The output is
a short imperative sentence ("Generate a random number and stream it
out"), the same register as the paper's Figure 7 auto-descriptions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.ml.ast_features import parse_lenient
from repro.ml.tokenize import split_subtokens

#: verbs that commonly lead identifier names; used to phrase summaries
_VERBS = {
    "get", "set", "read", "load", "download", "fetch", "parse", "filter",
    "compute", "calc", "calculate", "check", "count", "print", "find",
    "search", "sort", "make", "build", "gen", "generate", "produce",
    "write", "save", "send", "stream", "sum", "merge", "split", "extract",
    "transform", "convert", "normalize", "update", "remove", "delete",
    "select", "apply", "run", "process", "emit", "collect", "reverse",
    "encode", "decode", "validate", "measure", "detect", "classify",
}

#: API call -> phrase fragments mined from the body
_CALL_IDIOMS: dict[str, str] = {
    "randint": "generates random integers",
    "random": "generates random values",
    "uniform": "generates random values",
    "choice": "picks random elements",
    "print": "prints its input",
    "append": "accumulates items",
    "sum": "sums values",
    "sorted": "sorts data",
    "sort": "sorts data",
    "len": "measures lengths",
    "open": "reads a file",
    "readlines": "reads file lines",
    "split": "splits text",
    "join": "joins text",
    "match": "matches regular expressions",
    "findall": "matches regular expressions",
    "sub": "rewrites text",
    "sqrt": "computes square roots",
    "mean": "averages values",
    "dot": "multiplies matrices",
    "urlopen": "downloads data",
    "get": "retrieves data",
    "loads": "parses serialized data",
    "dumps": "serializes data",
    "lower": "normalizes case",
    "strip": "trims whitespace",
    "count": "counts occurrences",
    "max": "finds maxima",
    "min": "finds minima",
    "write": "writes output",
    "zip": "pairs sequences",
}


@dataclass
class CodeSummary:
    """A generated summary with its provenance."""

    text: str
    source: str  # "docstring" | "comment" | "template"


def _first_comment(source: str) -> str | None:
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if len(comment.split()) >= 2:
                return comment
    return None


def _name_phrase(name: str) -> str | None:
    subtokens = list(split_subtokens(name))
    if not subtokens:
        return None
    if subtokens[0] == "is" and len(subtokens) > 1:
        return "checks whether the input is " + " ".join(subtokens[1:])
    if subtokens[0] in _VERBS:
        verb = subtokens[0]
        rest = " ".join(subtokens[1:])
        verb_s = verb if verb.endswith("s") else verb + "s"
        return f"{verb_s} {rest}".strip()
    if subtokens[-1] in ("producer", "generator", "source"):
        return "produces " + " ".join(subtokens[:-1]) + " data"
    if subtokens[-1] in ("consumer", "sink", "printer", "writer"):
        return "consumes " + " ".join(subtokens[:-1]) + " data"
    if subtokens[-1] in ("counter",):
        return "counts " + " ".join(subtokens[:-1])
    return None


@dataclass
class _Outline:
    """What the summarizer needs from one breadth-first walk of the
    tree: definitions and called names, each in walk order."""

    classes: list[ast.ClassDef]
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef]
    called: list[str]


def _outline(tree: ast.AST) -> _Outline:
    outline = _Outline([], [], [])
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            outline.classes.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outline.functions.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                outline.called.append(func.id)
            elif isinstance(func, ast.Attribute):
                outline.called.append(func.attr)
    return outline


def _called_idioms(outline: _Outline) -> list[str]:
    phrases: list[str] = []
    for name in outline.called:
        phrase = _CALL_IDIOMS.get(name)
        if phrase and phrase not in phrases:
            phrases.append(phrase)
    return phrases


def _primary_definition(tree: ast.AST, outline: _Outline) -> ast.AST:
    """The node to summarize: `_process` inside a PE class, else the
    first function, else the whole module."""
    for cls in outline.classes:
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "_process":
                return item
    for function in outline.functions:
        if not function.name.startswith("__"):
            return function
    return tree


def _definition_name(outline: _Outline, fallback: str | None) -> str | None:
    if outline.classes:
        return outline.classes[0].name
    for function in outline.functions:
        if not function.name.startswith("_"):
            return function.name
    return fallback


def summarize_code(source: str, name: str | None = None) -> CodeSummary:
    """Generate a one-sentence NL summary of ``source``.

    ``name`` optionally supplies the entity name (PE class name) when the
    source is a fragment without its own definition.
    """
    tree = parse_lenient(source)
    outline = _outline(tree) if tree is not None else None

    # 1. docstring of the main definition
    if outline is not None:
        target = _primary_definition(tree, outline)
        doc = None
        if isinstance(
            target, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            doc = ast.get_docstring(target)
        if not doc and not isinstance(target, ast.Module):
            doc = ast.get_docstring(tree) if isinstance(tree, ast.Module) else None
        if doc:
            first = doc.strip().splitlines()[0].rstrip(".")
            return CodeSummary(first + ".", "docstring")

    # 2. leading comment in the (processing) body
    comment = _first_comment(source)
    if comment:
        text = comment[0].upper() + comment[1:]
        return CodeSummary(text.rstrip(".") + ".", "comment")

    # 3. template: name phrase + API idioms
    clauses: list[str] = []
    entity = _definition_name(outline, name) if outline is not None else name
    if entity:
        phrase = _name_phrase(entity)
        if phrase:
            clauses.append(phrase)
    if outline is not None:
        idioms = _called_idioms(outline)
        clauses.extend(p for p in idioms[:2] if p not in clauses)
    if not clauses:
        if entity:
            words = " ".join(split_subtokens(entity)) or entity
            clauses.append(f"processes {words} data")
        else:
            clauses.append("processes streaming data")
    body = " and ".join(clauses)
    return CodeSummary(f"A PE that {body}.", "template")


class CodeT5Summarizer:
    """Drop-in object with the interface the Client expects.

    Mirrors how Laminar wraps ``codet5-base-multi-sum``: a ``summarize``
    method taking source text and returning the description string stored
    in the Registry's ``description`` property.
    """

    name = "codet5-base-multi-sum"

    def summarize(self, source: str, name: str | None = None) -> str:
        return summarize_code(source, name).text

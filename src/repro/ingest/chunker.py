"""Pure-python AST chunker: source files -> registrable code chunks.

Splits a ``.py`` file into function/class-level chunks (the granularity
semantic code search retrieves at — one chunk is one candidate PE),
entirely with the stdlib ``ast`` module:

* every top-level ``def`` / ``async def`` becomes a **function** chunk,
  decorators included; nested defs stay *inside* their parent chunk
  (they are implementation detail, not retrieval units);
* every method of a class (recursively: ``Outer.Inner.method``) becomes
  a function chunk under its dotted qualname, and the class *header* —
  decorators through the line before its first method, i.e. the
  docstring and class-level assignments — becomes a **class** chunk
  (a class without methods chunks whole); header and methods never
  overlap, so the corpus stores each source line at most once;
* module-level statements outside imports/defs/classes collapse into
  one ``__module__`` chunk (scripts are retrievable too);
* files that fail to parse are **skipped cleanly** (``None``) — an
  ingest must survive a repository containing broken or templated
  sources;
* any chunk longer than ``max_chunk_lines`` is re-split into
  consecutive **window** chunks (``qualname[i]``), and non-``.py``
  text files fall back to plain line windows — the size cap bounds
  both the embedding cost and the stored payload per record.

Chunk identity is *stable*: :attr:`Chunk.chunk_id` hashes
``path + qualname + code-hash``, so re-ingesting an unchanged file
reproduces byte-identical names and codes and the registry's §3.1
dedup-by-identity resolves every chunk onto its existing record.

Each chunk also carries its **module context** (a ``# module:`` banner
plus the file's import lines) — prepended to the embedded source text
so "where does this function live, what does it import" informs the
semantic shard without polluting the stored code payload.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro import pyast

#: default size cap (lines) before a chunk re-splits into windows
DEFAULT_MAX_CHUNK_LINES = 200

#: import lines kept in the module context (a 500-import __init__ would
#: otherwise dominate every chunk's embedding)
_MAX_CONTEXT_IMPORTS = 30


@dataclass(frozen=True)
class Chunk:
    """One registrable unit of a source file."""

    path: str  # repo-relative, posix separators
    qualname: str  # dotted definition path ("" never occurs)
    kind: str  # function | class | module | window
    start_line: int  # 1-based, inclusive
    end_line: int  # 1-based, inclusive
    code: str  # the chunk's source lines, verbatim
    context: str  # module banner + import lines (may be "")
    docstring: str  # first docstring line, or ""
    imports: tuple[str, ...] = ()  # module names the file imports

    @property
    def name(self) -> str:
        """The registry name this chunk registers under — stable and
        human-readable: ``pkg/mod.py::Class.method``."""
        return f"{self.path}::{self.qualname}"

    @property
    def chunk_id(self) -> str:
        """Stable id: same path + qualname + code bytes -> same id."""
        digest = hashlib.sha1(self.code.encode("utf-8")).hexdigest()
        raw = f"{self.path}::{self.qualname}::{digest}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def source_text(self) -> str:
        """What the semantic/code shards embed: context + code."""
        if not self.context:
            return self.code
        return f"{self.context}\n\n{self.code}"


def chunk_file(
    path: str,
    text: str,
    *,
    max_chunk_lines: int = DEFAULT_MAX_CHUNK_LINES,
) -> list[Chunk] | None:
    """Chunk one file by suffix; ``None`` means "skip this file"."""
    if path.endswith(".py"):
        return chunk_python(path, text, max_chunk_lines=max_chunk_lines)
    return chunk_text(path, text, window_lines=max_chunk_lines)


# ---------------------------------------------------------------------------
# Python files
# ---------------------------------------------------------------------------
def chunk_python(
    path: str,
    source: str,
    *,
    max_chunk_lines: int = DEFAULT_MAX_CHUNK_LINES,
) -> list[Chunk] | None:
    """AST-chunk a python source; ``None`` when it does not parse."""
    try:
        tree = pyast.parse(source)
    except (SyntaxError, ValueError):  # ValueError: NUL bytes
        return None
    lines = source.splitlines()
    imports, import_spans = _module_imports(tree)
    context = _module_context(path, lines, import_spans)

    def make(
        qualname: str, kind: str, start: int, end: int, code: str, doc: str
    ) -> Iterable[Chunk]:
        chunk = Chunk(
            path=path,
            qualname=qualname,
            kind=kind,
            start_line=start,
            end_line=end,
            code=code,
            context=context,
            docstring=doc,
            imports=imports,
        )
        return _split_oversized(chunk, max_chunk_lines)

    chunks: list[Chunk] = []

    def walk(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start, end = _node_span(node)
                chunks.extend(
                    make(
                        prefix + node.name,
                        "function",
                        start,
                        end,
                        _segment(lines, start, end),
                        _first_doc_line(node),
                    )
                )
            elif isinstance(node, ast.ClassDef):
                start, end = _node_span(node)
                defs = [
                    child
                    for child in node.body
                    if isinstance(
                        child,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                ]
                header_end = (
                    min(_node_span(child)[0] for child in defs) - 1
                    if defs
                    else end
                )
                if header_end >= start:
                    chunks.extend(
                        make(
                            prefix + node.name,
                            "class",
                            start,
                            header_end,
                            _segment(lines, start, header_end),
                            _first_doc_line(node),
                        )
                    )
                walk(node.body, prefix + node.name + ".")

    walk(tree.body, "")

    module_spans = _module_level_spans(tree)
    if module_spans:
        code = "\n".join(
            _segment(lines, start, end) for start, end in module_spans
        )
        chunks.extend(
            make(
                "__module__",
                "module",
                module_spans[0][0],
                module_spans[-1][1],
                code,
                "",
            )
        )
    return chunks


def _node_span(node: ast.stmt) -> tuple[int, int]:
    """(start, end) 1-based inclusive lines, decorators included."""
    start = node.lineno
    for decorator in getattr(node, "decorator_list", []):
        start = min(start, decorator.lineno)
    return start, node.end_lineno or node.lineno


def _segment(lines: list[str], start: int, end: int) -> str:
    return "\n".join(lines[start - 1 : end])


def _first_doc_line(node: ast.AST) -> str:
    doc = ast.get_docstring(node)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def _module_imports(
    tree: ast.Module,
) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """(imported module names, import statement line spans)."""
    names: list[str] = []
    spans: list[tuple[int, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or ".")
        else:
            continue
        spans.append((node.lineno, node.end_lineno or node.lineno))
    seen: dict[str, None] = {}
    for name in names:
        seen.setdefault(name)
    return tuple(seen), spans


def _module_context(
    path: str, lines: list[str], import_spans: list[tuple[int, int]]
) -> str:
    parts = [f"# module: {path}"]
    for start, end in import_spans[:_MAX_CONTEXT_IMPORTS]:
        parts.append(_segment(lines, start, end))
    return "\n".join(parts)


def _module_level_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans of module statements outside imports/defs/classes
    (and outside the module docstring)."""
    spans: list[tuple[int, int]] = []
    for position, node in enumerate(tree.body):
        if isinstance(
            node,
            (
                ast.Import,
                ast.ImportFrom,
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
            ),
        ):
            continue
        if (
            position == 0
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue  # the module docstring
        spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _split_oversized(chunk: Chunk, max_chunk_lines: int) -> list[Chunk]:
    """Apply the size cap: an oversized chunk re-splits into windows."""
    total = chunk.end_line - chunk.start_line + 1
    if total <= max_chunk_lines:
        return [chunk]
    lines = chunk.code.splitlines()
    windows: list[Chunk] = []
    for index, offset in enumerate(range(0, len(lines), max_chunk_lines)):
        window = lines[offset : offset + max_chunk_lines]
        windows.append(
            Chunk(
                path=chunk.path,
                qualname=f"{chunk.qualname}[{index}]",
                kind="window",
                start_line=chunk.start_line + offset,
                end_line=chunk.start_line + offset + len(window) - 1,
                code="\n".join(window),
                context=chunk.context,
                docstring=chunk.docstring if index == 0 else "",
                imports=chunk.imports,
            )
        )
    return windows


# ---------------------------------------------------------------------------
# Non-python text files
# ---------------------------------------------------------------------------
def chunk_text(
    path: str,
    text: str,
    *,
    window_lines: int = DEFAULT_MAX_CHUNK_LINES,
) -> list[Chunk] | None:
    """Line-window fallback for plain-text files; ``None`` for binary."""
    if "\x00" in text:
        return None
    lines = text.splitlines()
    if not lines:
        return []
    chunks: list[Chunk] = []
    for offset in range(0, len(lines), window_lines):
        window = lines[offset : offset + window_lines]
        start = offset + 1
        end = offset + len(window)
        chunks.append(
            Chunk(
                path=path,
                qualname=f"L{start}-L{end}",
                kind="window",
                start_line=start,
                end_line=end,
                code="\n".join(window),
                context=f"# file: {path}",
                docstring="",
            )
        )
    return chunks

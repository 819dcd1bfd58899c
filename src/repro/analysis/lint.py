"""The repo-specific lint framework: rule registry, runner, suppression.

This is deliberately *not* a general-purpose linter — it is the
mechanical form of the invariants this codebase documents in prose
(docstrings, CHANGES.md, module architecture notes).  Each rule lives
in :mod:`repro.analysis.rules`, registers itself under a stable
``RPRnnn`` name, and checks one invariant over the AST of one module.
See :mod:`repro.analysis` for the rule table and the bug history each
rule encodes.

Design:

* **Rules** subclass :class:`Rule` and are registered with
  :func:`register_rule`.  A rule declares which files it ``applies_to``
  (path-substring scoping, so the same rule fires on golden-test
  snippets laid out under a ``repro/...``-shaped temp tree) and yields
  :class:`Finding` objects from ``check``.
* **Name resolution** is import-map based, not type inference: a call
  is matched by resolving its dotted path through the module's import
  aliases (``from time import sleep as pause`` → ``pause()`` resolves
  to ``time.sleep``).  Method calls on arbitrary objects are out of
  scope by design — the runtime lock-order detector
  (:mod:`repro.analysis.lockwatch`) covers the dynamic side.
* **Suppression** is per-line and per-rule: ``# lint: disable=RPR002``
  on the finding's line suppresses exactly that rule there (comma
  lists and ``disable=all`` work); ``# lint: disable-file=RPR101``
  anywhere in the file suppresses the rule for the whole file.  Every
  suppression in this repo must carry a one-line reason after the
  directive — deliberate exceptions are documented where they live.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro import pyast

__all__ = [
    "Finding",
    "LintError",
    "LintModule",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_findings",
    "render_json",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_json(self) -> dict:
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintError:
    """A file the linter could not analyze (syntax/decoding error)."""

    path: str
    message: str


#: ``# lint: disable=RPR001,RPR002 — reason`` / ``# lint: disable-file=…``
_DIRECTIVE = re.compile(
    r"#\s*lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>(?:all|\*|[A-Za-z0-9_]+)(?:\s*,\s*(?:all|\*|[A-Za-z0-9_]+))*)"
)


class LintModule:
    """One parsed source file handed to every applicable rule."""

    def __init__(self, path: str | Path, source: str) -> None:
        self.path = Path(path)
        #: posix-style path string rules scope on (``applies_to``)
        self.posix = self.path.as_posix()
        self.source = source
        self.tree = pyast.parse(source, filename=str(path))
        self.import_map = _build_import_map(self.tree)
        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        self._collect_directives(source)

    def _collect_directives(self, source: str) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.search(token.string)
                if match is None:
                    continue
                rules = {
                    name.strip()
                    for name in match.group("rules").split(",")
                }
                rules = {"all" if r == "*" else r for r in rules}
                if match.group("scope") == "disable-file":
                    self.file_disables |= rules
                else:
                    self.line_disables.setdefault(
                        token.start[0], set()
                    ).update(rules)
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            pass  # the ast parse succeeded; comments stay best-effort

    def suppressed(self, rule: str, line: int) -> bool:
        if {"all", rule} & self.file_disables:
            return True
        at_line = self.line_disables.get(line, ())
        return "all" in at_line or rule in at_line

    def resolve_call(self, node: ast.Call) -> str | None:
        """The dotted origin of a call through the import aliases.

        ``pause()`` after ``from time import sleep as pause`` resolves
        to ``"time.sleep"``; calls on local objects resolve to ``None``.
        """
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        origin = self.import_map.get(root)
        if origin is None:
            return None
        return origin + ("." + rest if rest else "")


class Rule:
    """Base class for lint rules; subclasses register via
    :func:`register_rule` and override :meth:`check`."""

    #: stable rule id (``RPRnnn``) used in findings and suppressions
    name: str = ""
    #: one-line description shown by ``repro lint --list-rules``
    summary: str = ""

    def applies_to(self, module: LintModule) -> bool:
        return True

    def check(self, module: LintModule) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its name."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name}")
    _REGISTRY[cls.name] = cls()
    return cls


def all_rules() -> dict[str, Rule]:
    """The registered rules (name → instance), loading the bundled set."""
    # the bundled rules self-register on import; idempotent
    import repro.analysis.rules  # lint: disable=RPR101 — import-for-effect

    return dict(sorted(_REGISTRY.items()))


def _select_rules(names: Sequence[str] | None) -> list[Rule]:
    registry = all_rules()
    if names is None:
        return list(registry.values())
    selected = []
    for name in names:
        if name not in registry:
            raise KeyError(
                f"unknown rule {name!r}; known: {', '.join(registry)}"
            )
        selected.append(registry[name])
    return selected


def lint_source(
    source: str,
    path: str | Path = "<string>",
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one source string (the golden-test entry point)."""
    module = LintModule(path, source)
    findings: list[Finding] = []
    for rule in _select_rules(rules):
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not module.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _iter_py_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.parts
                ):
                    yield candidate
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
) -> tuple[list[Finding], list[LintError]]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    errors: list[LintError] = []
    for path in _iter_py_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            findings.extend(lint_source(source, path, rules))
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(LintError(str(path), f"{type(exc).__name__}: {exc}"))
    return findings, errors


def render_findings(
    findings: Sequence[Finding], errors: Sequence[LintError] = ()
) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in findings
    ]
    lines.extend(f"{e.path}: error: {e.message}" for e in errors)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], errors: Sequence[LintError] = ()
) -> str:
    """Machine-readable output for CI annotations (``repro lint --json``)."""
    return json.dumps(
        {
            "findings": [f.to_json() for f in findings],
            "errors": [
                {"file": e.path, "message": e.message} for e in errors
            ],
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# Shared AST helpers used by the bundled rules
# ---------------------------------------------------------------------------
def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _build_import_map(tree: ast.Module) -> dict[str, str]:
    """Local binding name → dotted origin, from the module's imports."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; using ``a.b.c.f``
                    # resolves through the root
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports stay unresolved
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def dotted_name(node: ast.AST) -> str | None:
    """Public alias of the dotted-chain helper for rule modules."""
    return _dotted(node)

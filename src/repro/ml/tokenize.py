"""Tokenizers for code and natural language.

Three views of text feed the embedders:

* :func:`tokenize_code` — a regex lexer producing identifier / number /
  operator / string tokens.  Regex rather than :mod:`tokenize` because
  code-completion queries are *partial* programs that need not parse.
* :func:`split_subtokens` — camelCase / snake_case / digit-boundary
  splitting (``readRaDec`` -> ``read ra dec``), the normalization that
  separates the "fine-tuned" code-search model from its base variant.
* :func:`tokenize_text` — lowercase word tokens with light stemming and a
  small programming-synonym table, for natural-language queries.
"""

from __future__ import annotations

import re
from functools import lru_cache

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_STRING = r"(?:'[^'\n]*'|\"[^\"\n]*\")"
_OPERATOR = r"(?:==|!=|<=|>=|->|\*\*|//|[-+*/%<>=!&|^~@.,:;()\[\]{}])"

_CODE_TOKEN = re.compile(
    rf"(?P<string>{_STRING})|(?P<number>{_NUMBER})"
    rf"|(?P<name>{_IDENTIFIER})|(?P<op>{_OPERATOR})"
)

_WORD = re.compile(r"[A-Za-z]+")

#: Python keywords — kept by the lexer but filterable by embedders
PYTHON_KEYWORDS = frozenset(
    """False None True and as assert async await break class continue def
    del elif else except finally for from global if import in is lambda
    nonlocal not or pass raise return try while with yield self cls
    print len range int str float list dict set tuple""".split()
)

#: small synonym table mapping NL query vocabulary onto code vocabulary —
#: the lexical bridge a contrastively trained code-search model learns.
PROGRAMMING_SYNONYMS: dict[str, str] = {
    "integer": "int",
    "integers": "int",
    "number": "num",
    "numbers": "num",
    "numeric": "num",
    "string": "str",
    "strings": "str",
    "text": "str",
    "array": "list",
    "arrays": "list",
    "lists": "list",
    "dictionary": "dict",
    "dictionaries": "dict",
    "mapping": "dict",
    "boolean": "bool",
    "calculate": "compute",
    "calculates": "compute",
    "calculating": "compute",
    "computes": "compute",
    "computing": "compute",
    "determine": "check",
    "determines": "check",
    "verify": "check",
    "verifies": "check",
    "checks": "check",
    "checking": "check",
    "test": "check",
    "tests": "check",
    "produce": "generate",
    "produces": "generate",
    "create": "generate",
    "creates": "generate",
    "generates": "generate",
    "generating": "generate",
    "output": "print",
    "display": "print",
    "show": "print",
    "prints": "print",
    "maximum": "max",
    "minimum": "min",
    "largest": "max",
    "smallest": "min",
    "biggest": "max",
    "average": "mean",
    "reverse": "invert",
    "reversed": "invert",
    "sorted": "sort",
    "sorting": "sort",
    "sorts": "sort",
    "frequency": "count",
    "frequencies": "count",
    "occurrences": "count",
    "counts": "count",
    "counting": "count",
    "find": "search",
    "finds": "search",
    "locate": "search",
    "lookup": "search",
    "retrieve": "get",
    "retrieves": "get",
    "fetch": "get",
    "fetches": "get",
    "remove": "delete",
    "removes": "delete",
    "whether": "check",
}

_SUFFIXES = ("ing", "ed", "es", "s")


def tokenize_code(source: str) -> list[str]:
    """Lex ``source`` into code tokens; never raises on partial code."""
    tokens: list[str] = []
    for match in _CODE_TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "string":
            tokens.append("<str>")
            inner = text[1:-1]
            tokens.extend(word.lower() for word in _WORD.findall(inner))
        elif kind == "number":
            tokens.append("<num>")
        else:
            tokens.append(text)
    return tokens


@lru_cache(maxsize=65536)
def split_subtokens(identifier: str) -> tuple[str, ...]:
    """Split an identifier into lowercase subtokens.

    Handles snake_case, camelCase, PascalCase, ALLCAPS runs and digit
    boundaries: ``getVoTable`` -> ``('get', 'vo', 'table')``,
    ``read_ra_dec2`` -> ``('read', 'ra', 'dec')``.
    """
    parts: list[str] = []
    for chunk in identifier.split("_"):
        if not chunk:
            continue
        # split camelCase / PascalCase / ALLCAPSWord boundaries
        for piece in re.findall(
            r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+", chunk
        ):
            if piece.isdigit():
                continue
            parts.append(piece.lower())
    return tuple(parts)


def stem(word: str) -> str:
    """Very light suffix stripping (enough to merge plural/gerund forms)."""
    lowered = word.lower()
    for suffix in _SUFFIXES:
        if lowered.endswith(suffix) and len(lowered) - len(suffix) >= 3:
            return lowered[: -len(suffix)]
    return lowered


def tokenize_text(
    text: str, *, synonyms: bool = True, stemming: bool = True
) -> list[str]:
    """Lowercase word tokens for natural-language text.

    ``synonyms``/``stemming`` apply the normalizations a fine-tuned
    text-to-code encoder effectively learns; the *base* models run with
    both disabled.
    """
    tokens: list[str] = []
    for word in _WORD.findall(text):
        lowered = word.lower()
        if synonyms and lowered in PROGRAMMING_SYNONYMS:
            lowered = PROGRAMMING_SYNONYMS[lowered]
        elif stemming:
            lowered = stem(lowered)
        tokens.append(lowered)
    return tokens


def code_identifiers(source: str) -> list[str]:
    """All identifier tokens in order, keywords excluded."""
    return [
        token
        for token in tokenize_code(source)
        if token[0].isalpha() or token[0] == "_"
        if token not in PYTHON_KEYWORDS and not token.startswith("<")
    ]


def identifier_subtokens(source: str) -> list[str]:
    """Flattened subtokens of every identifier in ``source``."""
    out: list[str] = []
    for name in code_identifiers(source):
        out.extend(split_subtokens(name))
    return out


def char_ngrams(text: str, n: int = 3) -> list[str]:
    """Character n-grams of the raw text (whitespace collapsed)."""
    collapsed = re.sub(r"\s+", " ", text.strip())
    if len(collapsed) < n:
        return [collapsed] if collapsed else []
    return [collapsed[i : i + n] for i in range(len(collapsed) - n + 1)]


def token_ngrams(tokens: list[str], n: int = 2) -> list[str]:
    """Order-aware token n-grams (the sequence features ReACC-style
    retrieval depends on)."""
    # n staggered views zipped: one C-level join per n-gram, no slice
    return list(map("␟".join, zip(*(tokens[i:] for i in range(n)))))

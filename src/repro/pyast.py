"""One locked entry point for parsing Python source.

CPython 3.11 converts a parsed tree to ``ast`` objects under a
recursion-depth counter that every thread of the interpreter shares.
When two threads parse at once (an ingest job chunking files while a
request thread summarizes a PE's code), a thread switch or a garbage
collection inside one conversion can leave the counter off for the
other, which then raises ``SystemError: AST constructor recursion depth
mismatch``.  :func:`parse` holds one process-wide lock around
``ast.parse``, so parses never overlap; lint rule RPR008 bans
``ast.parse`` anywhere else in ``repro``.  Standard library only, so
every layer can import it.
"""

from __future__ import annotations

import ast
import threading

_LOCK = threading.Lock()


def parse(source: str | bytes, **kwargs) -> ast.Module:
    """``ast.parse(source, **kwargs)``, one thread at a time."""
    with _LOCK:
        return ast.parse(source, **kwargs)

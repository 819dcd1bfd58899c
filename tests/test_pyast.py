"""Parses on two threads at once: the locked ``repro.pyast.parse``.

On CPython 3.11 the AST converter keeps its recursion counter in state
every thread shares.  A garbage collection that runs a finalizer in the
middle of one thread's conversion can switch threads, the other thread
resets the counter to its own stack depth, and the first raises
``SystemError: AST constructor recursion depth mismatch``.  This drove
an ingest job (``chunk_file``) beside a request thread summarizing a
PE's code (``summarize_code`` through ``parse_lenient``), the two
production parses that run concurrently in a server.
"""

from __future__ import annotations

import gc
import sys
import threading

from repro.ingest.chunker import chunk_file
from repro.ml.summarize import summarize_code

ROUNDS = 400
#: extra frames under the summarizing thread: the threads must enter
#: the converter at different stack depths for a clash to show
DEPTH = 15

SOURCE = '''
import os


class Walker:
    """Walk a tree of files."""

    def __init__(self, root):
        self.root = root

    def files(self):
        for base, _dirs, names in os.walk(self.root):
            for name in names:
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def count(root):
    return sum(1 for _ in Walker(root).files())
'''


class _Cyclic:
    """Cyclic garbage whose finalizer runs Python code inside a
    collection, where the interpreter may switch threads."""

    def __init__(self) -> None:
        self.me = self

    def __del__(self) -> None:
        sum(range(50))


def _run(errors: list[Exception], work, rounds: int) -> None:
    try:
        for _ in range(rounds):
            for _ in range(8):
                _Cyclic()
            work()
    except Exception as exc:  # reported on the test's thread
        errors.append(exc)


def _deeper(depth: int, call) -> None:
    if depth:
        return _deeper(depth - 1, call)
    call()


def test_concurrent_parses_never_raise_system_error():
    errors: list[Exception] = []
    interval, thresholds = sys.getswitchinterval(), gc.get_threshold()
    sys.setswitchinterval(1e-6)
    gc.set_threshold(40, 5, 5)
    try:
        threads = [
            threading.Thread(
                target=_run,
                args=(errors, lambda: chunk_file("walk.py", SOURCE), ROUNDS),
            ),
            threading.Thread(
                target=_deeper,
                args=(
                    DEPTH,
                    lambda: _run(
                        errors, lambda: summarize_code(SOURCE), ROUNDS
                    ),
                ),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*thresholds)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

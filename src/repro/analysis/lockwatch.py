"""Runtime lock-order / lock-discipline detector for the test suites.

The static rules (RPR002) catch lock misuse the AST can prove; this
module catches what only execution shows: *cross-module* lock-order
inversions (thread 1 takes A then B, thread 2 takes B then A — a
deadlock waiting for the right interleaving) and blocking calls made
while any instrumented lock is held.

How it works
------------
:meth:`LockWatch.install` monkeypatches ``threading.Lock`` /
``threading.RLock`` so every lock allocated *while instrumentation is
active* is wrapped in an :class:`InstrumentedLock`:

* each lock is labeled by its **allocation site** (the first stack
  frame outside ``threading``/this module), so every lock created at
  ``serving.py:209`` aggregates into one node — the order graph
  generalizes across instances and across tests, like a classic
  witness checker;
* on acquire, an edge ``held-site → acquiring-site`` is added to a
  global directed graph (reentrant re-acquires add nothing); the first
  time an edge appears, the acquisition stack is recorded and a DFS
  checks whether the reverse path already exists — a cycle is a
  potential deadlock and is recorded as a violation *with both
  stacks*;
* configured blocking calls (``time.sleep`` by default) are also
  patched: calling one while holding any instrumented lock records a
  violation.

The wrapper implements the ``_release_save``/``_acquire_restore``/
``_is_owned`` protocol, so ``threading.Condition`` (and therefore
``Event``/``Semaphore``) built over instrumented locks works —
including the crucial bookkeeping that a ``Condition.wait`` *releases*
the lock: held-state is popped for the wait and restored after, so
sleeping inside ``wait`` never false-positives.

Activation is opt-in via the ``lockwatch`` fixture in
``tests/conftest.py``, autouse-enabled for the batcher, write-core and
jobs suites (the concurrency-heavy surfaces).  The fixture
fails the test at teardown if any violation was recorded.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Iterable

__all__ = ["InstrumentedLock", "LockWatch", "current_watch"]

#: the active watch (at most one — installs nest by refcount)
_ACTIVE: "LockWatch | None" = None

#: real factories, captured at import time so instrumentation can
#: allocate its own internal lock without recursing
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


def current_watch() -> "LockWatch | None":
    return _ACTIVE


def _allocation_site() -> str:
    """``file:line`` of the frame that allocated the lock, skipping
    stdlib ``threading`` and this module."""
    for frame in reversed(traceback.extract_stack(limit=12)[:-1]):
        filename = frame.filename.replace("\\", "/")
        if filename.endswith(("/threading.py", "/lockwatch.py")):
            continue
        return f"{filename.rsplit('/', 1)[-1]}:{frame.lineno}"
    return "<unknown>"


#: frames a violation records: the innermost, nearest the offending call
_RECORDED_FRAMES = 8


def _short_stack(limit: int = _RECORDED_FRAMES) -> list[str]:
    """``file:line in function`` for the innermost ``limit`` frames
    outside ``threading``/this module."""
    frames = traceback.extract_stack(limit=limit + 4)[:-3]
    stack = [
        f"{f.filename.rsplit('/', 1)[-1]}:{f.lineno} in {f.name}"
        for f in frames
        if not f.filename.replace("\\", "/").endswith(
            ("/threading.py", "/lockwatch.py")
        )
    ]
    return stack[-limit:]


class InstrumentedLock:
    """A Lock/RLock wrapper feeding acquisition order into a LockWatch."""

    def __init__(self, watch: "LockWatch", inner: Any, site: str) -> None:
        self._watch = watch
        self._inner = inner
        self.site = site

    # -- core lock protocol -------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._watch.note_acquire_intent(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watch.push_held(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._watch.pop_held(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"<InstrumentedLock {self.site} over {self._inner!r}>"

    def __getattr__(self, name: str) -> Any:
        # Delegate anything we don't track to the real lock — e.g. the
        # stdlib registers ``_at_fork_reinit`` as an os.fork hook when
        # ``concurrent.futures.thread`` first imports.
        return getattr(self._inner, name)

    # -- Condition integration ----------------------------------------
    # threading.Condition binds these at construction; a wait() fully
    # releases the lock, so held-state must drop with it and come back
    # on restore — otherwise any sleep during a wait would read as
    # "blocking call while lock held".
    def _release_save(self) -> tuple[Any, int]:
        inner = self._inner
        if hasattr(inner, "_release_save"):
            saved = inner._release_save()
        else:
            saved = None
            inner.release()
        return (saved, self._watch.drop_all_held(self))

    def _acquire_restore(self, state: tuple[Any, int]) -> None:
        saved, count = state
        inner = self._inner
        if hasattr(inner, "_acquire_restore"):
            inner._acquire_restore(saved)
        else:
            inner.acquire()
        self._watch.push_held(self, count=max(1, count))

    def _is_owned(self) -> bool:
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return inner._is_owned()
        # plain-Lock heuristic, mirroring threading.Condition._is_owned
        if inner.acquire(False):
            inner.release()
            return False
        return True


class LockWatch:
    """Global lock-order graph + violation store.

    Parameters
    ----------
    blocking_calls:
        Dotted names of module-level callables to guard (patched while
        installed); each records a violation when invoked with any
        instrumented lock held.  Default: ``time.sleep``.
    """

    def __init__(
        self, blocking_calls: Iterable[str] = ("time.sleep",)
    ) -> None:
        self.blocking_calls = tuple(blocking_calls)
        self._graph_lock = _REAL_LOCK()
        #: edge (held_site, acquired_site) -> stack recorded at first sight
        self.edges: dict[tuple[str, str], list[str]] = {}
        self.violations: list[dict[str, Any]] = []
        self._tls = threading.local()
        self._installs = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- held-stack bookkeeping (per thread) --------------------------
    def _held(self) -> list[InstrumentedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def push_held(self, lock: InstrumentedLock, count: int = 1) -> None:
        self._held().extend([lock] * count)

    def pop_held(self, lock: InstrumentedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def drop_all_held(self, lock: InstrumentedLock) -> int:
        """Remove every held entry for ``lock`` (Condition.wait)."""
        held = self._held()
        count = sum(1 for entry in held if entry is lock)
        if count:
            self._tls.held = [entry for entry in held if entry is not lock]
        return count

    # -- order graph --------------------------------------------------
    def note_acquire_intent(self, lock: InstrumentedLock) -> None:
        held = self._held()
        if not held or any(entry is lock for entry in held):
            return  # nothing held, or a reentrant re-acquire
        for entry in {id(h): h for h in held}.values():
            if entry.site == lock.site:
                continue  # same allocation site: self-edges carry no order
            self._add_edge(entry.site, lock.site)

    def _add_edge(self, held_site: str, acquired_site: str) -> None:
        edge = (held_site, acquired_site)
        with self._graph_lock:
            if edge in self.edges:
                return
            stack = _short_stack()
            self.edges[edge] = stack
            cycle = self._find_path(acquired_site, held_site)
        if cycle is not None:
            self.violations.append(
                {
                    "kind": "lock-order-cycle",
                    "edge": f"{held_site} -> {acquired_site}",
                    "cycle": " -> ".join(cycle + [cycle[0]]),
                    "stack": stack,
                    "reverse_stacks": {
                        f"{a} -> {b}": self.edges.get((a, b), [])
                        for a, b in zip(cycle, cycle[1:] + [cycle[0]])
                        if (a, b) != edge
                    },
                }
            )

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """DFS path start → goal in the edge graph (caller holds the
        graph lock); a path means the new edge closes a cycle."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for a, b in self.edges:
                if a == node and b not in seen:
                    seen.add(b)
                    stack.append((b, path + [b]))
        return None

    # -- blocking-call guard ------------------------------------------
    def note_blocking_call(self, name: str) -> None:
        held = self._held()
        if not held:
            return
        self.violations.append(
            {
                "kind": "blocking-call-under-lock",
                "call": name,
                "held": sorted({lock.site for lock in held}),
                "stack": _short_stack(),
            }
        )

    # -- install / uninstall ------------------------------------------
    def _make_factory(
        self, real: Callable[[], Any]
    ) -> Callable[[], InstrumentedLock]:
        def factory() -> InstrumentedLock:
            return InstrumentedLock(self, real(), _allocation_site())

        return factory

    def _guard(self, name: str, real: Callable[..., Any]):
        def guarded(*args: Any, **kwargs: Any) -> Any:
            self.note_blocking_call(name)
            return real(*args, **kwargs)

        return guarded

    def install(self) -> "LockWatch":
        global _ACTIVE
        if _ACTIVE is not None and _ACTIVE is not self:
            raise RuntimeError("another LockWatch is already installed")
        self._installs += 1
        if self._installs > 1:
            return self
        _ACTIVE = self
        self._patch(threading, "Lock", self._make_factory(_REAL_LOCK))
        self._patch(threading, "RLock", self._make_factory(_REAL_RLOCK))
        import importlib

        for dotted in self.blocking_calls:
            module_name, _, attr = dotted.rpartition(".")
            module = importlib.import_module(module_name)
            real = getattr(module, attr)
            self._patch(module, attr, self._guard(dotted, real))
        return self

    def _patch(self, target: Any, attr: str, replacement: Any) -> None:
        self._patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def uninstall(self) -> None:
        global _ACTIVE
        if self._installs == 0:
            return
        self._installs -= 1
        if self._installs:
            return
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "LockWatch":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- reporting -----------------------------------------------------
    def render_violations(self) -> str:
        blocks = []
        for violation in self.violations:
            lines = [f"[{violation['kind']}]"]
            for key, value in violation.items():
                if key == "kind":
                    continue
                if isinstance(value, list):
                    lines.append(f"  {key}:")
                    lines.extend(f"    {entry}" for entry in value)
                elif isinstance(value, dict):
                    lines.append(f"  {key}:")
                    for name, stack in value.items():
                        lines.append(f"    {name}:")
                        lines.extend(f"      {entry}" for entry in stack)
                else:
                    lines.append(f"  {key}: {value}")
            blocks.append("\n".join(lines))
        return "\n".join(blocks)

    def raise_violations(self) -> None:
        """Fail (AssertionError) if any violation was recorded."""
        if self.violations:
            raise AssertionError(
                f"lockwatch recorded {len(self.violations)} violation(s):\n"
                + self.render_violations()
            )

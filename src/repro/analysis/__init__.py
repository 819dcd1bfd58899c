"""Static analysis & invariants — the correctness-tooling layer.

Nine PRs grew the registry into a concurrency-heavy serving stack whose
invariants lived only as prose in docstrings and CHANGES.md.  This
package encodes them as *checks*: an AST lint framework with
repo-specific rules (:mod:`repro.analysis.lint`,
:mod:`repro.analysis.rules`), and a runtime lock-order/race detector
(:mod:`repro.analysis.lockwatch`) that instruments ``threading`` locks
during the concurrency-heavy test suites.  Both are tier-1 gates:
``tests/analysis/test_self_lint.py`` lints the repo's own source on
every run, and the lockwatch fixture fails any search-serving/
write-core/jobs test that exhibits a lock-order cycle or a blocking
call under a lock.

Run it yourself::

    PYTHONPATH=src python -m repro lint src/          # human output
    PYTHONPATH=src python -m repro lint src/ --json   # CI annotations
    PYTHONPATH=src python -m repro lint --list-rules

Rule table
----------

Each rule encodes one documented invariant and names the PR/bug that
motivated it:

======= ==================================================================
Rule    Invariant (motivation)
======= ==================================================================
RPR001  No blocking calls (``time.sleep``, ``sqlite3``, sockets,
        ``urllib``, ``subprocess``) inside ``async def`` bodies under
        ``repro/server`` — the asyncio core (PR 6) parses on the event
        loop and must hop blocking work to the dispatch executor; one
        blocking call on the loop stalls every open connection.
RPR002  No ``await``/blocking call while a ``with <lock>:`` block is
        held — critical sections are sized to stay microseconds-short
        (search serving PR 3, write core PR 5); a sleep inside
        one convoys every contender.  Runtime complement: lockwatch.
RPR003  Every DAO method whose SQL writes the ``pes``/``workflows``
        tables bumps the registry mutation counter: an unbumped write
        leaves the registry's version behind the rows.
RPR005  No ``time.time()``/``random``/``uuid``/set-iteration in the
        bitwise-determinism surface (``repro/search/{index,fusion,
        serving}.py``) — batched == single-shot == brute-force is a
        load-bearing guarantee (PRs 1/7) that entropy sources break
        silently.
RPR006  Server error responses only through the documented constructors
        (:func:`repro.errors.error_envelope` at transport layers,
        raised :class:`~repro.errors.ReproError` everywhere else) —
        never raw ``{"error": ...}`` dict literals; the §3.2.5 envelope
        (see the error table in :mod:`repro.server`) stays in one
        place, and parity tests elsewhere pin its exact bytes.
RPR008  No ``ast.parse`` under ``repro/`` outside
        :func:`repro.pyast.parse` — CPython 3.11 shares the AST
        converter's recursion counter between threads, so an ingest job
        parsing files beside a request thread summarizing code failed
        with ``SystemError`` in some traced ``ingest_live`` runs; the
        helper serializes every parse behind one lock.
RPR101  Unused imports (F401) — the framework's own dead-code pass;
        ``__init__.py`` re-exports are exempt by convention.
RPR102  Unused local bindings (F841), conservative: simple
        ``name = value`` assignments only, ``_``-prefixed names exempt.
======= ==================================================================

Suppressions are per-line and per-rule (``# lint: disable=RPR002 —
reason``) and must carry a one-line reason; ``# lint:
disable-file=RPR…`` scopes a rule out of a whole file.  The current
tree lints clean — new findings are CI failures, not warnings.

The runtime side
----------------

:class:`repro.analysis.lockwatch.LockWatch` patches ``threading.Lock``
/ ``threading.RLock`` so every lock allocated while active records its
acquisition order into a global graph keyed by allocation site; a
cycle (AB/BA between any two threads, ever) fails the test with both
stacks, and configured blocking calls (``time.sleep``) made while any
lock is held fail it too.  Activation is the opt-in ``lockwatch``
fixture in ``tests/conftest.py``, autouse for the search-serving/
write-core/jobs suites.

Adding a rule is one module in ``repro/analysis/rules/`` registered
with ``@register_rule`` — e.g. the multi-tenant arc's
"auth check on every ``/v1/registry/{user}/…`` route" is a dozen lines
against the route table.
"""

from __future__ import annotations

from repro.analysis.lint import (
    Finding,
    LintError,
    all_rules,
    lint_paths,
    lint_source,
    render_findings,
    render_json,
)
from repro.analysis.lockwatch import LockWatch

__all__ = [
    "Finding",
    "LintError",
    "LockWatch",
    "all_rules",
    "lint_paths",
    "lint_source",
    "render_findings",
    "render_json",
]

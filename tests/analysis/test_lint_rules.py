"""Golden-file tests for the bundled lint rules.

Each rule gets at least one positive snippet (must fire) and one
negative snippet (must stay silent), linted through the public
:func:`repro.analysis.lint_source` entry point under a
``repro/...``-shaped virtual path so ``applies_to`` scoping is
exercised too.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_source


def findings_for(source, path, rule=None):
    rules = [rule] if rule else None
    found = lint_source(textwrap.dedent(source), path, rules=rules)
    return [(f.rule, f.line) for f in found]


def rules_fired(source, path, rule=None):
    return {r for r, _ in findings_for(source, path, rule)}


# ---------------------------------------------------------------------------
# RPR001 — no blocking calls in async def bodies under repro/server
# ---------------------------------------------------------------------------
class TestAsyncBlocking:
    def test_sleep_in_async_handler_fires(self):
        src = """
            import time

            async def handle(reader, writer):
                time.sleep(0.1)
        """
        assert rules_fired(src, "repro/server/http.py") == {"RPR001"}

    def test_resolves_through_import_alias(self):
        src = """
            from time import sleep as pause

            async def handle(reader, writer):
                pause(0.1)
        """
        assert rules_fired(src, "repro/server/http.py") == {"RPR001"}

    def test_sqlite_and_subprocess_fire(self):
        src = """
            import sqlite3
            import subprocess

            async def handle(request):
                conn = sqlite3.connect("x.db")
                subprocess.run(["ls"])
                return conn
        """
        found = findings_for(src, "repro/server/app.py", rule="RPR001")
        assert len(found) == 2

    def test_sync_function_is_fine(self):
        src = """
            import time

            def claim_poll():
                time.sleep(0.1)
        """
        assert rules_fired(src, "repro/server/http.py", "RPR001") == set()

    def test_nested_sync_def_inside_async_is_fine(self):
        # the blocking call runs in the executor, not on the loop
        src = """
            import time

            async def handle(request):
                def blocking_part():
                    time.sleep(0.1)
                return blocking_part
        """
        assert rules_fired(src, "repro/server/http.py", "RPR001") == set()

    def test_out_of_scope_path_is_ignored(self):
        src = """
            import time

            async def poll():
                time.sleep(0.1)
        """
        assert rules_fired(src, "repro/jobs/manager.py", "RPR001") == set()


# ---------------------------------------------------------------------------
# RPR002 — no await / blocking call while holding a lock
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_sleep_under_lock_fires(self):
        src = """
            import time

            def write(self):
                with self._lock:
                    time.sleep(0.5)
        """
        assert rules_fired(src, "repro/search/batcher.py") == {"RPR002"}

    def test_await_under_lock_fires(self):
        src = """
            async def write(self):
                with self.write_lock:
                    await self.flush()
        """
        assert rules_fired(src, "repro/server/app.py", "RPR002") == {
            "RPR002"
        }

    def test_work_after_lock_released_is_fine(self):
        src = """
            import time

            def write(self):
                with self._lock:
                    self.pending += 1
                time.sleep(0.5)
        """
        assert rules_fired(src, "repro/search/batcher.py", "RPR002") == set()

    def test_non_lock_context_manager_is_fine(self):
        src = """
            import time

            def load(self):
                with open("f.bin") as fh:
                    time.sleep(0.1)
                    return fh.read()
        """
        assert rules_fired(src, "repro/search/batcher.py", "RPR002") == set()

    def test_nested_function_under_lock_is_fine(self):
        # defining a function under a lock does not run it there
        src = """
            import time

            def write(self):
                with self._lock:
                    def later():
                        time.sleep(0.5)
                    self.callback = later
        """
        assert rules_fired(src, "repro/search/batcher.py", "RPR002") == set()


# ---------------------------------------------------------------------------
# RPR003 — DAO writes to pes/workflows must bump + stamp
# ---------------------------------------------------------------------------
DAO_PATH = "repro/registry/dao.py"


class TestDaoStamps:
    def test_sql_write_without_bump_or_stamp_fires_twice(self):
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
        """
        found = findings_for(src, DAO_PATH, rule="RPR003")
        assert len(found) == 2  # missing bump AND missing stamp

    def test_sql_write_with_bump_and_stamp_is_fine(self):
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
                    self._bump_mutation()
                    self._stamp_shards([pe_id])
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_memory_store_write_needs_counter(self):
        src = """
            class InMemoryDAO:
                def add_pe(self, record):
                    self._pes[record.pe_id] = record
        """
        found = findings_for(src, DAO_PATH, rule="RPR003")
        assert len(found) == 2

    def test_memory_store_write_with_counter_and_stamp_is_fine(self):
        src = """
            class InMemoryDAO:
                def add_pe(self, record):
                    self._pes[record.pe_id] = record
                    self._mutations += 1
                    self._stamp_shards([record.pe_id])
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_reads_and_other_tables_are_fine(self):
        src = """
            class SqliteDAO:
                def get_pe(self, pe_id):
                    return self._conn.execute(
                        "SELECT * FROM pes WHERE id=?", (pe_id,)
                    ).fetchone()

                def put_receipt(self, key):
                    self._conn.execute(
                        "INSERT INTO receipts VALUES (?)", (key,)
                    )
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_only_applies_to_dao_module(self):
        src = """
            class Helper:
                def clobber(self):
                    self._conn.execute("DELETE FROM pes")
        """
        assert (
            rules_fired(src, "repro/registry/service.py", "RPR003") == set()
        )

    def test_f_string_sql_is_still_a_write(self):
        # a conditional SET clause makes the statement an f-string; its
        # table name sits in the literal part
        src = """
            class SqliteDAO:
                def update_pe(self, record, renamed):
                    self._conn.execute(
                        f"UPDATE pes SET {'pe_name=?,' if renamed else ''}"
                        " revision=? WHERE pe_id=?",
                        (record.revision, record.pe_id),
                    )
        """
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 2

    def test_mutation_stamping_around_the_helper_fires(self):
        # stamped, but by hand: no journal row rides along, so a fresh
        # shard would load stale (and the reverse mistake, fresh-looking
        # over a gap, is one refactor away)
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    counter = self._bump_mutation()
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
                    self._stamp_shards({}, counter)
                    self._conn.execute(
                        "INSERT OR REPLACE INTO shard_stamps VALUES (?, ?, ?)",
                        (1, "desc", counter),
                    )

            class InMemoryDAO:
                def delete_pe(self, pe_id):
                    self._mutations += 1
                    del self._pes[pe_id]
                    self._stamp_shards({})
                    self._shard_stamps[(1, "desc")] = self._mutations
        """
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 2

    def test_journal_row_outside_the_helper_fires(self):
        src = """
            class SqliteDAO:
                def _stamp_shards(self, changes, counter):
                    self.append_index_delta(1, "desc", "add", [1], counter)

                def insert_pe(self, record):
                    counter = self._bump_mutation()
                    self._conn.execute("INSERT INTO pes VALUES (?)", (1,))
                    self._stamp_shards({}, counter)
                    self.append_index_delta(1, "desc", "add", [1], counter)
        """
        assert findings_for(src, DAO_PATH, rule="RPR003") == [("RPR003", 6)]

    def test_base_slab_writers_may_raise_stamps(self):
        # not mutations: they write no pes/workflows row
        src = """
            class SqliteDAO:
                def upsert_index_shards(self, shards, stamp):
                    self._conn.execute("INSERT OR REPLACE INTO index_shards")
                    self._conn.execute("DELETE FROM index_deltas")
                    self._conn.execute("UPDATE shard_stamps SET tip = ?", (1,))
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_mutation_writing_a_base_slab_fires(self):
        # a slab is membership at a stamp, like the journal: a mutation
        # editing it by hand has changed a shard around the helper
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    counter = self._bump_mutation()
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
                    self._stamp_shards({}, counter)
                    self._conn.execute(
                        "UPDATE index_shards SET ids=? WHERE user_id=?", (b"", 1)
                    )

            class InMemoryDAO:
                def delete_pe(self, pe_id):
                    self._mutations += 1
                    del self._pes[pe_id]
                    self._stamp_shards({})
                    del self._base_shards[(1, "desc")]
        """
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 2


# ---------------------------------------------------------------------------
# RPR005 — determinism surface: no entropy, no set iteration
# ---------------------------------------------------------------------------
FUSION_PATH = "repro/search/fusion.py"


class TestDeterminism:
    def test_time_and_random_fire(self):
        src = """
            import random
            import time

            def rank(hits):
                jitter = random.random()
                now = time.time()
                return [(h, now + jitter) for h in hits]
        """
        found = findings_for(src, FUSION_PATH, rule="RPR005")
        assert len(found) == 2

    def test_set_iteration_fires(self):
        src = """
            def merge(a, b):
                return [k for k in set(a)]
        """
        assert rules_fired(src, FUSION_PATH, "RPR005") == {"RPR005"}

    def test_sorted_set_is_fine(self):
        src = """
            def merge(a, b):
                return [k for k in sorted(set(a))]
        """
        assert rules_fired(src, FUSION_PATH, "RPR005") == set()

    def test_set_membership_is_fine(self):
        src = """
            def dedupe(hits):
                seen = set()
                out = []
                for h in hits:
                    if h.doc_id not in seen:
                        seen.add(h.doc_id)
                        out.append(h)
                return out
        """
        assert rules_fired(src, FUSION_PATH, "RPR005") == set()

    def test_time_outside_surface_is_fine(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert rules_fired(src, "repro/jobs/manager.py", "RPR005") == set()


# ---------------------------------------------------------------------------
# RPR006 — error responses only through the envelope constructors
# ---------------------------------------------------------------------------
class TestErrorEnvelope:
    def test_raw_error_dict_fires(self):
        src = """
            def handle(request):
                return Response(
                    404, {"error": "NotFound", "code": 404, "message": "?"}
                )
        """
        assert rules_fired(src, "repro/server/shardnode.py") == {"RPR006"}

    def test_constructor_is_fine(self):
        src = """
            from repro.errors import error_envelope

            def handle(request):
                return Response(404, error_envelope("NotFound", 404, "?"))
        """
        assert (
            rules_fired(src, "repro/server/shardnode.py", "RPR006") == set()
        )

    def test_unrelated_dict_is_fine(self):
        src = """
            def handle(request):
                return Response(200, {"result": "ok", "count": 3})
        """
        assert (
            rules_fired(src, "repro/server/shardnode.py", "RPR006") == set()
        )

    def test_outside_server_is_ignored(self):
        src = """
            def job_error():
                return {"error": "InternalError", "message": "boom"}
        """
        assert rules_fired(src, "repro/jobs/manager.py", "RPR006") == set()


# ---------------------------------------------------------------------------
# RPR101 / RPR102 — dead code
# ---------------------------------------------------------------------------
class TestDeadCode:
    def test_unused_import_fires(self):
        src = """
            import json
            import os

            def dump(obj):
                return json.dumps(obj)
        """
        found = findings_for(src, "repro/util.py", rule="RPR101")
        assert found == [("RPR101", 3)]

    def test_all_export_counts_as_use(self):
        src = """
            from repro.errors import ReproError

            __all__ = ["ReproError"]
        """
        assert rules_fired(src, "repro/util.py", "RPR101") == set()

    def test_init_py_reexports_exempt(self):
        src = """
            from repro.errors import ReproError
        """
        assert rules_fired(src, "repro/sub/__init__.py", "RPR101") == set()

    def test_type_checking_imports_exempt(self):
        src = """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.server.app import LaminarServer

            def build(app: "LaminarServer"):
                return app
        """
        assert rules_fired(src, "repro/util.py", "RPR101") == set()

    def test_unused_local_fires(self):
        src = """
            def compute(x):
                tmp = x * 2
                return x + 1
        """
        assert rules_fired(src, "repro/util.py", "RPR102") == {"RPR102"}

    def test_underscore_discard_is_fine(self):
        src = """
            def compute(pair):
                _unused = pair.validate()
                return pair.left
        """
        assert rules_fired(src, "repro/util.py", "RPR102") == set()

    def test_use_in_nested_scope_counts(self):
        src = """
            def compute(x):
                doubled = x * 2
                return lambda: doubled
        """
        assert rules_fired(src, "repro/util.py", "RPR102") == set()


# ---------------------------------------------------------------------------
# Suppression directives
# ---------------------------------------------------------------------------
class TestSuppression:
    SRC = """
        import time

        def write(self):
            with self._lock:
                time.sleep(0.5){directive}
    """

    def _lint(self, directive=""):
        return rules_fired(
            self.SRC.format(directive=directive), "repro/search/batcher.py"
        )

    def test_unsuppressed_fires(self):
        assert self._lint() == {"RPR002"}

    def test_line_disable_suppresses(self):
        assert self._lint("  # lint: disable=RPR002 — reason") == set()

    def test_line_disable_other_rule_does_not(self):
        assert self._lint("  # lint: disable=RPR001 — reason") == {"RPR002"}

    def test_disable_all_suppresses(self):
        assert self._lint("  # lint: disable=all") == set()

    def test_comma_list(self):
        assert self._lint("  # lint: disable=RPR001,RPR002 — r") == set()

    def test_file_scope_disable(self):
        src = """
            # lint: disable-file=RPR002 — whole module is poll loops
            import time

            def a(self):
                with self._lock:
                    time.sleep(0.1)

            def b(self):
                with self._lock:
                    time.sleep(0.2)
        """
        assert rules_fired(src, "repro/search/batcher.py") == set()

    def test_wrong_line_does_not_suppress(self):
        src = """
            import time

            # lint: disable=RPR002 — comment on its own line above
            def write(self):
                with self._lock:
                    time.sleep(0.5)
        """
        assert rules_fired(src, "repro/search/batcher.py") == {"RPR002"}


# ---------------------------------------------------------------------------
# Framework plumbing
# ---------------------------------------------------------------------------
class TestFramework:
    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", "repro/util.py", rules=["RPR999"])

    def test_findings_sorted_and_located(self):
        src = textwrap.dedent(
            """
            import json
            import os

            def f(x):
                dead = x
                return x
            """
        )
        found = lint_source(src, "repro/util.py")
        assert [f.rule for f in found] == ["RPR101", "RPR101", "RPR102"]
        assert found[0].line < found[2].line
        as_json = found[0].to_json()
        assert set(as_json) == {"file", "line", "col", "rule", "message"}

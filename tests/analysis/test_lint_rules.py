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
# RPR003 — DAO writes to pes/workflows must bump the mutation counter
# ---------------------------------------------------------------------------
DAO_PATH = "repro/registry/dao.py"


class TestDaoStamps:
    def test_sql_write_without_bump_fires_once(self):
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
        """
        (found,) = lint_source(textwrap.dedent(src), DAO_PATH, rules=["RPR003"])
        assert (found.line, found.rule) == (3, "RPR003")
        assert "without bumping the registry mutation counter" in found.message

    def test_sql_write_with_bump_is_fine(self):
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
                    self._bump_mutation()
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
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 1

    def test_formatted_record_table_write_fires(self):
        # one body for every record kind names its table through the
        # storage row: the placeholder is a record table
        src = """
            class SqliteDAO:
                def _delete(self, store, record_id):
                    self._conn.execute(
                        f"DELETE FROM {store.table} WHERE {store.id}=?",
                        (record_id,),
                    )
        """
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 1

    def test_formatted_owner_and_text_table_writes_are_fine(self):
        src = """
            class SqliteDAO:
                def _sync(self, store, record_id, text):
                    self._conn.execute(
                        f"DELETE FROM {store.owners} WHERE {store.id}=?",
                        (record_id,),
                    )
                    self._conn.execute(
                        f"INSERT INTO {store.docs} ({store.id}, doc)"
                        " VALUES (?, ?)",
                        (record_id, text),
                    )
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_a_hook_write_is_checked_where_the_hook_runs(self):
        # a storage row's hook writes inside the body that runs it: the
        # hook is fine, a runner that does not bump is not
        src = """
            ROW = Storage(unlink="_unlink_pe")

            class SqliteDAO:
                def _unlink_pe(self, pe_id):
                    self._conn.execute(
                        "UPDATE workflows SET pe_ids=? WHERE workflow_id=?",
                        ("[]", 1),
                    )

                def _delete(self, store, record_id):
                    self._bump_mutation()
                    self._hook(store.unlink, record_id)

                def _sloppy_delete(self, store, record_id):
                    self._hook(store.unlink, record_id)

                def _direct(self, pe_id):
                    self._unlink_pe(pe_id)
        """
        found = findings_for(src, DAO_PATH, rule="RPR003")
        assert [line for _rule, line in found] == [15, 18]

    def test_a_bump_before_the_write_counts(self):
        src = """
            class SqliteDAO:
                def delete_pe(self, pe_id):
                    self._bump_mutation()
                    self._conn.execute("DELETE FROM pes WHERE id=?", (pe_id,))
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()

    def test_executemany_into_workflows_is_a_write(self):
        src = """
            class SqliteDAO:
                def insert_workflows(self, rows):
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO workflows VALUES (?, ?)", rows
                    )
        """
        assert len(findings_for(src, DAO_PATH, rule="RPR003")) == 1

    def test_counter_rows_are_no_record_write(self):
        # the helpers that raise the counters touch shard_stamps only:
        # they are what a records writer calls
        src = """
            class SqliteDAO:
                def _advance(self, name, by):
                    return self._conn.execute(
                        "UPDATE shard_stamps SET mutation_counter ="
                        " mutation_counter + ? WHERE kind = ?",
                        (by, name),
                    ).fetchone()
        """
        assert rules_fired(src, DAO_PATH, "RPR003") == set()


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
        assert rules_fired(src, "repro/server/jobs_api.py") == {"RPR006"}

    def test_constructor_is_fine(self):
        src = """
            from repro.errors import error_envelope

            def handle(request):
                return Response(404, error_envelope("NotFound", 404, "?"))
        """
        assert (
            rules_fired(src, "repro/server/jobs_api.py", "RPR006") == set()
        )

    def test_unrelated_dict_is_fine(self):
        src = """
            def handle(request):
                return Response(200, {"result": "ok", "count": 3})
        """
        assert (
            rules_fired(src, "repro/server/jobs_api.py", "RPR006") == set()
        )

    def test_outside_server_is_ignored(self):
        src = """
            def job_error():
                return {"error": "InternalError", "message": "boom"}
        """
        assert rules_fired(src, "repro/jobs/manager.py", "RPR006") == set()


# ---------------------------------------------------------------------------
# RPR008 — every parse goes through the locked repro.pyast.parse
# ---------------------------------------------------------------------------
class TestParseLock:
    def test_ast_parse_fires(self):
        src = """
            import ast

            def chunk(source):
                return ast.parse(source)
        """
        assert findings_for(src, "repro/ingest/chunker.py", "RPR008") == [
            ("RPR008", 5)
        ]

    def test_resolves_through_aliases(self):
        src = """
            import ast as syntax
            from ast import parse as read

            def features(source):
                return syntax.parse(source), read(source, filename="x")
        """
        found = findings_for(src, "repro/ml/ast_features.py", "RPR008")
        assert found == [("RPR008", 6), ("RPR008", 6)]

    def test_the_locked_helper_is_fine(self):
        src = """
            import ast

            from repro import pyast

            def chunk(source):
                return [type(n) for n in ast.walk(pyast.parse(source))]
        """
        assert rules_fired(src, "repro/ingest/chunker.py", "RPR008") == set()

    def test_the_helper_itself_is_exempt(self):
        src = """
            import ast

            def parse(source, **kwargs):
                return ast.parse(source, **kwargs)
        """
        assert rules_fired(src, "repro/pyast.py", "RPR008") == set()

    def test_outside_repro_is_ignored(self):
        src = """
            import ast

            tree = ast.parse("x = 1")
        """
        assert rules_fired(src, "benchmarks/reach.py", "RPR008") == set()


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

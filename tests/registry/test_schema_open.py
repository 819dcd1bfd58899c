"""Opening a registry file: three cases, everything else refused.

``SqliteDAO`` reads ``PRAGMA user_version`` before anything writes.  A
new file (version 0, no schema) is created in one transaction and
stamped current; a v16 file takes one step, re-encoding its vector
blobs and stamping in one transaction (``test_step_from_v16.py``); a
v15 file takes one more before it, dropping its index base slabs,
journal and chain tips and stamping in one transaction
(``test_step_from_v15.py`` checks that it serves as before); a current
file runs no DDL on
``main``.  None of them fills the text index, which the first text
ranking does (``test_read_cost.py`` pins what that costs).  Pinned
here:

* **open cost** — the top-level SQL statements of each case, counted
  from the moment the connection exists under ``test_read_cost.py``'s
  rule (``set_trace_callback``; lines SQLite prefixes with ``--`` are
  its own plan and not counted).  Before the open path had three cases
  a new file ran 73 statements and a reopen 43 (an ``IF NOT EXISTS``
  script and four ``COUNT(*)`` drift scans on every open);
* **refusal** — a file at any other version, older (v14 included, since
  v16; v13 since v15) or newer, raises a ``RegistryError`` naming that
  version and is left byte for byte as it was: no table re-created,
  nothing stamped;
* **format** — a new file's schema rows, page size and counter.
"""

import sqlite3

import pytest

from repro.errors import RegistryError
from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from tests.registry.test_fts_text import (
    digest,
    fill,
    main_ddl,
    open_traced,
)
from tests.registry.test_step_from_v15 import as_v15

#: top-level statements of one open: a new file (``:memory:`` too), a
#: reopen of a current file, a v16 file's one step whose blobs are all
#: written as this code writes them (the reopen's, plus ``BEGIN``, one
#: ``SELECT`` of each record table's vector blobs, the stamp and
#: ``COMMIT``: no row rewritten, no counter moved), and a v15 file's two
#: steps (that, plus ``BEGIN``, two ``DROP TABLE``, one ``ALTER TABLE
#: ... DROP COLUMN``, the stamp and ``COMMIT``: 16 until v17, when the
#: step also read a ``data_version`` it had no use for).  Schema v15
#: ran 28 new (two more tables), 9 and 15
#: (v14's step dropped two tables); v14 ran 40, 20 and 23 (its v13 step
#: was the stamp alone): no document table on disk and no TEMP trigger
#: to create (eight statements), no fill at open (seven), two memory
#: document tables and, on a new store, the ``data_version`` its empty
#: index is complete at.  43 new before v13 dropped ``registry_meta``
#: and the owner indexes
OPEN_COST = {"new": 26, "reopen": 9, "v16": 14, "v15": 20}

#: what a new file's ``main.sqlite_schema`` holds: (type, name)
NEW_FILE_SCHEMA = {
    ("table", "users"),
    # AUTOINCREMENT's, for users alone since v13
    ("table", "sqlite_sequence"),
    ("table", "pes"),
    ("table", "workflows"),
    ("index", "idx_pes_name"),
    ("index", "idx_wf_entry"),
    ("table", "pe_owners"),
    ("table", "workflow_owners"),
    ("table", "workflow_pes"),
    ("index", "idx_workflow_pes_pe"),
    ("table", "write_receipts"),
    ("table", "shard_stamps"),
    ("index", "sqlite_autoindex_users_1"),
}


def user_version(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def schema_names(path):
    conn = sqlite3.connect(path)
    try:
        return {
            name for (name,) in conn.execute("SELECT name FROM sqlite_schema")
        }
    finally:
        conn.close()


class TestOpenCost:
    @pytest.mark.parametrize("where", ["file", "memory"])
    def test_new_store(self, monkeypatch, tmp_path, where):
        path = tmp_path / "new.db" if where == "file" else ":memory:"
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["new"], statements

    def test_reopen_runs_no_ddl_on_main_and_no_scan(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "registry.db"
        fill(SqliteDAO(path))[0].dao.close()
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["reopen"], statements
        assert not any("COUNT(" in sql.upper() for sql in statements)
        assert main_ddl(statements) == []

    def test_v16_step_then_a_reopen(self, monkeypatch, tmp_path):
        path = tmp_path / "v16.db"
        fill(SqliteDAO(path))[0].dao.close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 16")
        conn.commit()
        conn.close()
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["v16"], statements
        assert main_ddl(statements) == [], statements
        assert user_version(path) == _SCHEMA_VERSION
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["reopen"], statements

    def test_v15_step_then_a_reopen(self, monkeypatch, tmp_path):
        path = tmp_path / "v15.db"
        fill(SqliteDAO(path))[0].dao.close()
        as_v15(path)
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["v15"], statements
        assert len(main_ddl(statements)) == 3, statements
        assert user_version(path) == _SCHEMA_VERSION
        assert schema_names(path) == {name for _, name in NEW_FILE_SCHEMA}
        # the step is taken once
        dao, statements = open_traced(monkeypatch, path)
        dao.close()
        assert len(statements) == OPEN_COST["reopen"], statements


class TestNewFileFormat:
    def test_schema_page_size_counter_and_version(self, tmp_path):
        path = tmp_path / "new.db"
        SqliteDAO(path).close()
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute(
                "SELECT type, name FROM main.sqlite_schema"
            ).fetchall()
            assert len(rows) == len(NEW_FILE_SCHEMA)
            assert set(rows) == NEW_FILE_SCHEMA
            assert conn.execute("PRAGMA page_size").fetchone() == (512,)
            # the registry-wide counters, user 0's rows: the mutation
            # counter and each record table's id high-water mark
            assert conn.execute(
                "SELECT * FROM shard_stamps"
            ).fetchall() == [
                (0, "mutations", 0),
                (0, "pes", 0),
                (0, "workflows", 0),
            ]
        finally:
            conn.close()
        assert user_version(path) == _SCHEMA_VERSION


class TestRefused:
    @pytest.mark.parametrize(
        "version",
        # newer code's file; a file from before the v15 -> v16 step
        # (v14, which older code steps to v15: refused since v16); ones
        # from before that (v13 refused since v15, v12 since v14, v11
        # since v13); older ones still; a file with a schema but no
        # stamp (not written by this DAO)
        [_SCHEMA_VERSION + 1, 14, 13, 12, 11, 10, 9, 0],
    )
    def test_file_at_another_version_is_refused_untouched(
        self, tmp_path, version
    ):
        path = tmp_path / "registry.db"
        fill(SqliteDAO(path))[0].dao.close()
        conn = sqlite3.connect(path)
        # a table the open path would create if it ran its schema script
        conn.execute("DROP TABLE write_receipts")
        conn.execute(f"PRAGMA user_version = {version}")
        conn.commit()
        conn.close()
        before = digest(path)

        with pytest.raises(RegistryError, match=f"schema v{version};") as err:
            SqliteDAO(path)
        assert err.value.params["userVersion"] == version
        if version > _SCHEMA_VERSION:
            assert "newer code" in err.value.message
        else:
            assert "older checkout" in err.value.message
        assert digest(path) == before
        assert "write_receipts" not in schema_names(path)
        assert user_version(path) == version

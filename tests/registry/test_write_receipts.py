"""DAO-level contracts behind the v1 write surface.

Per-record revisions, idempotency receipts (stored verbatim, never
bumping the mutation counter) and the write scope a write and its
receipt commit in together.
"""

import sqlite3

import numpy as np
import pytest

from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord


@pytest.fixture(params=["memory", "sqlite"])
def dao(request, tmp_path):
    """``memory``: the ephemeral store in-process stacks run on."""
    if request.param == "memory":
        return SqliteDAO(":memory:")
    return SqliteDAO(tmp_path / "reg.db")


def make_pe(name="p", code="def p(): pass", owners=(1,)) -> PERecord:
    return PERecord(
        pe_id=0,
        pe_name=name,
        description="d",
        pe_code=code,
        desc_embedding=np.ones(4, dtype=np.float32),
        owners=set(owners),
    )


class TestRevisions:
    def test_insert_starts_at_one_and_update_bumps(self, dao):
        record = dao.insert_pe(make_pe())
        assert record.revision == 1
        assert dao.get_pe(record.pe_id).revision == 1
        record.description = "changed"
        dao.update_pe(record)
        assert record.revision == 2
        assert dao.get_pe(record.pe_id).revision == 2
        dao.update_pe(record)
        assert dao.get_pe(record.pe_id).revision == 3

    def test_bulk_insert_sets_revision_one(self, dao):
        records = dao.insert_pes([make_pe(f"b{i}") for i in range(5)])
        assert all(r.revision == 1 for r in records)
        assert all(dao.get_pe(r.pe_id).revision == 1 for r in records)

    def test_bulk_insert_is_one_mutation_event(self, dao):
        before = dao.mutation_counter()
        dao.insert_pes([make_pe(f"m{i}") for i in range(7)])
        assert dao.mutation_counter() == before + 1

    def test_workflow_revisions(self, dao):
        record = dao.insert_workflow(
            WorkflowRecord(
                workflow_id=0,
                workflow_name="w",
                entry_point="w",
                description="",
                workflow_code="def w(): pass",
                owners={1},
            )
        )
        assert record.revision == 1
        record.description = "annotated"
        dao.update_workflow(record)
        assert dao.get_workflow(record.workflow_id).revision == 2


class TestReceipts:
    def test_round_trip_verbatim(self, dao):
        body = {"apiVersion": "v1", "op": "register", "items": [{"peId": 3}]}
        assert dao.get_write_receipt(1, "k") is None
        dao.save_write_receipt(1, "k", "fp-abc", 201, body)
        fingerprint, status, stored = dao.get_write_receipt(1, "k")
        assert (fingerprint, status) == ("fp-abc", 201)
        assert stored == body

    def test_receipts_scoped_per_user(self, dao):
        dao.save_write_receipt(1, "k", "fp1", 201, {"who": "one"})
        dao.save_write_receipt(2, "k", "fp2", 200, {"who": "two"})
        assert dao.get_write_receipt(1, "k")[2] == {"who": "one"}
        assert dao.get_write_receipt(2, "k")[2] == {"who": "two"}
        assert dao.get_write_receipt(3, "k") is None

    def test_saving_a_receipt_never_bumps_the_counter(self, dao):
        dao.insert_pe(make_pe())
        before = dao.mutation_counter()
        dao.save_write_receipt(1, "k", "fp", 200, {"removed": True})
        assert dao.mutation_counter() == before


def leave_pending_row(dao, user_id, key):
    """The row a writer of an earlier checkout committed before its
    write ran (status -1), as one killed in between left it."""
    dao._conn.execute(
        "INSERT INTO write_receipts"
        " (user_id, idem_key, fingerprint, status, body, created_at)"
        " VALUES (?, ?, 'fp-old', -1, '{}', 0)",
        (user_id, key),
    )
    dao._conn.commit()


def commits(dao, op):
    """How many ``COMMIT`` statements ``op()`` runs on ``dao``."""
    statements = []
    dao._conn.set_trace_callback(statements.append)
    try:
        op()
    finally:
        dao._conn.set_trace_callback(None)
    return sum(sql.startswith("COMMIT") for sql in statements)


class TestWriteScope:
    """One write, its receipt and the writes nested in it: one commit."""

    def test_a_write_and_its_receipt_commit_once(self, dao):
        def write():
            with dao.write():
                dao.insert_pe(make_pe())
                dao.save_write_receipt(1, "k", "fp", 201, {"peId": 1})

        assert commits(dao, write) == 1
        assert dao.get_write_receipt(1, "k") == ("fp", 201, {"peId": 1})
        assert [r.pe_name for r in dao.find_pe_by_name("p")] == ["p"]

    def test_a_raising_scope_leaves_neither_write_nor_receipt(self, dao):
        before = dao.mutation_counter()
        ran = []
        with pytest.raises(RuntimeError):
            with dao.write():
                dao.insert_pe(make_pe())
                dao.after_commit(lambda: ran.append("index"))
                dao.save_write_receipt(1, "k", "fp", 201, {})
                raise RuntimeError("fault before the commit")
        assert dao.get_write_receipt(1, "k") is None
        assert dao.find_pe_by_name("p") == []
        assert dao.mutation_counter() == before
        assert ran == []
        # the key is free: the next write under it records its receipt
        dao.save_write_receipt(1, "k", "fp", 201, {"retried": True})
        assert dao.get_write_receipt(1, "k")[2] == {"retried": True}

    def test_nested_scopes_join_the_outermost(self, dao):
        ran = []

        def write():
            with dao.write():
                with dao.write():
                    dao.insert_pe(make_pe("a"))
                    dao.after_commit(lambda: ran.append("inner"))
                dao.insert_pe(make_pe("b"))
                dao.after_commit(lambda: ran.append("outer"))
                assert ran == []

        assert commits(dao, write) == 1
        assert ran == ["inner", "outer"]

    def test_a_pending_row_reads_as_absent_and_is_replaced(self, dao):
        leave_pending_row(dao, 1, "k")
        assert dao.get_write_receipt(1, "k") is None
        with dao.write():
            dao.save_write_receipt(1, "k", "fp", 201, {"peId": 9})
        assert dao.get_write_receipt(1, "k") == ("fp", 201, {"peId": 9})


def test_a_scope_holds_the_write_lock_from_its_first_read(tmp_path):
    """Another connection on the file sees nothing of an open scope and
    cannot begin a write of its own until it commits."""
    path = tmp_path / "reg.db"
    first, second = SqliteDAO(path), SqliteDAO(path)
    second._conn.execute("PRAGMA busy_timeout = 0")
    with first.write():
        assert first.get_write_receipt(1, "k") is None
        first.save_write_receipt(1, "k", "fp", 201, {"peId": 1})
        assert second.get_write_receipt(1, "k") is None
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            with second.write():
                pass
    assert second.get_write_receipt(1, "k") == ("fp", 201, {"peId": 1})
    with second.write():
        second.save_write_receipt(1, "k2", "fp", 200, {})
    first.close()
    second.close()


class TestReceiptLifetime:
    """Receipts are kept for good: nothing ages or evicts them."""

    def test_receipts_are_kept_without_bound(self, dao):
        for n in range(200):
            dao.save_write_receipt(1, f"k{n}", f"fp{n}", 201, {"n": n}, float(n))
        assert all(
            dao.get_write_receipt(1, f"k{n}") == (f"fp{n}", 201, {"n": n})
            for n in range(200)
        )

    def test_save_replaces_the_receipt_under_its_key(self, dao):
        dao.save_write_receipt(1, "k", "fp1", 201, {"v": 1}, 1.0)
        dao.save_write_receipt(1, "k", "fp2", 200, {"v": 2}, 2.0)
        assert dao.get_write_receipt(1, "k") == ("fp2", 200, {"v": 2})

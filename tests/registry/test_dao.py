"""DAO tests, on an in-memory database and on a file."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.errors import NotFoundError
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord


@pytest.fixture(params=["sqlite", "sqlite-file"])
def dao(request, tmp_path):
    if request.param == "sqlite":
        return SqliteDAO(":memory:")
    return SqliteDAO(tmp_path / "registry.db")


def make_pe(name="MyPE", code="Y29kZQ==", **kw):
    return PERecord(
        pe_id=0,
        pe_name=name,
        description=kw.get("description", "does things"),
        pe_code=code,
        pe_source=kw.get("pe_source", "class MyPE: pass"),
        pe_imports=kw.get("pe_imports", ["numpy"]),
        code_embedding=kw.get("code_embedding"),
        desc_embedding=kw.get("desc_embedding"),
        owners=set(kw.get("owners", ())),
    )


def make_wf(entry="wf", code="d29ya2Zsb3c=", **kw):
    return WorkflowRecord(
        workflow_id=0,
        workflow_name=kw.get("workflow_name", entry),
        entry_point=entry,
        description=kw.get("description", ""),
        workflow_code=code,
        pe_ids=list(kw.get("pe_ids", ())),
        owners=set(kw.get("owners", ())),
    )


class TestUsers:
    def test_insert_assigns_increasing_ids(self, dao):
        first = dao.insert_user("alice", "h1")
        second = dao.insert_user("bob", "h2")
        assert second.user_id > first.user_id

    def test_get_by_name(self, dao):
        dao.insert_user("alice", "h1")
        user = dao.get_user_by_name("alice")
        assert user is not None and user.password_hash == "h1"
        assert dao.get_user_by_name("nobody") is None

    def test_all_users_ordered(self, dao):
        dao.insert_user("a", "h")
        dao.insert_user("b", "h")
        assert [u.user_name for u in dao.all_users()] == ["a", "b"]


class TestPEs:
    def test_insert_get_round_trip(self, dao):
        record = make_pe(owners={1})
        stored = dao.insert_pe(record)
        assert stored.pe_id > 0
        fetched = dao.get_pe(stored.pe_id)
        assert fetched.pe_name == "MyPE"
        assert fetched.pe_imports == ["numpy"]
        assert fetched.owners == {1}

    def test_embeddings_survive_storage(self, dao):
        vec = np.arange(8, dtype=np.float32) / 7.0
        stored = dao.insert_pe(make_pe(code_embedding=vec, desc_embedding=vec * 2))
        fetched = dao.get_pe(stored.pe_id)
        np.testing.assert_allclose(fetched.code_embedding, vec)
        np.testing.assert_allclose(fetched.desc_embedding, vec * 2)

    def test_update_pe(self, dao):
        stored = dao.insert_pe(make_pe())
        stored.description = "new description"
        stored.owners = {1, 2}
        dao.update_pe(stored)
        fetched = dao.get_pe(stored.pe_id)
        assert fetched.description == "new description"
        assert fetched.owners == {1, 2}

    def test_update_missing_raises(self, dao):
        record = make_pe()
        record.pe_id = 999
        with pytest.raises(NotFoundError):
            dao.update_pe(record)

    def test_find_by_name(self, dao):
        dao.insert_pe(make_pe("A"))
        dao.insert_pe(make_pe("A", code="b3RoZXI="))
        dao.insert_pe(make_pe("B"))
        assert len(dao.find_pe_by_name("A")) == 2
        assert dao.find_pe_by_name("missing") == []

    def test_delete_pe(self, dao):
        stored = dao.insert_pe(make_pe())
        dao.delete_pe(stored.pe_id)
        assert dao.get_pe(stored.pe_id) is None
        with pytest.raises(NotFoundError):
            dao.delete_pe(stored.pe_id)

    def test_delete_pe_unlinks_from_workflows(self, dao):
        pe = dao.insert_pe(make_pe())
        wf = dao.insert_workflow(make_wf(pe_ids=[pe.pe_id]))
        dao.delete_pe(pe.pe_id)
        assert dao.get_workflow(wf.workflow_id).pe_ids == []


class TestWorkflows:
    def test_insert_get_round_trip(self, dao):
        stored = dao.insert_workflow(make_wf("isPrime", pe_ids=[1, 2]))
        fetched = dao.get_workflow(stored.workflow_id)
        assert fetched.entry_point == "isPrime"
        assert fetched.pe_ids == [1, 2]

    def test_find_by_entry_point(self, dao):
        dao.insert_workflow(make_wf("astro"))
        assert len(dao.find_workflow_by_entry_point("astro")) == 1
        assert dao.find_workflow_by_entry_point("none") == []

    def test_update_workflow(self, dao):
        stored = dao.insert_workflow(make_wf())
        stored.pe_ids = [7]
        dao.update_workflow(stored)
        assert dao.get_workflow(stored.workflow_id).pe_ids == [7]

    def test_delete_workflow(self, dao):
        stored = dao.insert_workflow(make_wf())
        dao.delete_workflow(stored.workflow_id)
        assert dao.get_workflow(stored.workflow_id) is None
        with pytest.raises(NotFoundError):
            dao.delete_workflow(stored.workflow_id)

    def test_find_workflows_by_entry_points(self, dao):
        a = dao.insert_workflow(make_wf("a"))
        dao.insert_workflow(make_wf("b"))
        c = dao.insert_workflow(make_wf("c"))
        found = dao.find_workflows_by_entry_points(["c", "a", "missing"])
        assert sorted(w.workflow_id for w in found) == [
            a.workflow_id, c.workflow_id
        ]
        assert dao.find_workflows_by_entry_points([]) == []

    def test_workflows_owned_by_in_insertion_order(self, dao):
        dao.insert_workflow(make_wf("a", owners={1}))
        dao.insert_workflow(make_wf("b", owners={1}))
        assert [w.entry_point for w in dao.workflows_owned_by(1)] == ["a", "b"]


class TestOwnerScopedQueries:
    """The O(k)-serving access paths, identical across backends."""

    def test_pes_owned_by_filters_and_orders(self, dao):
        a = dao.insert_pe(make_pe("A", owners={1}))
        dao.insert_pe(make_pe("B", code="Yg==", owners={2}))
        c = dao.insert_pe(make_pe("C", code="Yw==", owners={1, 2}))
        assert [p.pe_id for p in dao.pes_owned_by(1)] == [a.pe_id, c.pe_id]
        assert dao.pes_owned_by(99) == []

    def test_pe_ids_owned_by_matches_full_listing(self, dao):
        dao.insert_pe(make_pe("A", owners={1}))
        dao.insert_pe(make_pe("B", code="Yg==", owners={2}))
        dao.insert_pe(make_pe("C", code="Yw==", owners={1}))
        assert dao.pe_ids_owned_by(1) == [
            p.pe_id for p in dao.pes_owned_by(1)
        ]
        assert dao.pe_ids_owned_by(42) == []

    def test_owner_queries_follow_updates(self, dao):
        stored = dao.insert_pe(make_pe(owners={1}))
        stored.owners = {2, 3}
        dao.update_pe(stored)
        assert dao.pe_ids_owned_by(1) == []
        assert dao.pe_ids_owned_by(2) == [stored.pe_id]
        dao.delete_pe(stored.pe_id)
        assert dao.pe_ids_owned_by(2) == []

    def test_get_pes_batch_in_request_order(self, dao):
        first = dao.insert_pe(make_pe("A"))
        second = dao.insert_pe(make_pe("B", code="Yg=="))
        records = dao.get_pes([second.pe_id, first.pe_id, 999])
        assert [r.pe_id for r in records] == [second.pe_id, first.pe_id]
        assert dao.get_pes([]) == []

    def test_get_pes_leaves_the_embeddings_out(self, dao):
        """The batched fetch renders records, not vectors: its vector
        fields are ``None``, while a single read keeps them."""
        vec = np.arange(6, dtype=np.float32)
        stored = dao.insert_pe(make_pe(desc_embedding=vec))
        [fetched] = dao.get_pes([stored.pe_id])
        assert fetched.desc_embedding is None
        assert fetched.code_embedding is None
        assert fetched.to_json() == stored.to_json()
        np.testing.assert_allclose(dao.get_pe(stored.pe_id).desc_embedding, vec)

    def test_workflows_owned_by(self, dao):
        a = dao.insert_workflow(make_wf("a", owners={1}))
        dao.insert_workflow(make_wf("b", owners={2}))
        assert [w.workflow_id for w in dao.workflows_owned_by(1)] == [
            a.workflow_id
        ]
        assert dao.workflow_ids_owned_by(1) == [a.workflow_id]
        assert dao.workflow_ids_owned_by(3) == []

    def test_get_workflows_batch(self, dao):
        first = dao.insert_workflow(make_wf("a"))
        second = dao.insert_workflow(make_wf("b"))
        records = dao.get_workflows([second.workflow_id, first.workflow_id])
        assert [r.workflow_id for r in records] == [
            second.workflow_id,
            first.workflow_id,
        ]

    def test_bulk_insert_pes(self, dao):
        seeded = dao.insert_pe(make_pe("Seed"))
        batch = [
            make_pe(f"Bulk{i}", code=f"Yg=={i}", owners={1 + (i % 2)})
            for i in range(5)
        ]
        stored = dao.insert_pes(batch)
        assert [r.pe_id for r in stored] == [
            seeded.pe_id + 1 + i for i in range(5)
        ]
        names = ["Seed"] + [f"Bulk{i}" for i in range(5)]
        assert len(dao.find_pes_by_names(names)) == 6
        assert dao.pe_ids_owned_by(1) == [stored[0].pe_id, stored[2].pe_id,
                                          stored[4].pe_id]
        # ids keep incrementing past the bulk block
        after = dao.insert_pe(make_pe("After", code="YWZ0ZXI="))
        assert after.pe_id > stored[-1].pe_id

    def test_bulk_insert_workflows(self, dao):
        stored = dao.insert_workflows(
            [make_wf(f"wf{i}", owners={7}, pe_ids=[i + 1]) for i in range(3)]
        )
        assert dao.workflow_ids_owned_by(7) == [
            r.workflow_id for r in stored
        ]
        assert dao.get_workflow(stored[1].workflow_id).pe_ids == [2]

    def test_bulk_insert_pes_never_reuses_a_deleted_id(self, dao):
        """A bulk insert numbers its rows past every id ever issued —
        past the table's high-water mark, which single inserts raise
        too — a reused id would repeat the deleted record's ETag
        (``"pe-{id}-{revision}"``)."""
        dao.insert_pe(make_pe("Old"))
        newest = dao.insert_pe(make_pe("Newest", code="bmV3"))
        dao.delete_pe(newest.pe_id)
        [stored] = dao.insert_pes([make_pe("Bulk", code="YnVsaw==")])
        assert stored.pe_id > newest.pe_id
        after = dao.insert_pe(make_pe("After", code="YWZ0ZXI="))
        assert after.pe_id > stored.pe_id

    def test_bulk_insert_workflows_never_reuses_a_deleted_id(self, dao):
        dao.insert_workflow(make_wf("old"))
        newest = dao.insert_workflow(make_wf("newest", code="bmV3"))
        dao.delete_workflow(newest.workflow_id)
        [stored] = dao.insert_workflows([make_wf("bulk", code="YnVsaw==")])
        assert stored.workflow_id > newest.workflow_id
        after = dao.insert_workflow(make_wf("after", code="YWZ0ZXI="))
        assert after.workflow_id > stored.workflow_id

    def test_bulk_insert_empty(self, dao):
        assert dao.insert_pes([]) == []
        assert dao.insert_workflows([]) == []


def issued(dao, kind, name):
    """Insert one record of ``kind`` through the single-record path;
    its issued id."""
    if kind == "pe":
        return dao.insert_pe(make_pe(name, code=name)).pe_id
    return dao.insert_workflow(make_wf(name, code=name)).workflow_id


def issued_bulk(dao, kind, names):
    if kind == "pe":
        return [
            r.pe_id
            for r in dao.insert_pes([make_pe(n, code=n) for n in names])
        ]
    return [
        r.workflow_id
        for r in dao.insert_workflows([make_wf(n, code=n) for n in names])
    ]


def delete(dao, kind, record_id):
    if kind == "pe":
        dao.delete_pe(record_id)
    else:
        dao.delete_workflow(record_id)


@pytest.mark.parametrize("kind", ["pe", "workflow"])
class TestIdsAreNeverReused:
    """The DAO issues record ids from a high-water mark per record table
    (a row of ``shard_stamps``, raised inside the write transaction)
    that no delete lowers: an id names one record for the life of the
    file, and with it that record's ETags."""

    def test_a_single_insert_after_deleting_the_highest_id(self, dao, kind):
        issued(dao, kind, "a")
        highest = issued(dao, kind, "b")
        delete(dao, kind, highest)
        assert issued(dao, kind, "c") == highest + 1

    def test_bulk_and_single_inserts_share_one_sequence(self, dao, kind):
        first = issued(dao, kind, "a")
        bulk = issued_bulk(dao, kind, ["b", "c", "d"])
        assert bulk == [first + 1, first + 2, first + 3]
        delete(dao, kind, bulk[-1])
        single = issued(dao, kind, "e")
        assert single == bulk[-1] + 1
        delete(dao, kind, single)
        assert issued_bulk(dao, kind, ["f", "g"]) == [single + 1, single + 2]

    def test_across_a_reopen(self, tmp_path, kind):
        path = tmp_path / "registry.db"
        dao = SqliteDAO(path)
        issued_bulk(dao, kind, ["a", "b"])
        highest = issued(dao, kind, "c")
        delete(dao, kind, highest)
        dao.close()
        dao = SqliteDAO(path)
        assert issued(dao, kind, "d") == highest + 1
        dao.close()

    def test_two_daos_on_one_file_never_collide(self, tmp_path, kind):
        path = tmp_path / "registry.db"
        daos = [SqliteDAO(path), SqliteDAO(path)]
        ids = []
        for i in range(6):
            writer = daos[i % 2]
            if i % 3 == 2:
                ids.extend(issued_bulk(writer, kind, [f"b{i}", f"c{i}"]))
            else:
                ids.append(issued(writer, kind, f"a{i}"))
            if i == 3:
                delete(daos[0], kind, ids[-1])
        assert ids == sorted(set(ids)), ids
        assert ids == list(range(1, len(ids) + 1))
        for dao in daos:
            dao.close()

    def test_concurrent_writers_on_one_file_issue_distinct_ids(
        self, tmp_path, kind
    ):
        """Four threads, each with its own connection to one file, insert
        singles and bulks at once: every id is issued exactly once, and
        together they are 1..N — the high-water row is raised inside
        each write transaction, which SQLite serializes."""
        path = tmp_path / "registry.db"
        SqliteDAO(path).close()
        daos = [SqliteDAO(path) for _ in range(4)]
        ids: list[list[int]] = [[] for _ in daos]

        def write(at):
            for i in range(5):
                if i % 2:
                    ids[at].extend(
                        issued_bulk(daos[at], kind, [f"b{at}.{i}", f"c{at}.{i}"])
                    )
                else:
                    ids[at].append(issued(daos[at], kind, f"a{at}.{i}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=(at,))
                for at in range(len(daos))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for dao in daos:
                dao.close()
        every = [record_id for own in ids for record_id in own]
        assert sorted(every) == list(range(1, 4 * 7 + 1))
        # each writer saw its own ids rise
        assert all(own == sorted(own) for own in ids)


def json_column_pairs(dao, table, key, column):
    """``(record id, member)`` for every member of a JSON list column."""
    return sorted(
        (row[0], member)
        for row in dao._conn.execute(f"SELECT {key}, {column} FROM {table}")
        for member in json.loads(row[1])
    )


def join_table_pairs(dao, table, key, member):
    """``(record id, member)`` for every row of a join table, whatever
    its column order (the owner tables are keyed by user first)."""
    rows = dao._conn.execute(f"SELECT {key}, {member} FROM {table}")
    return sorted(tuple(row) for row in rows)


class TestJoinTablesMirrorJsonColumns:
    """A record row keeps its owners (and a workflow its PEs) twice: as
    a JSON list, read at hydration, and in a join table, read by the
    owner-scoped queries and the delete back-reference.  Every write
    keeps the two equal."""

    def test_pe_owners(self, dao):
        a = dao.insert_pe(make_pe("A", owners={1}))
        b = dao.insert_pe(make_pe("B", code="Yg==", owners={1, 2}))
        dao.insert_pes(
            [
                make_pe(f"Bulk{i}", code=f"Yw=={i}", owners={i, 3})
                for i in range(3)
            ]
        )
        a.owners = {2, 4}
        dao.update_pe(a)
        b.owners = set()
        dao.update_pe(b)
        dao.delete_pe(dao.pe_ids_owned_by(3)[0])
        pairs = json_column_pairs(dao, "pes", "pe_id", "owners")
        assert (a.pe_id, 4) in pairs and len(pairs) == 6
        assert join_table_pairs(dao, "pe_owners", "pe_id", "user_id") == pairs

    def test_workflow_owners_and_pes(self, dao):
        p1, p2, p3 = (
            dao.insert_pe(make_pe(f"P{i}", code=f"cA=={i}")) for i in range(3)
        )
        w = dao.insert_workflow(
            make_wf("w", owners={1}, pe_ids=[p1.pe_id, p2.pe_id])
        )
        dao.insert_workflows(
            [
                make_wf("x", code="eA==", owners={1, 2}, pe_ids=[p2.pe_id]),
                make_wf("y", code="eQ==", owners={2}, pe_ids=[p3.pe_id]),
            ]
        )
        w.owners = {3}
        w.pe_ids = [p3.pe_id, p1.pe_id]
        dao.update_workflow(w)
        dao.delete_pe(p1.pe_id)
        dao.delete_workflow(dao.workflow_ids_owned_by(2)[-1])
        owners = json_column_pairs(dao, "workflows", "workflow_id", "owners")
        pes = json_column_pairs(dao, "workflows", "workflow_id", "pe_ids")
        assert owners == [(w.workflow_id, 3), (w.workflow_id + 1, 1),
                          (w.workflow_id + 1, 2)]
        assert pes == [
            (w.workflow_id, p3.pe_id), (w.workflow_id + 1, p2.pe_id)
        ]
        assert join_table_pairs(
            dao, "workflow_owners", "workflow_id", "user_id"
        ) == owners
        assert join_table_pairs(dao, "workflow_pes", "workflow_id", "pe_id") == pes


class TestSqliteDeleteBackref:
    """delete_pe must not scan the whole workflows table (regression)."""

    def test_delete_pe_reads_only_linked_workflows(self, tmp_path):
        dao = SqliteDAO(tmp_path / "backref.db")
        pe = dao.insert_pe(make_pe())
        linked = dao.insert_workflow(make_wf("linked", pe_ids=[pe.pe_id]))
        for i in range(10):
            dao.insert_workflow(make_wf(f"other{i}", code=f"Yg=={i}"))

        statements: list[str] = []
        dao._conn.set_trace_callback(statements.append)
        try:
            dao.delete_pe(pe.pe_id)
        finally:
            dao._conn.set_trace_callback(None)

        scans = [
            s
            for s in statements
            if "FROM workflows" in s and "workflow_id" not in s
        ]
        assert scans == [], f"full workflows scan during delete_pe: {scans}"
        assert dao.get_workflow(linked.workflow_id).pe_ids == []
        dao.close()

    def test_delete_pe_unlinks_only_referencing_workflows(self, dao):
        pe = dao.insert_pe(make_pe())
        keep = dao.insert_pe(make_pe("Keep", code="a2VlcA=="))
        linked = dao.insert_workflow(
            make_wf("linked", pe_ids=[pe.pe_id, keep.pe_id])
        )
        untouched = dao.insert_workflow(
            make_wf("untouched", code="Yg==", pe_ids=[keep.pe_id])
        )
        assert linked.revision == untouched.revision == 1
        dao.delete_pe(pe.pe_id)
        after = dao.get_workflow(linked.workflow_id)
        assert after.pe_ids == [keep.pe_id]
        # the unlink changed the workflow, so its revision moves on
        assert after.revision == 2
        still = dao.get_workflow(untouched.workflow_id)
        assert still.pe_ids == [keep.pe_id]
        assert still.revision == 1


class TestSqlitePersistence:
    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        dao = SqliteDAO(path)
        dao.insert_user("alice", "h")
        dao.insert_pe(make_pe(owners={1}))
        dao.close()
        reopened = SqliteDAO(path)
        assert reopened.get_user_by_name("alice") is not None
        assert len(reopened.pes_owned_by(1)) == 1
        reopened.close()

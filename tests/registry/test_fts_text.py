"""Inverted text index: cross-DAO BM25 parity and the v4→v5 backfill.

``text_topk_pes`` / ``text_topk_workflows`` rank inside the DAO —
SQLite FTS5 external-content tables on one side, the in-memory
postings mirror on the other.  The mirror computes SQLite's exact
``bm25()`` arithmetic (same constants, clamped idf, sorted-term
summation), so both backends must agree on the ranked ids *and* the
scores; everything above the DAO (service hydration, the v1 route,
hybrid fusion) builds on that equivalence.

The second half exercises the schema v4→v5 migration: a database whose
text side tables are missing (pre-v5 writer) must be backfilled on
open and rank identically to a natively-v5 registry.
"""

import sqlite3

import pytest

from repro.registry.dao import _SCHEMA_VERSION, InMemoryDAO, SqliteDAO
from repro.registry.service import RegistryService
from tests.registry.test_dao import make_pe, make_wf

#: exercises multi-token queries, repeated terms, camelCase splits,
#: unicode, name-substring bonuses and blank/no-match degenerates
CORPUS = [
    ("isPrime", "checks whether numbers are prime"),
    ("VoTableReader", "reads a vo-table from disk"),
    ("read_ra_dec", "parse right-ascension and declination"),
    ("Percent%Escape", "literal percent_sign and under_score"),
    ("CaféReader", "reads café menus"),
    ("Plain", "nothing remarkable"),
    ("primality", "prime prime prime, emphatically prime"),
    ("TableScan", "scans every table in the catalogue of tables"),
]

QUERIES = [
    "prime",
    "isPrime",
    "is prime",
    "prime numbers",
    "vo table",
    "table",
    "reads",
    "ra dec",
    "under_score",
    "café",
    "zzz-no-match",
    "   ",
    "catalogue of tables",
]


def fill(dao):
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    for i, (name, description) in enumerate(CORPUS):
        service.add_pe(
            alice,
            make_pe(name, code=f"a{i}".encode().hex(), description=description),
        )
        service.add_workflow(
            alice,
            make_wf(
                f"{name}Flow", code=f"w{i}".encode().hex(),
                description=description,
            ),
        )
    # bob's records share the global df statistics but never his ids
    service.add_pe(
        bob,
        make_pe(
            "primeBob", code="Ym9i".encode().hex(),
            description="bob's prime element",
        ),
    )
    return service, alice, bob


@pytest.fixture()
def pair(tmp_path):
    """The same corpus through both DAOs (ids align: both count from 1)."""
    mem_service, mem_alice, _ = fill(InMemoryDAO())
    sql_service, sql_alice, _ = fill(SqliteDAO(tmp_path / "fts.db"))
    assert mem_alice.user_id == sql_alice.user_id
    return mem_service, sql_service, mem_alice


class TestCrossDAOParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pe_ranking_matches(self, pair, query):
        mem, sql, alice = pair
        got_mem = mem.dao.text_topk_pes(alice.user_id, query)
        got_sql = sql.dao.text_topk_pes(alice.user_id, query)
        assert [i for i, _ in got_mem] == [i for i, _ in got_sql]
        for (_, s_mem), (_, s_sql) in zip(got_mem, got_sql):
            assert s_mem == pytest.approx(s_sql, rel=1e-9)

    @pytest.mark.parametrize("query", QUERIES)
    def test_workflow_ranking_matches(self, pair, query):
        mem, sql, alice = pair
        got_mem = mem.dao.text_topk_workflows(alice.user_id, query)
        got_sql = sql.dao.text_topk_workflows(alice.user_id, query)
        assert [i for i, _ in got_mem] == [i for i, _ in got_sql]
        for (_, s_mem), (_, s_sql) in zip(got_mem, got_sql):
            assert s_mem == pytest.approx(s_sql, rel=1e-9)

    @pytest.mark.parametrize("query", ["prime", "table"])
    def test_k_truncates_the_same_prefix(self, pair, query):
        mem, sql, alice = pair
        full = mem.dao.text_topk_pes(alice.user_id, query)
        assert len(full) >= 2
        for dao in (mem.dao, sql.dao):
            got = dao.text_topk_pes(alice.user_id, query, k=1)
            assert [i for i, _ in got] == [full[0][0]]

    def test_blank_query_is_empty(self, pair):
        mem, sql, alice = pair
        assert mem.dao.text_topk_pes(alice.user_id, "   ") == []
        assert sql.dao.text_topk_pes(alice.user_id, "   ") == []

    def test_owner_scoping(self, pair):
        mem, sql, alice = pair
        for service in (mem, sql):
            ranked = service.dao.text_topk_pes(alice.user_id, "prime")
            names = {
                pe.pe_name
                for pe in service.dao.get_pes([i for i, _ in ranked])
            }
            assert "primeBob" not in names
            assert names >= {"isPrime", "primality"}

    def test_name_substring_bonus_outranks_description_hits(self, pair):
        mem, sql, alice = pair
        for service in (mem, sql):
            ranked = service.dao.text_topk_pes(alice.user_id, "isprime")
            by_id = {
                pe.pe_id: pe.pe_name
                for pe in service.dao.get_pes([i for i, _ in ranked])
            }
            assert by_id[ranked[0][0]] == "isPrime"


class TestMutationSync:
    """The index tracks writes without any rebuild hook on either DAO."""

    @pytest.fixture(params=["memory", "sqlite"])
    def service(self, request, tmp_path):
        dao = (
            InMemoryDAO()
            if request.param == "memory"
            else SqliteDAO(tmp_path / "mut.db")
        )
        return fill(dao)[0]

    def test_removed_pe_leaves_the_ranking(self, service):
        alice = service.get_user("alice")
        ranked = service.dao.text_topk_pes(alice.user_id, "prime")
        assert len(ranked) >= 2
        target = next(
            pe
            for pe in service.dao.get_pes([i for i, _ in ranked])
            if pe.pe_name == "isPrime"
        )
        service.remove_pe(alice, target.pe_id)
        after = service.dao.text_topk_pes(alice.user_id, "prime")
        assert target.pe_id not in {i for i, _ in after}
        assert after  # primality still matches

    def test_new_pe_enters_the_ranking(self, service):
        alice = service.get_user("alice")
        before = {
            i for i, _ in service.dao.text_topk_pes(alice.user_id, "prime")
        }
        record = service.add_pe(
            alice,
            make_pe(
                "latePrime", code="bGF0ZQ==".encode().hex(),
                description="a late prime arrival",
            ),
        )
        after = {
            i for i, _ in service.dao.text_topk_pes(alice.user_id, "prime")
        }
        assert after == before | {record.pe_id}


class TestSchemaV5Backfill:
    def _scrub_to_v4(self, path):
        """Emulate a pre-v5 file: no side tables populated, version 4."""
        conn = sqlite3.connect(path)
        # the AFTER DELETE triggers cascade the FTS5 'delete' commands,
        # exactly the state a pre-v5 writer leaves behind
        conn.execute("DELETE FROM pe_text")
        conn.execute("DELETE FROM wf_text")
        conn.execute("PRAGMA user_version = 4")
        conn.commit()
        conn.close()

    def test_v4_file_backfills_on_open(self, tmp_path):
        path = tmp_path / "old.db"
        service, alice, _ = fill(SqliteDAO(path))
        expected_pes = service.dao.text_topk_pes(alice.user_id, "prime")
        expected_wfs = service.dao.text_topk_workflows(alice.user_id, "table")
        assert expected_pes and expected_wfs
        service.dao.close()
        self._scrub_to_v4(path)

        dao2 = SqliteDAO(path)
        version = dao2._conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == _SCHEMA_VERSION
        assert (
            dao2.text_topk_pes(alice.user_id, "prime") == expected_pes
        )
        assert (
            dao2.text_topk_workflows(alice.user_id, "table") == expected_wfs
        )

    def test_v5_file_with_drifted_side_tables_rebackfills(self, tmp_path):
        """A pre-v5 writer touching a v5 file bumps neither the side
        tables nor user_version; the row-count probe catches it."""
        path = tmp_path / "drift.db"
        service, alice, _ = fill(SqliteDAO(path))
        expected = service.dao.text_topk_pes(alice.user_id, "prime")
        service.dao.close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM pe_text")  # drift, version stays 5
        conn.commit()
        conn.close()

        dao2 = SqliteDAO(path)
        assert dao2.text_topk_pes(alice.user_id, "prime") == expected

    def test_backfilled_file_matches_inmemory_ranking(self, tmp_path):
        path = tmp_path / "old2.db"
        fill(SqliteDAO(path))[0].dao.close()
        self._scrub_to_v4(path)
        dao2 = SqliteDAO(path)
        mem_service, mem_alice, _ = fill(InMemoryDAO())
        for query in ("prime", "vo table", "catalogue of tables"):
            got_sql = dao2.text_topk_pes(mem_alice.user_id, query)
            got_mem = mem_service.dao.text_topk_pes(mem_alice.user_id, query)
            assert [i for i, _ in got_sql] == [i for i, _ in got_mem]
            for (_, s_sql), (_, s_mem) in zip(got_sql, got_mem):
                assert s_sql == pytest.approx(s_mem, rel=1e-9)

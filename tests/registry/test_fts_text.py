"""Inverted text index: the pinned BM25 ranking and the v4→v5 backfill.

``text_topk_pes`` / ``text_topk_workflows`` rank inside the DAO's
SQLite FTS5 external-content tables.  :data:`GOLDEN_PES` /
:data:`GOLDEN_WORKFLOWS` pin the ``(id, score)`` list of every query in
:data:`QUERIES` over the :func:`fill` corpus — recorded from
``SqliteDAO`` when an independent re-implementation of ``bm25()``
still cross-checked it to 1e-9 — so any change to how text is stored
or indexed (tokenizer, ``detail=``, side tables) must keep the same
ids in the same BM25 order with the same scores.  Everything above the
DAO (service hydration, the v1 route, hybrid fusion) builds on it.

The second half exercises the schema v4→v5 migration: a database whose
text side tables are missing (pre-v5 writer) must be backfilled on
open and rank identically to a natively-v5 registry.
"""

import sqlite3

import pytest

from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
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

#: ``text_topk_pes(alice, query)`` over :func:`fill`'s corpus, in rank
#: order: alice's PEs are ids 1-8 in ``CORPUS`` order
GOLDEN_PES = {
    "prime": [(1, 2.974545654956068), (7, 1.194148827807956)],
    "isPrime": [(1, 3.7406356164621277)],
    "is prime": [(1, 4.715181271418196), (7, 1.194148827807956)],
    "prime numbers": [(1, 3.3653204570731505), (7, 1.194148827807956)],
    "vo table": [(2, 6.251457711658923), (8, 1.5748191614480471)],
    "table": [(2, 3.648553469007175), (8, 3.574819161448047)],
    "reads": [(5, 1.6566932915378527), (2, 1.422442644081004)],
    "ra dec": [(3, 6.491794852655884)],
    "under_score": [(4, 4.491794852655884)],
    "café": [(5, 4.615756224099637)],
    "zzz-no-match": [],
    "   ": [],
    "catalogue of tables": [(8, 6.352726555072925)],
}

#: ``text_topk_workflows(alice, query)``, same corpus: workflow ids 1-8
GOLDEN_WORKFLOWS = {
    "prime": [(1, 3.6282921603875757), (7, 1.854543607463926)],
    "isPrime": [(1, 2.0)],
    "is prime": [(1, 5.866448549360408), (7, 1.854543607463926)],
    "prime numbers": [(1, 3.8664485493604084), (7, 1.854543607463926)],
    "vo table": [(2, 6.214255852438671), (8, 1.5422781944683492)],
    "table": [(2, 3.569921716998029), (8, 3.5422781944683495)],
    "reads": [(5, 1.4146199051550203), (2, 1.2527563641599286)],
    "ra dec": [(3, 6.64919936057129)],
    "under_score": [(4, 4.2202186023301795)],
    "café": [(5, 4.6742926037424635)],
    "zzz-no-match": [],
    "   ": [],
    "catalogue of tables": [(8, 6.154281704556816)],
}


def assert_ranking(got, golden):
    """Same ids in the same order, every score within 1e-9."""
    assert [i for i, _ in got] == [i for i, _ in golden]
    for (_, score), (_, pinned) in zip(got, golden):
        assert score == pytest.approx(pinned, rel=1e-9)


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


def open_store(param, path):
    """``memory``: the ephemeral store every in-process stack runs on;
    ``sqlite``: a registry file."""
    return SqliteDAO(":memory:" if param == "memory" else path)


@pytest.fixture(params=["memory", "sqlite"])
def filled(request, tmp_path):
    service, alice, _ = fill(open_store(request.param, tmp_path / "fts.db"))
    return service.dao, alice


class TestGoldenRanking:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pe_ranking_is_pinned(self, filled, query):
        dao, alice = filled
        assert_ranking(
            dao.text_topk_pes(alice.user_id, query), GOLDEN_PES[query]
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_workflow_ranking_is_pinned(self, filled, query):
        dao, alice = filled
        assert_ranking(
            dao.text_topk_workflows(alice.user_id, query),
            GOLDEN_WORKFLOWS[query],
        )

    @pytest.mark.parametrize("query", ["prime", "table"])
    def test_k_truncates_the_same_prefix(self, filled, query):
        dao, alice = filled
        assert len(GOLDEN_PES[query]) >= 2
        got = dao.text_topk_pes(alice.user_id, query, k=1)
        assert [i for i, _ in got] == [GOLDEN_PES[query][0][0]]

    def test_owner_scoping(self, filled):
        dao, alice = filled
        ranked = dao.text_topk_pes(alice.user_id, "prime")
        names = {pe.pe_name for pe in dao.get_pes([i for i, _ in ranked])}
        assert "primeBob" not in names
        assert names >= {"isPrime", "primality"}

    def test_name_substring_bonus_outranks_description_hits(self, filled):
        dao, alice = filled
        ranked = dao.text_topk_pes(alice.user_id, "isprime")
        by_id = {
            pe.pe_id: pe.pe_name
            for pe in dao.get_pes([i for i, _ in ranked])
        }
        assert by_id[ranked[0][0]] == "isPrime"


class TestMutationSync:
    """The index tracks writes without any rebuild hook."""

    @pytest.fixture(params=["memory", "sqlite"])
    def service(self, request, tmp_path):
        return fill(open_store(request.param, tmp_path / "mut.db"))[0]

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

    def test_backfilled_file_matches_the_golden_ranking(self, tmp_path):
        path = tmp_path / "old2.db"
        service, alice, _ = fill(SqliteDAO(path))
        service.dao.close()
        self._scrub_to_v4(path)
        dao2 = SqliteDAO(path)
        for query in QUERIES:
            assert_ranking(
                dao2.text_topk_pes(alice.user_id, query), GOLDEN_PES[query]
            )
            assert_ranking(
                dao2.text_topk_workflows(alice.user_id, query),
                GOLDEN_WORKFLOWS[query],
            )

"""Inverted text index: the pinned BM25 ranking, its freshness across
connections, and what opening an older file does to it.

``text_topk_pes`` / ``text_topk_workflows`` rank inside the DAO's
contentless SQLite FTS5 tables, held in an attached in-memory database
beside the documents they index.  Since schema v15 the file keeps no
document: the first text ranking after open derives them from the
record rows (v11 to v14 kept them in ``pe_text`` / ``wf_text``; before
v11 the FTS5 tables were in the file too).
:data:`GOLDEN_PES` /
:data:`GOLDEN_WORKFLOWS` pin the ``(id, score)`` list of every query in
:data:`QUERIES` over the :func:`fill` corpus — recorded from
``SqliteDAO`` when an independent re-implementation of ``bm25()``
still cross-checked it to 1e-9 — so any change to how text is stored
or indexed (tokenizer, ``detail=``, side tables) must keep the same
ids in the same BM25 order with the same scores.  Everything above the
DAO (service hydration, the v1 route, hybrid fusion) builds on it.

The index is a cache of the file, so :class:`TestFreshness` holds it
to "every ranking equals a freshly opened DAO's", exactly, whichever
connection or process wrote last, and :func:`assert_text_cache_current`
— which the write matrix and the attach model run after every write —
to "the documents are the builders run over the stored rows".  The rest
covers older files: a v10 file (on-disk FTS5 tables) is refused and
left as it was.  The one schema step there is, from v15, is
``test_step_from_v15.py``'s.
"""

import hashlib
import sqlite3
import sys
import threading

import pytest

from repro.errors import RegistryError
from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord
from repro.registry.service import RegistryService
from repro.search.text_search import fts_document, text_search_records
from repro.server import LaminarServer
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
        service.register_pe(
            alice,
            make_pe(name, code=f"a{i}".encode().hex(), description=description),
        )
        service.register_workflow(
            alice,
            make_wf(
                f"{name}Flow", code=f"w{i}".encode().hex(),
                description=description,
            ),
        )
    # bob's records share the global df statistics but never his ids
    service.register_pe(
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
        service.remove_pe_record(alice, service.get_by_id(alice, PERecord, target.pe_id))
        after = service.dao.text_topk_pes(alice.user_id, "prime")
        assert target.pe_id not in {i for i, _ in after}
        assert after  # primality still matches

    def test_new_pe_enters_the_ranking(self, service):
        alice = service.get_user("alice")
        before = {
            i for i, _ in service.dao.text_topk_pes(alice.user_id, "prime")
        }
        record = service.register_pe(
            alice,
            make_pe(
                "latePrime", code="bGF0ZQ==".encode().hex(),
                description="a late prime arrival",
            ),
        )[0]
        after = {
            i for i, _ in service.dao.text_topk_pes(alice.user_id, "prime")
        }
        assert after == before | {record.pe_id}


# ---------------------------------------------------------------------------
# the index is a cache: every connection ranks what a fresh open ranks
# ---------------------------------------------------------------------------
def rankings(dao, user_id):
    """Every :data:`QUERIES` ranking of both record tables, unrounded."""
    return {
        (kind, query): rank(user_id, query)
        for kind, rank in (
            ("pe", dao.text_topk_pes),
            ("workflow", dao.text_topk_workflows),
        )
        for query in QUERIES
    }


def fresh_rankings(path, user_id):
    """:func:`rankings` of a DAO opened on ``path`` just for this."""
    dao = SqliteDAO(path)
    try:
        return rankings(dao, user_id)
    finally:
        dao.close()


def insert(service, alice):
    service.register_pe(
        alice,
        make_pe("latePrime", code="bGF0ZQ==", description="a late prime"),
    )
    service.register_workflow(
        alice,
        make_wf("latePrimeFlow", code="d2xhdGU=", description="a late prime"),
    )


def revise(service, alice):
    pe = service.get_by_name(alice, PERecord, "isPrime")
    service.revise_pe(
        alice,
        pe,
        make_pe("isPrime", code=pe.pe_code, description="now scans tables"),
    )
    wf = service.get_by_name(alice, WorkflowRecord, "isPrimeFlow")
    service.revise_workflow(
        alice,
        wf,
        make_wf(
            "isPrimeFlow", code=wf.workflow_code,
            description="now scans tables",
        ),
    )


def rename(service, alice):
    pe = service.get_by_name(alice, PERecord, "VoTableReader")
    pe.pe_name = "VoTableDiskReader"
    service.dao.update_pe(pe)
    wf = service.get_by_name(alice, WorkflowRecord, "VoTableReaderFlow")
    service.revise_workflow(
        alice,
        wf,
        make_wf(
            "VoTableReaderFlow", code=wf.workflow_code,
            workflow_name="vo table disk reader", description=wf.description,
        ),
    )


def delete(service, alice):
    service.remove_pe_record(alice, service.get_by_name(alice, PERecord, "primality"))
    service.remove_workflow_record(
        alice, service.get_by_name(alice, WorkflowRecord, "primalityFlow")
    )


def bulk(service, alice):
    service.register_pes_bulk(
        alice,
        [
            make_pe(
                f"bulkPrime{i}", code=f"b{i}".encode().hex(),
                description=f"prime table number {i}",
            )
            for i in range(3)
        ],
    )
    service.register_workflows_bulk(
        alice,
        [
            make_wf(
                f"bulkPrimeFlow{i}", code=f"bw{i}".encode().hex(),
                description=f"prime table number {i}",
            )
            for i in range(3)
        ],
    )


#: one write of each kind, each moving at least one ranking
WRITES = [insert, revise, rename, delete, bulk]


class TestFreshness:
    @pytest.fixture()
    def shared(self, tmp_path):
        """A filled registry file, a writer service and a second DAO
        opened on the same file before any write (its first ranking
        fills its index)."""
        path = tmp_path / "shared.db"
        writer, alice, _ = fill(SqliteDAO(path))
        reader = SqliteDAO(path)
        yield path, writer, alice, reader
        reader.close()
        writer.dao.close()

    def test_a_second_connection_ranks_what_a_fresh_open_ranks(
        self, shared
    ):
        path, writer, alice, reader = shared
        before = rankings(reader, alice.user_id)
        for write in WRITES:
            write(writer, alice)
            got = rankings(reader, alice.user_id)
            assert got == fresh_rankings(path, alice.user_id), write.__name__
            assert got != before, f"{write.__name__} moved no ranking"
            before = got

    def test_a_reader_that_never_refills_goes_stale(self, shared, monkeypatch):
        """The mutant the test above must catch: the reader's index is
        filled by its first ranking and never again."""
        path, writer, alice, reader = shared
        rankings(reader, alice.user_id)
        monkeypatch.setattr(reader, "_fill_text_index", lambda *args: None)
        for write in WRITES:
            write(writer, alice)
            assert rankings(reader, alice.user_id) != fresh_rankings(
                path, alice.user_id
            ), write.__name__

    def test_its_own_write_after_a_foreign_one_still_refills(self, shared):
        """The reader's own commit carries its own document into its
        index, but it also observes the writer's commit it did not
        index: its next ranking must still refill."""
        path, writer, alice, reader = shared
        insert(writer, alice)
        RegistryService(reader).register_pe(
            alice,
            make_pe("ownPrime", code="b3du", description="its own prime"),
        )
        got = rankings(reader, alice.user_id)
        assert got == fresh_rankings(path, alice.user_id)
        assert got == rankings(writer.dao, alice.user_id)

    @staticmethod
    def derive(dao):
        """The first half of a fill (:meth:`SqliteDAO._text_topk`): the
        rows read in one snapshot and their documents derived."""
        with dao._conn:
            dao._conn.execute("BEGIN")
            version, rows = dao._text_rows()
        return version, dao._text_writes, dao._derived_documents(rows)

    @staticmethod
    def swap(dao, derived):
        """The second half: the derived documents swapped in."""
        with dao._lock, dao._conn:
            dao._fill_text_index(*derived)

    def test_a_fill_derived_before_a_foreign_commit_derives_again(
        self, shared
    ):
        path, writer, alice, reader = shared
        derived = self.derive(reader)
        insert(writer, alice)
        self.swap(reader, derived)
        # filled at the file's version now, so no ranking fills again
        assert reader._text_version == reader._conn.execute(
            "PRAGMA main.data_version"
        ).fetchone()[0]
        assert rankings(reader, alice.user_id) == fresh_rankings(
            path, alice.user_id
        )

    def test_a_fill_derived_before_its_own_write_derives_again(self, shared):
        """Its own commit moves no ``data_version``: documents derived
        before it would hide the record it wrote for good."""
        path, writer, alice, reader = shared
        derived = self.derive(reader)
        RegistryService(reader).register_pe(
            alice,
            make_pe("ownPrime", code="b3du", description="its own prime"),
        )
        self.swap(reader, derived)
        assert rankings(reader, alice.user_id) == fresh_rankings(
            path, alice.user_id
        )
        assert_text_cache_current(reader)

    def test_a_fill_another_ranking_finished_is_kept(self, shared):
        path, writer, alice, reader = shared
        derived = self.derive(reader)
        filled = rankings(reader, alice.user_id)
        writes = reader._text_writes
        self.swap(reader, derived)
        assert reader._text_writes == writes
        assert rankings(reader, alice.user_id) == filled

    def test_a_concurrent_reader_never_ranks_behind_a_seen_commit(
        self, shared
    ):
        """A writer thread inserts matching PEs one commit at a time and
        publishes each count once committed; a reader thread on the
        other connection ranks meanwhile and must find at least every
        insert published before its ranking began."""
        path, writer, alice, reader = shared
        inserts, committed, behind = 40, [0], []

        def write():
            for i in range(inserts):
                writer.register_pe(
                    alice,
                    make_pe(
                        f"stress{i}", code=f"s{i}".encode().hex(),
                        description="stress element",
                    ),
                )
                committed[0] = i + 1

        def read():
            while committed[0] < inserts:
                seen = committed[0]
                found = len(reader.text_topk_pes(alice.user_id, "stress"))
                if found < seen:
                    behind.append((found, seen))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=f) for f in (write, read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert committed[0] == inserts and behind == []
        assert rankings(reader, alice.user_id) == fresh_rankings(
            path, alice.user_id
        )

    def test_close_and_reopen_ranks_exactly_as_before(self, tmp_path):
        path = tmp_path / "reopen.db"
        service, alice, _ = fill(SqliteDAO(path))
        filled = rankings(service.dao, alice.user_id)
        for write in WRITES:
            write(service, alice)
        # an index kept in step write by write (deletes included) ranks
        # exactly what one filled from the documents ranks
        written = rankings(service.dao, alice.user_id)
        service.dao.close()
        assert fresh_rankings(path, alice.user_id) == written
        assert written != filled

    def test_two_servers_serve_what_a_fresh_server_serves(
        self, tmp_path, fast_bundle
    ):
        path = tmp_path / "servers.db"
        credentials = {"userName": "u", "password": "pw"}

        def serve():
            server = LaminarServer(dao=SqliteDAO(path), models=fast_bundle)
            token = server.dispatch(
                Request("POST", "/auth/login", credentials)
            ).body["token"]
            return server, token

        def text_hits(server, token):
            reply = server.dispatch(
                Request(
                    "POST",
                    "/v1/registry/u/search",
                    {
                        "query": "prime table",
                        "queryType": "text",
                        "kind": "both",
                        "k": 20,
                    },
                    token=token,
                )
            )
            assert reply.status == 200, reply.body
            return reply.body["hits"]

        def fresh_hits():
            server, token = serve()
            try:
                return text_hits(server, token)
            finally:
                server.registry.dao.close()

        first = LaminarServer(dao=SqliteDAO(path), models=fast_bundle)
        first.dispatch(Request("POST", "/auth/register", credentials))
        token = first.dispatch(
            Request("POST", "/auth/login", credentials)
        ).body["token"]

        def send(method, route, body=None):
            reply = first.dispatch(
                Request(method, f"/v1/registry/u/{route}", body or {},
                        token=token)
            )
            assert reply.status in (200, 201), reply.body
            return reply

        def put(name, description):
            return send(
                "PUT", f"pes/{name}",
                {
                    "peCode": f"def {name}(x): return x",
                    "description": description,
                },
            )

        put("seedPrime", "a prime element")
        put("seedTable", "reads a table")
        second, token2 = serve()
        before = text_hits(second, token2)
        writes = [
            lambda: put("newPrime", "another prime table"),
            lambda: put("seedPrime", "no longer about anything"),
            lambda: send("DELETE", "pes/seedTable"),
            lambda: send(
                "POST", "pes:bulk",
                {
                    "items": [
                        {
                            "peName": f"bulk{i}",
                            "peCode": f"def bulk{i}(x): return x * {i}",
                            "description": f"prime table {i}",
                        }
                        for i in range(3)
                    ]
                },
            ),
        ]
        for write in writes:
            write()
            got = text_hits(second, token2)
            assert got == fresh_hits()
            assert got != before
            before = got
        second.registry.dao.close()
        first.registry.dao.close()


# ---------------------------------------------------------------------------
# the memory documents are the builders run over the stored rows
# ---------------------------------------------------------------------------
#: per record table: its id and the columns the text-document builder
#: reads, in its argument order
DOCUMENT_SOURCES = {
    "pes": ("pe_id", "pe_name, description"),
    "workflows": ("workflow_id", "entry_point, workflow_name, description"),
}

#: queries over the record names and descriptions the write matrix and
#: the attach model write
CACHE_QUERIES = ["element", "described again", "flow", "csv file", "p1", "x"]


def built_documents(conn, table):
    """``{id: (name_norm, desc_doc)}``: the builder run over every
    stored row of ``table``."""
    key, columns = DOCUMENT_SOURCES[table]
    return {
        row[0]: fts_document(*row[1:])
        for row in conn.execute(f"SELECT {key}, {columns} FROM main.{table}")
    }


def assert_text_cache_current(dao, queries=CACHE_QUERIES):
    """Rank once per user and query — a first ranking fills an unfilled
    index, a later one finds it current, since every write here went
    through ``dao`` — then check the cache: each memory document table
    holds exactly the builders run over the stored rows, its FTS5 index
    holds the same ids, and every ranking's match set is the reference
    scorer's over the user's records."""
    for user in dao.all_users():
        for query in queries:
            for rank, owned in (
                (dao.text_topk_pes, dao.pes_owned_by),
                (dao.text_topk_workflows, dao.workflows_owned_by),
            ):
                assert {i for i, _ in rank(user.user_id, query)} == {
                    hit.entity_id
                    for hit in text_search_records(query, owned(user.user_id))
                }, (user.user_name, query, rank.__name__)
    for table, docs, fts in (
        ("pes", "pe_docs", "pe_fts"), ("workflows", "wf_docs", "wf_fts"),
    ):
        stored = {
            row[0]: (row[1], row[2])
            for row in dao._conn.execute(f"SELECT * FROM text_index.{docs}")
        }
        assert stored == built_documents(dao._conn, table), table
        assert {
            row[0]
            for row in dao._conn.execute(f"SELECT rowid FROM text_index.{fts}")
        } == set(stored), table


# ---------------------------------------------------------------------------
# older files: v10 is refused untouched
# ---------------------------------------------------------------------------
#: the document tables schemas v10 to v14 kept on disk, as they made them
TEXT_TABLES = """
CREATE TABLE pe_text (
    pe_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE TABLE wf_text (
    workflow_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
"""


def add_text_tables(conn):
    """Give the file open on ``conn`` the document tables of schemas
    v10 to v14, each row the builder run over a stored record, through
    raw SQL (:data:`TEXT_TABLES`); the caller commits."""
    documents = {
        table: built_documents(conn, table) for table in DOCUMENT_SOURCES
    }
    conn.executescript(TEXT_TABLES)
    for table, side in (("pes", "pe_text"), ("workflows", "wf_text")):
        conn.executemany(
            f"INSERT INTO {side} VALUES (?, ?, ?)",
            [(key, *doc) for key, doc in documents[table].items()],
        )


#: what schema v10 kept on disk beside the document tables:
#: external-content FTS5 tables over them and the triggers that kept
#: those in step
V10_TEXT_INDEX = """
CREATE VIRTUAL TABLE pe_fts USING fts5(
    name_norm, desc_doc, content='pe_text', content_rowid='pe_id',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE VIRTUAL TABLE wf_fts USING fts5(
    name_norm, desc_doc, content='wf_text', content_rowid='workflow_id',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE TRIGGER pe_text_ai AFTER INSERT ON pe_text BEGIN
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER pe_text_ad AFTER DELETE ON pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
END;
CREATE TRIGGER pe_text_au AFTER UPDATE ON pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER wf_text_ai AFTER INSERT ON wf_text BEGIN
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER wf_text_ad AFTER DELETE ON wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
END;
CREATE TRIGGER wf_text_au AFTER UPDATE ON wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
INSERT INTO pe_fts(pe_fts) VALUES ('rebuild');
INSERT INTO wf_fts(wf_fts) VALUES ('rebuild');
PRAGMA user_version = 10;
"""

V10_TRIGGERS = {
    f"{side}_{event}"
    for side in ("pe_text", "wf_text")
    for event in ("ai", "ad", "au")
}


def as_v10(path):
    """Give a current file what schema v10 kept beside it, through raw
    SQL: the document tables (:func:`add_text_tables`),
    :data:`V10_TEXT_INDEX`, ``user_version`` 10."""
    conn = sqlite3.connect(path)
    add_text_tables(conn)
    conn.executescript(V10_TEXT_INDEX)
    conn.close()


def text_index_on_disk(conn):
    """Names of the file's FTS5 tables (shadow tables included) and
    text sync triggers."""
    return [
        name
        for name, sql in conn.execute("SELECT name, sql FROM sqlite_schema")
        if "_fts" in name
        or name in V10_TRIGGERS
        or "fts5" in (sql or "").lower()
    ]


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def open_traced(monkeypatch, path):
    """``(dao, statements)``: a DAO opened on ``path`` and the SQL its
    connection ran while opening, ``--`` lines (SQLite's own) left out."""
    statements: list[str] = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    try:
        dao = SqliteDAO(path)
    finally:
        monkeypatch.undo()
    dao._conn.set_trace_callback(None)
    return dao, [sql for sql in statements if not sql.startswith("--")]


def main_ddl(statements):
    """The statements that change the schema of ``main`` — the text
    index's tables are built in memory (the attached database) and are
    not among them."""
    return [
        sql
        for sql in statements
        if (upper := " ".join(sql.upper().split())).startswith(
            ("CREATE", "DROP", "ALTER")
        )
        and not upper.startswith(
            ("CREATE VIRTUAL TABLE TEXT_INDEX.", "CREATE TABLE TEXT_INDEX.")
        )
    ]


class TestOlderFiles:
    def test_a_new_file_keeps_no_text_index(self, tmp_path):
        dao = SqliteDAO(tmp_path / "new.db")
        assert text_index_on_disk(dao._conn) == []
        dao.close()

    def test_v10_file_is_refused_untouched(self, tmp_path):
        path = tmp_path / "v10.db"
        service, alice, _ = fill(SqliteDAO(path))
        service.dao.close()
        as_v10(path)
        before = digest(path)

        with pytest.raises(RegistryError, match="schema v10;") as err:
            SqliteDAO(path)
        assert "older checkout" in err.value.message
        assert digest(path) == before
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA user_version").fetchone() == (10,)
            # its text index is still on disk, still whole
            assert set(text_index_on_disk(conn)) >= V10_TRIGGERS | {
                "pe_fts", "wf_fts", "pe_fts_data", "wf_fts_docsize",
            }
            assert conn.execute(
                "SELECT COUNT(*) FROM pe_fts_docsize"
            ).fetchone() == (9,)
        finally:
            conn.close()

    @pytest.mark.parametrize(
        # an older checkout's v10 -> v11 step committed its drops one by
        # one: a crash can leave a v10 file with part of its text index.
        # Whatever it holds, this code leaves it alone
        "dropped",
        [
            ("pe_text_ai", "pe_text_ad", "pe_text_au"),
            tuple(sorted(V10_TRIGGERS)),
            tuple(sorted(V10_TRIGGERS)) + ("pe_fts",),
        ],
        ids=["some-triggers", "all-triggers", "triggers-and-one-table"],
    )
    def test_v10_step_cut_short_is_refused_untouched(self, tmp_path, dropped):
        path = tmp_path / "v10.db"
        service, _alice, _ = fill(SqliteDAO(path))
        service.dao.close()
        as_v10(path)
        conn = sqlite3.connect(path)
        for name in dropped:
            kind = "TRIGGER" if name in V10_TRIGGERS else "TABLE"
            conn.execute(f"DROP {kind} {name}")
        conn.commit()
        left = set(text_index_on_disk(conn))
        assert not set(dropped) & left
        conn.close()
        before = digest(path)

        with pytest.raises(RegistryError, match="schema v10;"):
            SqliteDAO(path)
        assert digest(path) == before
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA user_version").fetchone() == (10,)
            assert set(text_index_on_disk(conn)) == left
        finally:
            conn.close()

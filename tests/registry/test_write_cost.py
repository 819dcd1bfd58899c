"""What one registry write costs SQLite: commits and WAL frames.

A WAL commit logs whole pages, so *bytes per write = pages touched per
commit x bytes per page*.  Both factors are pinned here, over the real
write surface (``LaminarServer.dispatch``) on a file database: every
single-record ``PUT``/revise/``DELETE`` and a ``pes:bulk`` of 16 is
**one** commit when no fold is due — the journal rows ride in the
mutation's own transaction — and logs at most a pinned number of
frames.  The counts are exact for fixed inputs on one SQLite build;
the bounds leave one frame of slack for another build's b-tree splits.

New files get 1 KB pages; a file that already has pages keeps them
(page size is fixed once a WAL file exists) and passes the same cases.

A **benchmark-shaped PUT** — a record of the e2e corpus, whose code
vector is stored as a value table — is pinned at its exact frames and
at the ``pes`` overflow pages its row takes (``dbstat``).

Two more op classes are pinned the same way.  A **fold** writes a
shard's ids and nothing else — 8 bytes a row, whatever the vectors
weigh — in one commit.  An **attach** reads a registry in a number of
statements that depends on how many (user, record table) pairs it
holds, not on how many records.
"""

import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.service import RegistryService
from repro.search import KIND_DESC, VectorIndex
from repro.server import LaminarServer
from tests.registry.test_dao import make_pe
from tests.registry.test_journal_in_transaction import (
    live_shards,
    new_4k_file,
)

#: frames one op may log, per page size — measured 6/4/8/13 of 1 KB
#: and 6/4/6/6 of 4 KB since the counter, the id high-water marks and
#: the stamps share one b-tree and the owner tables lost their second
#: index (schema v13; v11 and v12: 9/5/10/16 and 9/5/8/9; with the FTS5
#: index on disk: 12/8/16/21 and 12/8/11/12; before the journal rode in
#: the mutation's transaction: 15/12/14/15 of 4 KB, in 3/2/3/3 commits)
FRAME_BOUNDS = {
    1024: {"put": 7, "revise": 5, "delete": 9, "bulk": 14},
    4096: {"put": 7, "revise": 5, "delete": 7, "bulk": 7},
}


def wal_frames(path):
    """``(frames logged so far, page size)`` from the ``-wal`` file:
    a 32-byte header (page size big-endian at offset 8), then frames of
    a 24-byte header (page number big-endian at offset 0) plus one page
    each."""
    raw = Path(f"{path}-wal").read_bytes()
    page = struct.unpack(">I", raw[8:12])[0]
    return (len(raw) - 32) // (24 + page), page


def wal_pages(path, first):
    """The page numbers of the ``-wal`` file's frames from ``first`` on."""
    raw = Path(f"{path}-wal").read_bytes()
    _count, page = wal_frames(path)
    return {
        struct.unpack(">I", raw[at : at + 4])[0]
        for at in range(32 + first * (24 + page), len(raw), 24 + page)
    }


@pytest.fixture(params=[1024, 4096])
def registry(request, tmp_path, fast_bundle):
    """A served file registry with a few records in it; the 4 KB one is
    a file that had pages before this code first opened it."""
    path = tmp_path / "registry.db"
    if request.param == 4096:
        new_4k_file(path)
    dao = SqliteDAO(path)
    # the WAL only grows: frames logged = growth of the file
    dao._conn.execute("PRAGMA wal_autocheckpoint=0")
    server = LaminarServer(dao=dao, models=fast_bundle)
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "u", "password": "pw"})
    )
    token = server.dispatch(
        Request("POST", "/auth/login", {"userName": "u", "password": "pw"})
    ).body["token"]

    def send(method, path_, body=None):
        return server.dispatch(Request(method, path_, body or {}, token=token))

    for i in range(8):
        assert put(send, f"seed{i}", f"seed element {i} adds one").status == 201
    yield send, dao, path, request.param
    dao.close()


def put(send, name, description):
    return send(
        "PUT",
        f"/v1/registry/u/pes/{name}",
        {
            "peCode": f"def {name}(x):\n    return x + 1\n",
            "description": description,
        },
    )


def traced(dao, path, op):
    """``(result, statements, frames)`` of one call."""
    statements = []
    dao._conn.set_trace_callback(statements.append)
    before, _ = wal_frames(path)
    try:
        result = op()
    finally:
        dao._conn.set_trace_callback(None)
    after, _ = wal_frames(path)
    return result, statements, after - before


def commits(statements):
    return sum(
        1 for sql in statements if sql.lstrip().upper().startswith("COMMIT")
    )


def cost(dao, path, op):
    """``(status, commits, frames)`` of one dispatched op."""
    response, statements, frames = traced(dao, path, op)
    return response.status, commits(statements), frames


def test_each_write_is_one_small_commit(registry):
    send, dao, path, page_size = registry
    assert dao._conn.execute("PRAGMA page_size").fetchone()[0] == page_size
    assert wal_frames(path)[1] == page_size
    bounds = FRAME_BOUNDS[page_size]
    bulk = {
        "items": [
            {
                "peName": f"bulk{i}",
                "peCode": f"def bulk{i}(x):\n    return x * {i}\n",
                "description": f"bulk element {i} scales its input",
            }
            for i in range(16)
        ]
    }
    ops = [
        ("put", 201, lambda: put(send, "fresh", "a new element that adds")),
        ("revise", 200, lambda: put(send, "fresh", "described once again")),
        ("delete", 200, lambda: send("DELETE", "/v1/registry/u/pes/fresh")),
        ("bulk", 201, lambda: send("POST", "/v1/registry/u/pes:bulk", bulk)),
    ]
    for name, expected, op in ops:
        status, committed, frames = cost(dao, path, op)
        assert status == expected, name
        assert committed == 1, f"{name}: {committed} commits"
        assert 0 < frames <= bounds[name], f"{name}: {frames} frames"
    # no fold was due, so none of that wrote a base slab
    assert dao.index_shards_meta()["shards"] == 0


def test_a_put_writes_no_text_index_page(registry):
    """The text index lives in memory: the pages a PUT logs belong to
    the record, its owners, its text document and the counter, stamps
    and journal rows — none to an FTS5 table (``dbstat`` maps each
    logged page to its b-tree)."""
    send, dao, path, _page_size = registry
    first, _ = wal_frames(path)
    assert put(send, "fresh", "a new element that adds").status == 201
    pages = wal_pages(path, first)
    owner = dict(
        dao._conn.execute("SELECT pageno, name FROM dbstat").fetchall()
    )
    written = {owner.get(page, "(free)") for page in pages}
    assert "pe_text" in written and "pes" in written, written
    assert not any("_fts" in name for name in written), written
    assert not any("_fts" in name for name in owner.values())


#: every b-tree a PUT or a bulk of new PEs may log a page of (page 1,
#: ``sqlite_schema``, when the file grows)
PUT_BTREES = {
    "pes", "idx_pes_name", "pe_owners", "pe_text", "shard_stamps",
    "index_deltas", "sqlite_schema",
}


def test_a_write_logs_one_page_of_counters(registry):
    """The mutation counter, the id high-water mark and the stamps a
    write moves are rows of ``shard_stamps`` (schema v13): a PUT and a
    bulk each log exactly one page of it, and none of ``registry_meta``,
    ``sqlite_sequence`` or an owner index, which v12 logged each time."""
    send, dao, path, _page_size = registry
    bulk = {
        "items": [
            {"peName": f"bulk{i}", "peCode": f"def bulk{i}(): pass"}
            for i in range(16)
        ]
    }
    for op in (
        lambda: put(send, "fresh", "a new element that adds"),
        lambda: send("POST", "/v1/registry/u/pes:bulk", bulk),
    ):
        first, _ = wal_frames(path)
        assert op().status == 201
        owner = dict(
            dao._conn.execute("SELECT pageno, name FROM dbstat").fetchall()
        )
        written = Counter(
            owner.get(page, "(free)") for page in wal_pages(path, first)
        )
        assert written["shard_stamps"] == 1, written
        assert set(written) <= PUT_BTREES, written
        assert not {
            "registry_meta", "sqlite_sequence", "idx_pe_owners_user",
        } & set(written)
    assert dao._conn.execute(
        "SELECT name FROM sqlite_schema WHERE type = 'index'"
        " AND tbl_name IN ('pe_owners', 'workflow_owners')"
    ).fetchall() == []


#: per record kind: (its name column as an update's ``SET`` names it,
#: text side table, owner table, the other tables an update may touch,
#: the source field a revision changes)
UPDATE_TABLES = {
    "pe": ("pe_name=", "pe_text", "pe_owners", (), "pe_source"),
    "workflow": (
        "entry_point=", "wf_text", "workflow_owners", ("workflow_pes",),
        "workflow_source",
    ),
}


@pytest.mark.parametrize("kind", sorted(UPDATE_TABLES))
def test_an_update_writes_only_what_changed(registry, kind):
    """A revision that keeps name and description leaves the FTS
    document alone; one that keeps the owners leaves the join rows
    alone; one that keeps a workflow's PE list leaves its link rows
    alone — the statement trace shows none of them touched."""
    send, dao, path, _page_size = registry
    name, text, owners, links, source = UPDATE_TABLES[kind]
    if kind == "pe":
        record = dao.find_pe_by_name("seed3")[0]
    else:
        assert send(
            "PUT",
            "/v1/registry/u/workflows/flow3",
            {
                "workflowCode": "graph = g()",
                "description": "a flow that adds",
                "peIds": [1, 2],
            },
        ).status == 201
        record = dao.find_workflow_by_entry_point("flow3")[0]
    record_id = getattr(record, f"{kind}_id")
    update = getattr(dao, f"update_{kind}")
    statements = []

    def traced_update():
        statements.clear()
        dao._conn.set_trace_callback(statements.append)
        update(record)
        dao._conn.set_trace_callback(None)
        return " ".join(statements)

    setattr(record, source, "# annotated\n" + getattr(record, source))
    touched = traced_update()
    assert not [t for t in (text, owners, *links) if t in touched], touched
    assert name not in touched  # the name index entry left alone
    stored = getattr(dao, f"get_{kind}")(record_id)
    assert getattr(stored, source).startswith("# annotated")

    # an ownership grant re-syncs the join rows, nothing else
    record.owners.add(99)
    touched = traced_update()
    assert owners in touched
    assert not [t for t in (text, *links) if t in touched], touched
    assert getattr(dao, f"{kind}_ids_owned_by")(99) == [record_id]

    # a new description does re-index the text
    record.description = "now it subtracts"
    assert text in traced_update()
    ranked = getattr(dao, f"text_topk_{kind}s")(99, "subtracts")
    assert [ranked_id for ranked_id, _ in ranked] == [record_id]


#: a record of the e2e corpus (``benchmarks/e2e/corpus.py`` generates
#: it): 356 bytes of code, sent as its code and its source, described
#: by its docstring.  Its unfitted code embedding has 199 non-zeros of
#: 2 048 taking 27 distinct values, 527 bytes as a value table (1 211 in
#: the sparse layout)
BENCH_NAME = "pofin_bogor_000330"
BENCH_DOC = "Glefin lubo bogor bolum nibo degor badak kaidak bidak brabo."
BENCH_CODE = f"""def pofin_bogor_000330(items, limit=944):
    \"\"\"{BENCH_DOC}\"\"\"
    faifin = 330
    bogor = faifin + 72
    mubo = faifin + 46
    bailum = faifin + 88
    lilum = faifin + 62
    brugor = faifin + 92
    for braifin in items:
        if braifin > limit:
            faifin += braifin * 5
    return faifin"""
#: (WAL frames, new ``pes`` overflow pages) of that record's PUT, per
#: page size.  Schema v12 logged (11, 1) and (9, 0): three pages more,
#: those of ``registry_meta``, ``sqlite_sequence`` and the owner index.
#: With its code vector in the sparse layout (schema v11) the same PUT
#: logged (12, 2) on 1 KB pages — the 2 104-byte row needed two
#: overflow pages, the 1 420-byte one needs one — and (9, 0) on 4 KB
#: pages, where either row fits its leaf
BENCH_PUT_COST = {1024: (8, 1), 4096: (6, 0)}


def pes_overflow_pages(dao):
    return dao._conn.execute(
        "SELECT COUNT(*) FROM dbstat WHERE name = 'pes'"
        " AND pagetype = 'overflow'"
    ).fetchone()[0]


def test_a_benchmark_shaped_put(registry):
    send, dao, path, page_size = registry
    first, _ = wal_frames(path)
    overflow = pes_overflow_pages(dao)
    response = send(
        "PUT",
        f"/v1/registry/u/pes/{BENCH_NAME}",
        {"peCode": BENCH_CODE, "peSource": BENCH_CODE, "description": BENCH_DOC},
    )
    assert response.status == 201
    cost = (wal_frames(path)[0] - first, pes_overflow_pages(dao) - overflow)

    record = dao.find_pe_by_name(BENCH_NAME)[0]
    assert len(BENCH_CODE) == 356
    bits = record.code_embedding.view(np.uint32)
    assert np.count_nonzero(bits) == 199
    assert len(np.unique(bits[bits != 0])) == 27
    (blob,) = dao._conn.execute(
        "SELECT code_embedding FROM pes WHERE pe_id = ?", (record.pe_id,)
    ).fetchone()
    assert (len(blob), blob[-1]) == (527, 2)
    assert cost == BENCH_PUT_COST[page_size]


#: the e2e corpus' code-embedding shape: ~1 KB a vector at rest
DIM, NNZ = 2048, 160
FOLD_ROWS = 1200
#: frames one fold of a FOLD_ROWS-row shard may log on 1 KB pages —
#: measured 22: the new slab's 8 bytes a row on overflow pages (10),
#: the 600-row slab it replaces freed (5), the folded journal rows
#: deleted, stamps and root pages.  The parent commit, whose slab also
#: held the vectors, logged 1 156 for the same fold
FOLD_FRAME_BOUND = 23


def sparse_unit(rng, dim=DIM, nnz=NNZ):
    vec = np.zeros(dim, dtype=np.float32)
    hot = rng.choice(dim, size=nnz, replace=False)
    vec[hot] = rng.standard_normal(nnz).astype(np.float32)
    return vec / np.linalg.norm(vec)


def bulk_load(service, user, rng, start, count, code=False):
    """``count`` records in batches of 64 that leave folding to the
    caller, the way an ingest job loads them."""
    for first in range(start, start + count, 64):
        service.register_pes_bulk(
            user,
            [
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=sparse_unit(rng),
                    code_embedding=sparse_unit(rng) if code else None,
                )
                for i in range(first, min(first + 64, start + count))
            ],
            persist=False,
        )


def test_a_fold_is_one_commit_of_ids(tmp_path):
    rng = np.random.default_rng(91)
    path = tmp_path / "registry.db"
    dao = SqliteDAO(path)
    dao._conn.execute("PRAGMA wal_autocheckpoint=0")
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    service.attach_index(VectorIndex())
    key = (alice.user_id, KIND_DESC)
    # a first fold, so the measured one also replaces an old slab
    bulk_load(service, alice, rng, 0, FOLD_ROWS // 2)
    assert service.persist_shards()
    bulk_load(service, alice, rng, FOLD_ROWS // 2, FOLD_ROWS // 2)
    before = dao.shard_chain_meta()[key]
    assert (before["rows"], before["chainRows"]) == (600, 600)

    saved, statements, frames = traced(dao, path, service.persist_shards)
    assert saved
    after = dao.shard_chain_meta()[key]
    assert (after["rows"], after["chainRows"]) == (FOLD_ROWS, 0)
    assert commits(statements) == 1
    assert 0 < frames <= FOLD_FRAME_BOUND, frames
    # ids and nothing but ids
    assert [
        tuple(row)
        for row in dao._conn.execute("SELECT LENGTH(ids) FROM index_shards")
    ] == [(8 * FOLD_ROWS,)]
    assert {
        row[1] for row in dao._conn.execute("PRAGMA table_info(index_shards)")
    } == {"user_id", "kind", "mutation_counter", "rows", "ids"}
    dao.close()


def attach_statements(path):
    dao = SqliteDAO(path)
    statements = []
    dao._conn.set_trace_callback(statements.append)
    index = VectorIndex()
    mode = RegistryService(dao).attach_index(index, persist=False)
    dao._conn.set_trace_callback(None)
    dao.close()
    return mode, statements, index


def test_an_attach_reads_in_statements_per_shard_not_per_record(tmp_path):
    rng = np.random.default_rng(92)
    path = tmp_path / "registry.db"
    service = RegistryService(SqliteDAO(path))
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    service.attach_index(VectorIndex())
    bulk_load(service, alice, rng, 0, 40, code=True)
    bulk_load(service, bob, rng, 40, 8)
    service.dao.close()
    mode, small, _index = attach_statements(path)
    assert mode == "fresh"

    service = RegistryService(SqliteDAO(path))
    index = VectorIndex()
    service.attach_index(index)
    bulk_load(service, service.get_user("alice"), rng, 48, 1300, code=True)
    assert service.persist_shards()
    service.dao.close()
    mode, large, warm = attach_statements(path)
    assert mode == "fresh"
    assert warm.size(alice.user_id, KIND_DESC) == 1340
    assert live_shards(warm) == live_shards(index)

    # one read transaction: counter, stamps, slabs, journal, one scan
    # per (user, record table) — alice's two kinds share hers — and the
    # two chain-statistics queries
    assert len(large) == len(small) == 10, large
    assert large[0] == "BEGIN" and large[-1] == "COMMIT"
    scans = [sql for sql in large if "JOIN pes" in sql]
    assert len(scans) == 2
    assert not any(" IN (" in sql for sql in large)

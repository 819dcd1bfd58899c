"""What one registry write costs SQLite: commits and WAL frames.

A WAL commit logs whole pages, so *bytes per write = pages touched per
commit x bytes per page*.  Both factors are pinned here, over the real
write surface (``LaminarServer.dispatch``) on a file database: every
single-record ``PUT``/revise/``DELETE`` and a ``pes:bulk`` of 16 is
**one** commit and logs at most a pinned number of frames.  The
counts are exact for fixed inputs on one SQLite build; the bounds
leave one frame of slack for another build's b-tree splits.  So is
every other registry write — a keyed ``PUT``, bulk and ``DELETE`` (the
receipt commits with the write), an upsert that replaces a name's
record, the Table-3 add and remove, and an ingest batch whose items
join existing records — each pinned at one commit and its exact
frames; a ``PUT`` reads its name once, and a bulk or an ingest batch
its names in one statement.

New files get 512-byte pages; a file that already has pages keeps them
(page size is fixed once a WAL file exists) and passes the same cases,
run here on 1 KB pages (what every earlier v14 to v16 file has) and 4 KB
ones.

A **benchmark-shaped PUT** — a record of the e2e corpus, whose code
vector is stored bit-packed and whose code and source are stored
deflated — is pinned at its exact frames and at the ``pes`` overflow
pages its row takes (``dbstat``: one on 512-byte pages, none on 1 KB or
4 KB ones), and so is its description-only revise.

One more op class is pinned the same way: an **attach** reads a
registry in a number of statements that depends on how many (user,
record table) pairs it holds, not on how many records.
"""

import sqlite3
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
from tests.helpers import shard_bytes
from tests.registry.test_dao import make_pe

#: the page size :class:`SqliteDAO` gives a file without pages
NEW_FILE_PAGE = 512

#: frames one op may log, per page size — measured 4/2/4/11 of 512
#: bytes (the bulk's 16 rows fill more, smaller ``pes`` and index
#: leaves: two frames more than on 1 KB pages, each half the bytes),
#: 4/2/6/9 of 1 KB and 4/2/4/4 of 4 KB since a write logs no journal
#: page (schema v16;
#: v15, whose ``index_deltas`` took a page of every write that changed
#: a shard: 5/3/7/10 and 5/3/5/5; v13 and v14, which also logged a page
#: of ``pe_text`` each time: 6/4/8/13 and 6/4/6/6; v11 and v12, before
#: the counter, the id high-water marks and the stamps shared one
#: b-tree and the owner tables lost their second index: 9/5/10/16 and
#: 9/5/8/9; with the FTS5 index on disk: 12/8/16/21 and 12/8/11/12;
#: before the journal rode in the mutation's transaction: 15/12/14/15 of
#: 4 KB, in 3/2/3/3 commits)
FRAME_BOUNDS = {
    512: {"put": 5, "revise": 3, "delete": 5, "bulk": 12},
    1024: {"put": 5, "revise": 3, "delete": 7, "bulk": 10},
    4096: {"put": 5, "revise": 3, "delete": 5, "bulk": 5},
}


def new_file(path, page_size):
    """A file that had ``page_size`` pages before this code first
    opened it."""
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA page_size={page_size}")
    conn.execute("PRAGMA journal_mode=WAL")  # writes page 1
    conn.close()


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


@pytest.fixture(params=[512, 1024, 4096])
def registry(request, tmp_path, fast_bundle):
    """A served file registry with a few records in it: a new file (512-
    byte pages), and files that had 1 KB or 4 KB pages before this code
    first opened them — every earlier v14 to v16 file has 1 KB pages."""
    path = tmp_path / "registry.db"
    if request.param != NEW_FILE_PAGE:
        new_file(path, request.param)
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


def test_a_put_writes_no_text_index_page(registry):
    """The text index and its documents live in memory: the pages a PUT
    logs belong to the record, its owners and the counter and stamps —
    none to a text table, FTS5 or document (``dbstat``
    maps each logged page to its b-tree), and the file holds none."""
    send, dao, path, _page_size = registry
    first, _ = wal_frames(path)
    assert put(send, "fresh", "a new element that adds").status == 201
    pages = wal_pages(path, first)
    owner = dict(
        dao._conn.execute("SELECT pageno, name FROM dbstat").fetchall()
    )
    written = {owner.get(page, "(free)") for page in pages}
    assert "pes" in written, written
    assert written <= PUT_BTREES, written
    assert not any("_fts" in name or "_text" in name or "_docs" in name
                   for name in owner.values()), set(owner.values())
    # and the PE is indexed all the same
    assert dao.text_topk_pes(dao.get_user_by_name("u").user_id, "fresh")


#: WAL frames, per page size, of the writes
#: :func:`test_every_write_is_one_commit` runs in turn, each one commit:
#: a keyed write's receipt and an upsert's release of the old record
#: ride in the write's transaction.  On 512-byte pages the keyed bulk's
#: 16 rows and its receipt fill more leaves (``pes`` 9 and
#: ``write_receipts`` 9: 22 frames, 11 KB, against 5, 5 and 14 of 1 KB),
#: and the keyed DELETE's receipt splits a full leaf, growing the file
#: (page 1): 7 frames against 5.  Where a row splits or merges a leaf
#: depends on how full the leaves are, so the bit-packed vectors of
#: schema v17 (~650-byte rows here instead of ~800) moved these: the
#: keyed bulk's 16 rows take one ``pes`` leaf fewer (20 and 13 frames,
#: 22 and 14 at v16); on 512-byte and 4 KB pages the upsert's new row
#: no longer splits a leaf (5 and 4, 7 and 7 at v16) nor does the 4 KB
#: remove merge one (4, 7 at v16); on 1 KB pages the upsert now splits
#: the fuller leaf (7, 5 at v16: page 1, a ``pes`` interior page and
#: the new leaf) and the remove, which empties most of that new leaf,
#: merges it with its two siblings (7, 4 at v16).  Summed over the six
#: writes: 47, 43 and 29 frames, 51, 39 and 35 at v16
ONE_COMMIT_FRAMES = {
    512: {"keyed-put": 7, "keyed-bulk": 20, "keyed-delete": 7,
          "upsert": 5, "add": 4, "remove": 4},
    1024: {"keyed-put": 7, "keyed-bulk": 13, "keyed-delete": 5,
           "upsert": 7, "add": 4, "remove": 7},
    4096: {"keyed-put": 5, "keyed-bulk": 7, "keyed-delete": 5,
           "upsert": 4, "add": 4, "remove": 4},
}


def test_every_write_is_one_commit(registry):
    send, dao, path, page_size = registry
    code = "def keyed(x):\n    return x + 1\n"
    bulk = {
        "idempotencyKey": "bulk-key",
        "items": [
            {
                "peName": f"kb{i}",
                "peCode": f"def kb{i}(x):\n    return x * {i}\n",
                "description": f"keyed bulk element {i} scales its input",
            }
            for i in range(16)
        ],
    }
    legacy = {"peName": "legacy", "peCode": "def legacy(): pass",
              "description": "a legacy element"}
    ops = [
        ("keyed-put", 201, lambda: send(
            "PUT", "/v1/registry/u/pes/keyed",
            {"peCode": code, "description": "adds", "idempotencyKey": "k1"},
        )),
        ("keyed-bulk", 201,
         lambda: send("POST", "/v1/registry/u/pes:bulk", bulk)),
        ("keyed-delete", 200, lambda: send(
            "DELETE", "/v1/registry/u/pes/keyed", {"idempotencyKey": "k2"}
        )),
        # new code under seed3's name: a new record takes the name, and
        # the old one goes
        ("upsert", 201, lambda: send(
            "PUT", "/v1/registry/u/pes/seed3",
            {"peCode": "def seed3(x):\n    return x + 2\n"},
        )),
        ("add", 201, lambda: send("POST", "/registry/u/pe/add", legacy)),
        ("remove", 200,
         lambda: send("DELETE", "/registry/u/pe/remove/name/legacy")),
    ]
    measured = {}
    for name, expected, op in ops:
        status, committed, measured[name] = cost(dao, path, op)
        assert status == expected, name
        assert committed == 1, f"{name}: {committed} commits"
    assert measured == ONE_COMMIT_FRAMES[page_size]
    assert len(dao.find_pe_by_name("seed3")) == 1
    # a replay reads its receipt and writes nothing
    status, committed, frames = cost(dao, path, lambda: send(
        "PUT", "/v1/registry/u/pes/keyed",
        {"peCode": code, "description": "adds", "idempotencyKey": "k1"},
    ))
    assert (status, committed, frames) == (201, 0, 0)


#: WAL frames of that batch, per page size: its four grants and its
#: insert in one commit (on 512-byte pages the eight rows and their
#: owner and name entries span more leaves: 9 frames, 4.5 KB, against
#: 6 of 1 KB).  On 1 KB pages the batch's new rows now split a ``pes``
#: leaf the fixture's smaller rows filled (5 frames at schema v16)
INGEST_BATCH_FRAMES = {512: 9, 1024: 6, 4096: 4}


def test_an_ingest_batch_is_one_commit(registry):
    """A batch whose items join records another user registered (the
    §3.1 grant, an update each) and add new ones commits once."""
    send, dao, path, page_size = registry
    send("POST", "/auth/register", {"userName": "v", "password": "pw"})
    user = dao.get_user_by_name("v")
    batch = [
        make_pe(f"seed{i}", code=f"def seed{i}(x):\n    return x + 1\n")
        for i in range(4)
    ] + [make_pe(f"new{i}", code=f"def new{i}(): pass") for i in range(4)]
    (stored, created), statements, frames = traced(
        dao, path, lambda: RegistryService(dao).register_pes_bulk(user, batch)
    )
    assert created == [False] * 4 + [True] * 4
    assert commits(statements) == 1
    assert name_reads(statements) == 1, statements
    assert frames == INGEST_BATCH_FRAMES[page_size]
    assert dao.pe_ids_owned_by(user.user_id) == [r.pe_id for r in stored]


#: the top-level statements of a new PE's ``PUT`` and of its revise: the
#: user, ``BEGIN IMMEDIATE``, one read of the name (the caller's
#: binding and the §3.1 dedup candidates both), then the write and the
#: mutation counter the reply carries, and the ``COMMIT``.  The put
#: raises the id high-water mark; the revise reads the committed row and
#: swaps its text documents
PUT_STATEMENTS = {"put": 11, "revise": 12}


def name_reads(statements):
    return sum(
        sql.startswith("SELECT * FROM pes WHERE pe_name") for sql in statements
    )


def test_a_put_reads_its_name_once(registry):
    send, dao, path, _page_size = registry
    for name, description in (("put", "adds one"), ("revise", "adds two")):
        response, statements, _frames = traced(
            dao, path, lambda: put(send, "once", description)
        )
        assert response.status == (201 if name == "put" else 200)
        top = [sql for sql in statements if not sql.startswith("--")]
        assert len(top) == PUT_STATEMENTS[name], (name, top)
        assert name_reads(top) == 1, top


def test_a_bulk_reads_its_names_once(registry):
    """The §3.1 dedup candidates of every item of a bulk, two of which
    join records already there, come from one statement."""
    send, dao, path, _page_size = registry
    items = [
        {"peName": f"seed{i}", "peCode": f"def seed{i}(x):\n    return x + 1\n"}
        for i in range(2)
    ] + [{"peName": f"bulk{i}", "peCode": f"def bulk{i}(): pass"}
         for i in range(14)]
    response, statements, _frames = traced(dao, path, lambda: send(
        "POST", "/v1/registry/u/pes:bulk", {"items": items}
    ))
    assert response.status == 201
    assert [item["created"] for item in response.body["items"]] == (
        [False] * 2 + [True] * 14
    )
    assert name_reads(statements) == 1, statements


#: "A bulk amortizes the per-record transaction and index add" — the
#: claim ``benchmarks/test_bulk_register.py`` and
#: ``benchmarks/test_ingest.py`` once gated as wall-clock ratios (2x and
#: 3x) — as exact counts.  A PUT pays a whole write per record: one
#: commit, :data:`PUT_STATEMENTS` ``["put"]`` (11) top-level statements —
#: the user lookup, ``BEGIN IMMEDIATE``, the name read, two counter
#: updates, the counter read and ``COMMIT``, seven, beside its four row
#: writes (the record, its owner row, its text document and its FTS
#: entry) — and one index ``add`` per shard kind.  A bulk of N pays the
#: seven once: one commit, ``7 + 4 N`` statements and one ``add_many``
#: per shard kind.  An ingest batch of b records pays five of them
#: (no user lookup, no counter read): one commit, ``5 + 4 b``
#: statements; the job adds four around its batches — the request's
#: and the job's user lookups, its checkpoint and its closing counter
#: read.  :func:`write_counts` counts all of these
BULK_STATEMENTS = (7, 4)  # (per bulk, per record)
INGEST_STATEMENTS = (4, 5, 4)  # (per job, per batch, per record)
AMORTIZED = 16


def write_counts(dao, app, op):
    """``(commits, top-level statements, {index method: calls})`` of
    ``op``, every thread's; the index calls as the service queues them
    on its writes' commits."""
    calls = Counter()
    queue = app.registry._on_commit

    def counted(method, *args):
        calls[method] += 1
        queue(method, *args)

    app.registry._on_commit = counted
    statements = []
    dao._conn.set_trace_callback(statements.append)
    try:
        op()
    finally:
        dao._conn.set_trace_callback(None)
        del app.registry._on_commit
    top = [sql for sql in statements if not sql.startswith("--")]
    return commits(top), len(top), dict(calls)


@pytest.fixture()
def writer(tmp_path, fast_bundle):
    """A served file registry and ``send`` for its logged-in user."""
    dao = SqliteDAO(tmp_path / "registry.db")
    app = LaminarServer(dao=dao, models=fast_bundle)
    credentials = {"userName": "u", "password": "pw"}
    app.dispatch(Request("POST", "/auth/register", credentials))
    token = app.dispatch(
        Request("POST", "/auth/login", credentials)
    ).body["token"]

    def send(method, path_, body=None):
        return app.dispatch(Request(method, path_, body or {}, token=token))

    yield app, dao, send
    app.jobs.shutdown(wait=True)
    dao.close()


def pe_item(name, i):
    return {"peName": name, "peCode": f"def {name}(x):\n    return x + {i}\n",
            "description": f"element {i} adds {i}"}


def test_a_bulk_amortizes_the_per_record_transaction_and_index_add(writer):
    app, dao, send = writer

    def puts():
        for i in range(AMORTIZED):
            item = pe_item(f"put{i}", i)
            name = item.pop("peName")
            assert send("PUT", f"/v1/registry/u/pes/{name}", item).status == 201

    def bulk():
        items = [pe_item(f"bulk{i}", i) for i in range(AMORTIZED)]
        reply = send("POST", "/v1/registry/u/pes:bulk", {"items": items})
        assert reply.status == 201

    assert write_counts(dao, app, puts) == (
        AMORTIZED, AMORTIZED * PUT_STATEMENTS["put"], {"add": 2 * AMORTIZED}
    )
    fixed, per_record = BULK_STATEMENTS
    assert write_counts(dao, app, bulk) == (
        1, fixed + per_record * AMORTIZED, {"add_many": 2}
    )


def test_an_ingest_amortizes_the_per_record_transaction(writer, tmp_path):
    """An ingest job of ``AMORTIZED`` chunks in batches of 6: a commit
    and an ``add_many`` per shard kind for each of its three batches."""
    app, dao, send = writer
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "mod.py").write_text("\n".join(
        f'def f{i}(x):\n    """Adds {i}."""\n    return x + {i}\n'
        for i in range(AMORTIZED)
    ))

    def ingest():
        reply = send("POST", "/v1/registry/u/ingest",
                     {"path": str(tree), "batchSize": 6})
        assert reply.status == 202
        assert app.jobs.join(timeout=60)
        job = app.jobs.get(reply.body["jobId"])
        assert job["progress"]["chunksInserted"] == AMORTIZED, job

    per_job, per_batch, per_record = INGEST_STATEMENTS
    assert write_counts(dao, app, ingest) == (
        3, per_job + 3 * per_batch + per_record * AMORTIZED, {"add_many": 6}
    )


#: every b-tree a PUT or a bulk of new PEs may log a page of (page 1,
#: ``sqlite_schema``, when the file grows) — no text table since v15,
#: no journal since v16
PUT_BTREES = {
    "pes", "idx_pes_name", "pe_owners", "shard_stamps", "sqlite_schema",
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
#: memory document table, owner table, the other tables an update may
#: touch, the source field a revision changes)
UPDATE_TABLES = {
    "pe": ("pe_name=", "pe_docs", "pe_owners", (), "pe_source"),
    "workflow": (
        "entry_point=", "wf_docs", "workflow_owners", ("workflow_pes",),
        "workflow_source",
    ),
}


@pytest.mark.parametrize("kind", sorted(UPDATE_TABLES))
def test_an_update_writes_only_what_changed(registry, kind):
    """A revision that keeps name and description leaves the FTS
    documents alone; one that keeps the owners leaves the join rows
    alone; one that keeps a workflow's PE list leaves its link rows
    alone — the statement trace shows none of them touched.  One that
    changes the description re-syncs the memory documents and logs a
    page of the record and one of the counter, none of text."""
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

    # a new description does re-index the text, in memory
    record.description = "now it subtracts"
    first, _ = wal_frames(path)
    assert text in traced_update()
    owner = dict(
        dao._conn.execute("SELECT pageno, name FROM dbstat").fetchall()
    )
    assert {owner[page] for page in wal_pages(path, first)} == {
        f"{kind}s", "shard_stamps",
    }
    ranked = getattr(dao, f"text_topk_{kind}s")(99, "subtracts")
    assert [ranked_id for ranked_id, _ in ranked] == [record_id]


#: a record of the e2e corpus (``benchmarks/e2e/corpus.py`` generates
#: it): 356 bytes of code, sent as its code and its source, described
#: by its docstring.  Its unfitted code embedding has 199 non-zeros of
#: 2 048 taking 27 distinct values of 18 magnitudes, 393 bytes bit-packed
#: (527 as schema v16's value table, 1 211 in the sparse layout)
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
#: page size.  On 512-byte pages the ~730-byte row (~860 at schema v16)
#: is a leaf and one overflow page, with ~220 of its bytes on the leaf
#: (~350 at v16): 7 frames (page 1 as the file grows, a ``pes`` interior
#: page, the leaf, the overflow page, and one page each of
#: ``pe_owners``, ``idx_pes_name`` and ``shard_stamps``), 3.5 KB against
#: 4 KB on 1 KB pages.  On 1 KB pages the smaller row no longer splits
#: a ``pes`` leaf of the fixture's: 4 frames (6 at schema v16).  Schema
#: v16 logs no ``index_deltas`` page: v15 logged
#: (7, 0) and (5, 0).  Schema v15 logs no ``pe_text`` page: v14 logged
#: (8, 0) and (6, 0).  Its code and source are stored deflated (schema v14), so
#: on 1 KB pages the row fits its leaf: schema v13 logged (8, 1).  The
#: frame count stayed, since the row now fills most of a leaf: the two
#: ``pes`` pages logged are b-tree pages where v13's were a leaf and an
#: overflow page.  Schema v12 logged (11, 1) and (9, 0): three pages more,
#: those of ``registry_meta``, ``sqlite_sequence`` and the owner index.
#: With its code vector in the sparse layout (schema v11) the same PUT
#: logged (12, 2) on 1 KB pages — the 2 104-byte row needed two
#: overflow pages, the 1 420-byte one needs one — and (9, 0) on 4 KB
#: pages, where either row fits its leaf
BENCH_PUT_COST = {512: (7, 1), 1024: (4, 0), 4096: (4, 0)}
#: WAL frames of that record's description-only revise, per page size:
#: the row is rewritten in its leaf.  On 512-byte pages that frees its
#: overflow page and allocates a new one, so the freed page, the new one
#: and page 1 (freelist and file size) are logged beside the leaf and
#: ``shard_stamps``: 5 frames, 2.5 KB against 2 KB on 1 KB pages.  No
#: ``index_deltas`` page (its
#: description vector changed, so v15 journaled it: 3 on either page
#: size) and no ``pe_text`` page (schema v14 logged 4) are logged.
#: Schema v13 logged 7 on 1 KB pages, freeing the row's overflow page
#: and allocating a new one (the freelist and header pages with it), and
#: 4 on 4 KB pages
BENCH_REVISE_FRAMES = {512: 5, 1024: 2, 4096: 2}


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
    assert len(np.unique(bits[bits != 0] & 0x7FFFFFFF)) == 18
    (blob,) = dao._conn.execute(
        "SELECT code_embedding FROM pes WHERE pe_id = ?", (record.pe_id,)
    ).fetchone()
    assert (len(blob), blob[-1]) == (393, 3)
    # its code deflated, its source (the same text) a reference to it
    assert tuple(dao._conn.execute(
        "SELECT LENGTH(pe_code), typeof(pe_code), LENGTH(pe_source),"
        " typeof(pe_source) FROM pes WHERE pe_id = ?", (record.pe_id,)
    ).fetchone()) == (186, "blob", 18, "blob")
    assert cost == BENCH_PUT_COST[page_size]

    # a description-only revise rewrites the row in its own leaf, and
    # keeps as many overflow pages as the PUT took
    first, _ = wal_frames(path)
    response = send(
        "PUT",
        f"/v1/registry/u/pes/{BENCH_NAME}",
        {
            "peCode": BENCH_CODE,
            "peSource": BENCH_CODE,
            "description": "Described once again.",
        },
    )
    assert response.status == 200
    revise = (wal_frames(path)[0] - first, pes_overflow_pages(dao) - overflow)
    assert revise == (BENCH_REVISE_FRAMES[page_size], cost[1])


#: the e2e corpus' code-embedding shape: ~1 KB a vector at rest
DIM, NNZ = 2048, 160


def sparse_unit(rng, dim=DIM, nnz=NNZ):
    vec = np.zeros(dim, dtype=np.float32)
    hot = rng.choice(dim, size=nnz, replace=False)
    vec[hot] = rng.standard_normal(nnz).astype(np.float32)
    return vec / np.linalg.norm(vec)


def bulk_load(service, user, rng, start, count, code=False):
    """``count`` records in batches of 64, the way an ingest job loads
    them."""
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
        )


def attach_statements(path):
    dao = SqliteDAO(path)
    statements = []
    dao._conn.set_trace_callback(statements.append)
    index = VectorIndex()
    RegistryService(dao).attach_index(index)
    dao._conn.set_trace_callback(None)
    dao.close()
    return statements, index


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
    small, _index = attach_statements(path)

    service = RegistryService(SqliteDAO(path))
    index = VectorIndex()
    service.attach_index(index)
    bulk_load(service, service.get_user("alice"), rng, 48, 1300, code=True)
    service.dao.close()
    large, warm = attach_statements(path)
    assert warm.stats()[f"{alice.user_id}/{KIND_DESC}"]["live"] == 1340
    assert shard_bytes(warm) == shard_bytes(index)

    # one read transaction: the users, one scan per (user, record
    # table) — alice's two kinds share hers — and the data_version the
    # index is current at.  Schema v15 read 10 (the counter, stamps,
    # slabs, journal and two chain-statistics queries beside the two PE
    # scans)
    assert len(large) == len(small) == 8, large
    assert large[0] == "BEGIN" and large[-1] == "COMMIT"
    scans = [sql for sql in large if "JOIN pes" in sql]
    assert len(scans) == 2
    assert not any(" IN (" in sql for sql in large)

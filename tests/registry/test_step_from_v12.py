"""A v12 registry file takes one step to v13 and serves as before.

Schema v13 keyed the owner tables by user, moved the mutation counter
and the id high-water marks into ``shard_stamps`` (user 0) and dropped
``registry_meta`` and the record tables' AUTOINCREMENT.  A v12 file is
made here from a served v13 registry by :func:`as_v12`: a new file
created by the v12 DAO's own ``CREATE`` script (:data:`V12_SCHEMA`,
verbatim), every row copied into it, the counter into
``registry_meta`` and each high-water mark into ``sqlite_sequence``.
Opening it must carry every row, every stamp and the counter, rank
every search bitwise as before, and leave a file whose reopen runs no
DDL.
"""

import sqlite3
from pathlib import Path

import numpy as np

from repro.net.transport import Request
from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.service import RegistryService
from repro.search import KIND_DESC, VectorIndex
from repro.server import LaminarServer
from tests.registry.test_fts_text import main_ddl, open_traced
from tests.registry.test_journal_in_transaction import (
    live_shards,
    populate,
    serves_fresh_takes_a_write_and_reopens_fresh,
)

#: the v12 DAO's CREATE script, as that schema's code ran it on a new
#: file (1 KB pages, WAL) before stamping it 12
V12_SCHEMA = """
CREATE TABLE users (
    user_id INTEGER PRIMARY KEY AUTOINCREMENT,
    user_name TEXT UNIQUE NOT NULL,
    password_hash TEXT NOT NULL
);
CREATE TABLE pes (
    pe_id INTEGER PRIMARY KEY AUTOINCREMENT,
    pe_name TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    description_origin TEXT NOT NULL DEFAULT 'user',
    pe_code TEXT NOT NULL,
    pe_source TEXT NOT NULL DEFAULT '',
    pe_imports TEXT NOT NULL DEFAULT '[]',
    code_embedding BLOB,
    desc_embedding BLOB,
    owners TEXT NOT NULL DEFAULT '[]',
    revision INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE workflows (
    workflow_id INTEGER PRIMARY KEY AUTOINCREMENT,
    workflow_name TEXT NOT NULL,
    entry_point TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    workflow_code TEXT NOT NULL,
    workflow_source TEXT NOT NULL DEFAULT '',
    pe_ids TEXT NOT NULL DEFAULT '[]',
    desc_embedding BLOB,
    owners TEXT NOT NULL DEFAULT '[]',
    revision INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX idx_pes_name ON pes(pe_name);
CREATE INDEX idx_wf_entry ON workflows(entry_point);
-- normalized ownership + association: ownership filtering happens in
-- SQL against these; the JSON columns on the record rows hold the same
-- facts (see the module docstring for why both stay)
CREATE TABLE pe_owners (
    pe_id INTEGER NOT NULL,
    user_id INTEGER NOT NULL,
    PRIMARY KEY (pe_id, user_id)
) WITHOUT ROWID;
CREATE INDEX idx_pe_owners_user ON pe_owners(user_id, pe_id);
CREATE TABLE workflow_owners (
    workflow_id INTEGER NOT NULL,
    user_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, user_id)
) WITHOUT ROWID;
CREATE INDEX idx_workflow_owners_user
    ON workflow_owners(user_id, workflow_id);
CREATE TABLE workflow_pes (
    workflow_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, pe_id)
) WITHOUT ROWID;
CREATE INDEX idx_workflow_pes_pe ON workflow_pes(pe_id, workflow_id);
-- registry metadata (the PE/workflow mutation counter) and persisted
-- index slabs so a warm cold start skips the O(corpus) rebuild: a slab
-- is its shard's membership (ids) at its stamp, the vectors are read
-- from the record rows
CREATE TABLE registry_meta (
    key TEXT PRIMARY KEY,
    value INTEGER NOT NULL
) WITHOUT ROWID;
INSERT INTO registry_meta (key, value) VALUES ('mutation_counter', 0);
CREATE TABLE index_shards (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL,
    PRIMARY KEY (user_id, kind)
);
-- idempotency receipts for the v1 write surface (replaying a stored
-- (user, key) returns the recorded response verbatim; a fingerprint
-- mismatch is a 409).  Receipts are claimed (INSERT OR IGNORE of a
-- pending row — the cross-process write-serialization point);
-- created_at is written but nothing prunes by it (receipts are
-- unbounded)
CREATE TABLE write_receipts (
    user_id INTEGER NOT NULL,
    idem_key TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    status INTEGER NOT NULL,
    body TEXT NOT NULL,
    created_at REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (user_id, idem_key)
) WITHOUT ROWID;
-- the normalized text match documents (name_norm doubles as the
-- whole-query substring arm and the FTS name document): the durable
-- half of text ranking only — the FTS5 index over them is a cache in
-- memory (_TEXT_INDEX_SCHEMA), not a table here
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
-- per-shard freshness stamps + the append-only delta journal.  The
-- journal is an ids-only changelog (no vectors, no secondary index:
-- every reader scans it whole in delta_id order) and each stamp row
-- carries its shard's chain tip beside it, so the one row a mutation
-- rewrites anyway also says whether to journal (tip = stamp: covered;
-- NULL or lower: stale until a base upsert)
CREATE TABLE shard_stamps (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    tip INTEGER,
    PRIMARY KEY (user_id, kind)
) WITHOUT ROWID;
CREATE TABLE index_deltas (
    delta_id INTEGER PRIMARY KEY,
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    op TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL
);
"""


def as_v12(path):
    """Rewrite the current registry file at ``path`` as the v12 file
    holding the same registry (see the module docstring).  ``path``
    must not be open."""
    path = Path(path)
    v12 = path.with_name(path.name + ".v12")
    conn = sqlite3.connect(v12)
    conn.execute("PRAGMA page_size=1024")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(f"BEGIN;{V12_SCHEMA}COMMIT;")
    conn.execute("ATTACH DATABASE ? AS src", (str(path),))
    tables = [
        name
        for (name,) in conn.execute(
            "SELECT name FROM main.sqlite_schema WHERE type = 'table'"
            " AND name NOT IN ('sqlite_sequence', 'registry_meta')"
        )
    ]
    for table in tables:
        columns = ", ".join(
            row[1] for row in conn.execute(f"PRAGMA main.table_info({table})")
        )
        # user 0's stamps are v13's counters, which v12 keeps elsewhere
        rows = " WHERE user_id != 0" if table == "shard_stamps" else ""
        conn.execute(
            f"INSERT INTO main.{table} ({columns})"
            f" SELECT {columns} FROM src.{table}{rows}"
        )
    conn.execute(
        "UPDATE registry_meta SET value = (SELECT mutation_counter FROM"
        " src.shard_stamps WHERE user_id = 0 AND kind = 'mutations')"
    )
    # copying explicit ids raised AUTOINCREMENT's rows to MAX(id); the
    # registry's high-water marks may be above that
    conn.execute("DELETE FROM sqlite_sequence WHERE name != 'users'")
    conn.execute(
        "INSERT INTO sqlite_sequence (name, seq) SELECT kind,"
        " mutation_counter FROM src.shard_stamps WHERE user_id = 0"
        " AND kind IN ('pes', 'workflows') AND mutation_counter > 0"
    )
    conn.execute("PRAGMA user_version = 12")
    conn.commit()
    conn.execute("DETACH DATABASE src")
    conn.close()
    for sidecar in ("-wal", "-shm"):
        Path(f"{path}{sidecar}").unlink(missing_ok=True)
    v12.replace(path)


#: two tenants' records, as (user, kind, name, description)
RECORDS = [
    ("alice", "pes", f"alicePE{i}", f"element {i} adds {i} to a stream")
    for i in range(10)
] + [
    ("alice", "workflows", f"aliceFlow{i}", f"workflow {i} chains elements")
    for i in range(3)
] + [
    ("bob", "pes", f"bobPE{i}", f"bob's element {i} filters a stream")
    for i in range(4)
] + [("bob", "workflows", "bobFlow", "bob's workflow joins two streams")]

#: twelve v1 searches: three queries in each query type, kind "both"
#: but for code search, which ranks PEs only
SEARCHES = [
    (query_type, query)
    for query_type in ("semantic", "text", "code", "hybrid")
    for query in ("element adds to a stream", "chains", "def filter(x)")
]


def login(server, user):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": user, "password": "pw"})
    )
    return server.dispatch(
        Request("POST", "/auth/login", {"userName": user, "password": "pw"})
    ).body["token"]


def put(server, token, user, kind, name, description, headers=None):
    code = "peCode" if kind == "pes" else "workflowCode"
    return server.dispatch(
        Request(
            "PUT",
            f"/v1/registry/{user}/{kind}/{name}",
            {code: f"def {name}(x):\n    return x\n", "description": description},
            token=token,
            headers=headers or {},
        )
    )


def serve(path, fast_bundle):
    """A server over the file at ``path`` with ``alice`` and ``bob``
    logged in (registered on first use)."""
    server = LaminarServer(dao=SqliteDAO(path), models=fast_bundle)
    return server, {user: login(server, user) for user in ("alice", "bob")}


def fill(path, fast_bundle):
    """Two tenants' records, a revision, deletes (the last PE and the
    last workflow issued among them), an idempotency receipt, a base
    slab and journal rows on top of it."""
    server, tokens = serve(path, fast_bundle)
    for user, kind, name, description in RECORDS:
        reply = put(server, tokens[user], user, kind, name, description)
        assert reply.status == 201, reply.body
    alice = server.registry.get_user("alice")
    assert server.registry._compact_shard((alice.user_id, KIND_DESC))
    for user, kind, name in (
        ("alice", "pes", "alicePE3"),
        ("bob", "pes", "bobPE3"),
        ("bob", "workflows", "bobFlow"),
    ):
        reply = server.dispatch(
            Request(
                "DELETE", f"/v1/registry/{user}/{kind}/{name}",
                token=tokens[user],
            )
        )
        assert reply.status == 200, reply.body
    reply = put(
        server, tokens["alice"], "alice", "pes", "alicePE5",
        "element 5 now subtracts from a stream",
        headers={"Idempotency-Key": "revise-5"},
    )
    assert reply.status == 200, reply.body
    server.registry.dao.close()


def searches(path, fast_bundle):
    """The hits of every search in :data:`SEARCHES`, alice's and bob's,
    scores as exact float hex."""
    server, tokens = serve(path, fast_bundle)
    hits = []
    for user in ("alice", "bob"):
        for query_type, query in SEARCHES:
            reply = server.dispatch(
                Request(
                    "POST",
                    f"/v1/registry/{user}/search",
                    {
                        "query": query,
                        "kind": "pe" if query_type == "code" else "both",
                        "queryType": query_type,
                        "k": 5,
                    },
                    token=tokens[user],
                )
            )
            assert reply.status == 200, reply.body
            hits.append(
                [
                    {**hit, "score": float(hit["score"]).hex()}
                    for hit in reply.body["hits"]
                ]
            )
    server.registry.dao.close()
    return hits


def stored(path):
    """Every row the registry keeps, the owner pairs and stamps (the
    counters among them) in one column order whatever the schema."""
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(
                f"SELECT {columns} FROM {table} ORDER BY 1, 2"
            ).fetchall()
            for table, columns in (
                ("users", "*"),
                ("pes", "*"),
                ("workflows", "*"),
                ("pe_text", "*"),
                ("wf_text", "*"),
                ("workflow_pes", "workflow_id, pe_id"),
                ("pe_owners", "user_id, pe_id"),
                ("workflow_owners", "user_id, workflow_id"),
                ("shard_stamps", "user_id, kind, mutation_counter, tip"),
                ("index_shards", "*"),
                ("index_deltas", "*"),
                ("write_receipts", "*"),
            )
        }
    finally:
        conn.close()


def sqlite_sequence(path):
    conn = sqlite3.connect(path)
    try:
        return dict(conn.execute("SELECT name, seq FROM sqlite_sequence"))
    finally:
        conn.close()


def test_a_v12_file_steps_to_v13_and_serves_as_before(
    monkeypatch, tmp_path, fast_bundle
):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    before = stored(path)
    hits = searches(path, fast_bundle)
    assert stored(path) == before  # searching wrote nothing
    assert before["index_shards"] and before["index_deltas"]
    assert before["write_receipts"]
    assert {row[0] for row in before["pe_owners"]} == {1, 2}
    counters = {
        kind: value
        for user_id, kind, value, _tip in before["shard_stamps"]
        if user_id == 0
    }

    as_v12(path)
    # what v12 kept of the registry: the counter in registry_meta and
    # AUTOINCREMENT's high-water marks above the surviving ids (the last
    # PE and workflow issued were deleted)
    conn = sqlite3.connect(path)
    try:
        assert conn.execute("PRAGMA user_version").fetchone() == (12,)
        assert conn.execute(
            "SELECT value FROM registry_meta"
        ).fetchone() == (counters["mutations"],)
        for table, id_col in (("pes", "pe_id"), ("workflows", "workflow_id")):
            (highest,) = conn.execute(
                f"SELECT MAX({id_col}) FROM {table}"
            ).fetchone()
            assert sqlite_sequence(path)[table] == counters[table] > highest
    finally:
        conn.close()

    dao, statements = open_traced(monkeypatch, path)
    assert main_ddl(statements), "the step rebuilds tables"
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 13
    assert _SCHEMA_VERSION == 13
    assert dao.mutation_counter() == counters["mutations"]
    assert dao.get_write_receipt(1, "revise-5")[1] == 200
    assert RegistryService(dao).attach_index(
        VectorIndex(), persist=False
    ) == "fresh"
    dao.close()
    assert stored(path) == before
    assert set(sqlite_sequence(path)) == {"users"}

    dao, statements = open_traced(monkeypatch, path)
    dao.close()
    assert main_ddl(statements) == []
    assert searches(path, fast_bundle) == hits


def test_a_v12_file_with_receipts_and_stamps_serves_as_before(
    monkeypatch, tmp_path
):
    """A v12 file holding every journal shape — two tenants' records,
    base slabs, chain tails, a revise, a remove — and an idempotency
    receipt takes the step once: its stamps, chains, counter and text
    rankings are the same, it attaches fresh to the same index bytes,
    ranks as brute force does, takes a write and reopens fresh."""
    rng = np.random.default_rng(90)
    path = tmp_path / "registry.db"
    alice, _bob = populate(path, rng)
    dao = SqliteDAO(path)
    receipt = ("fp", 201, {"peId": 1})
    dao.save_write_receipt(alice.user_id, "k1", *receipt, 5.0)
    index = VectorIndex()
    assert RegistryService(dao).attach_index(index, persist=False) == (
        "fresh"
    )

    def state(dao):
        return (
            dao.shard_stamps(),
            dao.shard_chain_meta(),
            dao.mutation_counter(),
            [
                dao.text_topk_pes(alice.user_id, query)
                for query in ("element", "alice", "revised", "tail")
            ],
        )

    before = state(dao)
    dao.close()
    rows = stored(path)
    as_v12(path)

    dao, statements = open_traced(monkeypatch, path)
    assert main_ddl(statements)
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 13
    assert stored(path) == rows
    assert state(dao) == before
    assert dao.get_write_receipt(alice.user_id, "k1") == receipt
    warm = VectorIndex()
    assert RegistryService(dao).attach_index(warm, persist=False) == (
        "fresh"
    )
    assert live_shards(warm) == live_shards(index)
    serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng)

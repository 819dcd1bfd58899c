"""A v15 registry file takes one step to v16 and serves as before.

Schema v16 keeps nothing of the vector index on disk: which records a
shard holds is what the owner tables say, and attach scans them.  A v15
file also held that membership a second time — the ids-only base slabs
(``index_shards``), the delta journal (``index_deltas``) and each
stamp's chain tip (``shard_stamps.tip``) — and the step drops all three
and stamps, in one transaction.

A v15 file is made here from the committed DDL of that schema
(``schemas/v15.sql``) by :func:`as_v15`: every table the two schemas
share is copied from a served v16 file column by column, every shard
that holds a vector gets the per-shard stamp a v15 writer kept (the
mutation counter here; v16 writes none), and the journal is what a v15
DAO leaves when nothing folded — one ``add`` row per stamped shard at
its stamp, holding the shard's ids, every stamp its own chain tip.  The next schema step costs one more DDL file.
Opening the file runs those three statements and no other DDL on
``main``; every record ``GET``, every listing and every search answers
byte for byte what it answered before, and the attached index is the
brute-force one.  A v14 file is refused and left as it was.
"""

import json
import os
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.errors import RegistryError
from repro.net.transport import Request
from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.entities import SHARD_KINDS
from repro.registry.service import RegistryService
from repro.search import VectorIndex
from repro.server import LaminarServer
from tests.helpers import brute_force_index, shard_bytes
from tests.registry.test_fts_text import digest, main_ddl, open_traced

#: the committed DDL of each older schema this code's step test builds
SCHEMAS = Path(__file__).parent / "schemas"

#: what the v15 -> v16 step runs on ``main``
STEP_DDL = [
    "DROP TABLE index_shards",
    "DROP TABLE index_deltas",
    "ALTER TABLE shard_stamps DROP COLUMN tip",
]


def tables(conn, schema="main"):
    return [
        name for (name,) in conn.execute(
            f"SELECT name FROM {schema}.sqlite_schema WHERE type = 'table'"
            " AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
    ]


def columns(conn, table, schema="main"):
    return [row[1] for row in conn.execute(f"PRAGMA {schema}.table_info({table})")]


STAMP_ROWS = (
    "SELECT user_id, kind, mutation_counter FROM shard_stamps"
    " ORDER BY user_id, kind"
)


def as_v15(path):
    """Rewrite the current registry file at ``path`` as the v15 file
    holding the same registry (see the module docstring).  ``path``
    must not be open."""
    built = path.with_name(path.name + ".v15")
    conn = sqlite3.connect(built)
    try:
        # the page size and journal mode the DAO gives every file
        conn.execute("PRAGMA page_size=1024")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(
            f"BEGIN;{(SCHEMAS / 'v15.sql').read_text()}COMMIT;"
        )
        conn.execute("ATTACH DATABASE ? AS current", (str(path),))
        for table in tables(conn, "current"):
            shared = [
                column for column in columns(conn, table, "current")
                if column in columns(conn, table)
            ]
            listed = ", ".join(shared)
            conn.execute(f"DELETE FROM main.{table}")
            conn.execute(
                f"INSERT INTO main.{table} ({listed})"
                f" SELECT {listed} FROM current.{table}"
            )
        (stamp,) = conn.execute(
            "SELECT mutation_counter FROM shard_stamps"
            " WHERE user_id = 0 AND kind = 'mutations'"
        ).fetchone()
        for kind, spec in sorted(SHARD_KINDS.items()):
            table = "pes" if spec.id_field == "pe_id" else "workflows"
            owned: dict[int, list[int]] = {}
            for user_id, record_id in conn.execute(
                f"SELECT o.user_id, o.{spec.id_field}"
                f" FROM {table[:-1]}_owners o"
                f" JOIN {table} r USING ({spec.id_field})"
                f" WHERE r.{spec.vector_field} IS NOT NULL"
                f" ORDER BY o.user_id, o.{spec.id_field}"
            ):
                owned.setdefault(user_id, []).append(record_id)
            for user_id, ids in owned.items():
                conn.execute(
                    "INSERT INTO shard_stamps VALUES (?, ?, ?, ?)",
                    (user_id, kind, stamp, stamp),
                )
                conn.execute(
                    "INSERT INTO index_deltas"
                    " (user_id, kind, op, mutation_counter, rows, ids)"
                    " VALUES (?, ?, 'add', ?, ?, ?)",
                    (
                        user_id, kind, stamp, len(ids),
                        np.asarray(ids, dtype=np.int64).tobytes(),
                    ),
                )
        conn.execute("PRAGMA user_version = 15")
        conn.commit()
        conn.execute("DETACH DATABASE current")
    finally:
        conn.close()
    os.replace(built, path)


def schema_names(path):
    conn = sqlite3.connect(path)
    try:
        return {
            name for (name,) in conn.execute("SELECT name FROM sqlite_schema")
        }
    finally:
        conn.close()


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

#: v1 searches: three queries in each query type, kind "both" but for
#: code search, which ranks PEs only
SEARCHES = [
    (query_type, query)
    for query_type in ("semantic", "text", "code", "hybrid")
    for query in ("element adds to a stream", "chains", "def filter(x)")
]

#: the legacy Table-3 text route's queries and record types
LEGACY_SEARCHES = [
    (query, kind)
    for query in ("element", "chains", "stream")
    for kind in ("pe", "workflow", "both")
]


def code_of(name):
    steps = "".join(f"    x = x + {i}  # step {i} of {name}\n" for i in range(6))
    code = f"def {name}(x):\n{steps}    return x\n"
    return code, f"# module: {name}.py\nimport json\n\n{code}"


def login(server, user):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": user, "password": "pw"})
    )
    return server.dispatch(
        Request("POST", "/auth/login", {"userName": user, "password": "pw"})
    ).body["token"]


def put(server, token, user, kind, name, description):
    field = "pe" if kind == "pes" else "workflow"
    code, source = code_of(name)
    return server.dispatch(
        Request(
            "PUT",
            f"/v1/registry/{user}/{kind}/{name}",
            {
                f"{field}Code": code,
                f"{field}Source": source,
                "description": description,
            },
            token=token,
        )
    )


def serve(path, fast_bundle):
    """A server over the file at ``path`` with ``alice`` and ``bob``
    logged in (registered on first use)."""
    server = LaminarServer(dao=SqliteDAO(path), models=fast_bundle)
    return server, {user: login(server, user) for user in ("alice", "bob")}


def fill(path, fast_bundle):
    """Two tenants' records, a revision and a delete."""
    server, tokens = serve(path, fast_bundle)
    for user, kind, name, description in RECORDS:
        reply = put(server, tokens[user], user, kind, name, description)
        assert reply.status == 201, reply.body
    reply = put(
        server, tokens["alice"], "alice", "pes", "alicePE5",
        "element 5 now subtracts from a stream",
    )
    assert reply.status == 200, reply.body
    reply = server.dispatch(
        Request("DELETE", "/v1/registry/bob/pes/bobPE3", token=tokens["bob"])
    )
    assert reply.status == 200, reply.body
    server.registry.dao.close()


def replies(path, fast_bundle):
    """The JSON bytes of every record's ``GET``, both listings, every
    search in :data:`SEARCHES` and every legacy text search in
    :data:`LEGACY_SEARCHES`, alice's and bob's, from a server opened on
    ``path`` just for this."""
    server, tokens = serve(path, fast_bundle)
    requests = [
        (user, "GET", f"/v1/registry/{user}/{kind}/{name}", {})
        for user, kind, name, _ in RECORDS
        if name != "bobPE3"
    ] + [
        (user, "GET", f"/v1/registry/{user}/{kind}", {})
        for user in ("alice", "bob")
        for kind in ("pes", "workflows")
    ] + [
        (
            user,
            "POST",
            f"/v1/registry/{user}/search",
            {
                "query": query,
                "kind": "pe" if query_type == "code" else "both",
                "queryType": query_type,
                "k": 5,
            },
        )
        for user in ("alice", "bob")
        for query_type, query in SEARCHES
    ] + [
        (
            user,
            "GET",
            f"/registry/{user}/search/{query}/type/{kind}",
            {"queryType": "text", "k": 5},
        )
        for user in ("alice", "bob")
        for query, kind in LEGACY_SEARCHES
    ]
    out = []
    for user, method, route, body in requests:
        request = Request(method, route, body, token=tokens[user])
        reply = server.dispatch(request)
        assert reply.status == 200, (request.path, reply.body)
        out.append(json.dumps(reply.body, sort_keys=True))
    server.registry.dao.close()
    return out


def test_a_v15_file_steps_to_v16_and_serves_as_before(
    monkeypatch, tmp_path, fast_bundle
):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    before = replies(path, fast_bundle)
    # the searches found something to serve
    assert sum('"hits": []' not in reply for reply in before) > len(SEARCHES)

    as_v15(path)
    conn = sqlite3.connect(path)
    stamped = conn.execute(STAMP_ROWS).fetchall()
    conn.close()
    assert any(user_id for user_id, _kind, _stamp in stamped)
    assert {"index_shards", "index_deltas"} <= schema_names(path)
    dao, statements = open_traced(monkeypatch, path)
    # the three statements of the step, inside one transaction with
    # its stamp
    assert [sql.rstrip(";") for sql in main_ddl(statements)] == STEP_DDL
    step = statements.index("BEGIN;")
    assert statements[step + 1:step + 5] == [
        *(f"{sql};" for sql in STEP_DDL), "PRAGMA user_version = 16;",
    ], statements
    assert statements[step + 6] == "COMMIT", statements
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 16
    assert _SCHEMA_VERSION == 16
    assert columns(dao._conn, "shard_stamps") == [
        "user_id", "kind", "mutation_counter",
    ]
    # the step keeps every stamp row, a v15 writer's per-shard ones too
    assert [tuple(row) for row in dao._conn.execute(STAMP_ROWS)] == stamped
    index = VectorIndex()
    RegistryService(dao).attach_index(index)
    assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
    assert shard_bytes(index)
    dao.close()
    assert not {"index_shards", "index_deltas"} & schema_names(path)

    assert replies(path, fast_bundle) == before


def test_a_step_that_fails_leaves_the_v15_file_as_it_was(
    tmp_path, fast_bundle
):
    """One transaction: a v15 file whose journal is already gone fails
    the step's second statement, and the first one is rolled back with
    it."""
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    as_v15(path)
    conn = sqlite3.connect(path)
    conn.execute("DROP TABLE index_deltas")
    conn.commit()
    conn.close()
    before = digest(path)

    with pytest.raises(sqlite3.OperationalError, match="index_deltas"):
        SqliteDAO(path)
    assert digest(path) == before
    assert "index_shards" in schema_names(path)
    # the failed open holds no transaction open on the file
    conn = sqlite3.connect(path, timeout=0)
    try:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("ROLLBACK")
    finally:
        conn.close()


def test_a_v14_file_is_refused_untouched(tmp_path, fast_bundle):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    as_v15(path)
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 14")
    conn.commit()
    conn.close()
    before = digest(path)

    with pytest.raises(RegistryError, match="schema v14;") as err:
        SqliteDAO(path)
    assert err.value.params["userVersion"] == 14
    assert "older checkout" in err.value.message
    assert "v15 and v16 files only" in err.value.message
    assert digest(path) == before
    assert {"index_shards", "index_deltas"} <= schema_names(path)


def test_the_v15_membership_is_dropped_unread(tmp_path, fast_bundle):
    """The step reads nothing of what it drops: a v15 file whose base
    slabs and journal disagree with its rows — a torn journal row, a
    slab naming records no owner table holds, a ``remove`` emptying a
    shard — steps all the same and attaches what the rows hold."""
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    as_v15(path)
    conn = sqlite3.connect(path)
    stamps = conn.execute(
        "SELECT user_id, kind, mutation_counter FROM shard_stamps"
        " WHERE user_id != 0 ORDER BY user_id, kind"
    ).fetchall()
    (user_id, kind, stamp) = stamps[0]
    conn.execute(
        "INSERT INTO index_shards VALUES (?, ?, ?, 2, ?)",
        (user_id, kind, stamp, np.asarray([9999, 10000], np.int64).tobytes()),
    )
    conn.execute(
        "INSERT INTO index_deltas"
        " (user_id, kind, op, mutation_counter, rows, ids)"
        " VALUES (?, ?, 'remove', ?, 1, ?)",
        (user_id, kind, stamp + 1, b"\x01\x00"),  # torn: not 8 bytes
    )
    conn.execute("UPDATE index_deltas SET op = 'remove' WHERE user_id = ?",
                 (stamps[-1][0],))
    conn.commit()
    conn.close()

    dao = SqliteDAO(path)
    index = VectorIndex()
    RegistryService(dao).attach_index(index)
    assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
    assert index.size(user_id, kind) > 0
    assert index.size(stamps[-1][0], stamps[-1][1]) > 0
    dao.close()
    assert not {"index_shards", "index_deltas"} & schema_names(path)

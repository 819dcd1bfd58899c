"""A v13 registry file takes one step to v14 and serves as before.

Schema v14 stores a record's code and source deflated
(:mod:`repro.registry.textcodec`); v13 stored them as TEXT, which the
codec reads as itself, so the step is the stamp alone.  A v13 file is
made here from a served v14 registry by :func:`as_v13`: every code and
source value written back as the text it decodes to, ``user_version``
13.  Opening it runs no DDL on ``main``; every record ``GET``, every
listing and every search type answers byte for byte what it answered
before the rewrite, and reading re-encodes nothing — only a record that
is written again is stored deflated.
"""

import json
import sqlite3

from repro.net.transport import Request
from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.service import RegistryService
from repro.registry.textcodec import decode_texts
from repro.search import KIND_DESC, VectorIndex
from repro.server import LaminarServer
from tests.registry.test_fts_text import main_ddl, open_traced

#: each record table's id, code and source columns
TEXT_COLUMNS = {
    "pes": ("pe_id", "pe_code", "pe_source"),
    "workflows": ("workflow_id", "workflow_code", "workflow_source"),
}


def as_v13(path):
    """Rewrite the current registry file at ``path`` as the v13 file
    holding the same registry (see the module docstring).  ``path``
    must not be open."""
    conn = sqlite3.connect(path)
    try:
        for table, (key, code, source) in TEXT_COLUMNS.items():
            rows = conn.execute(
                f"SELECT {key}, {code}, {source} FROM {table}"
            ).fetchall()
            conn.executemany(
                f"UPDATE {table} SET {code} = ?, {source} = ? WHERE {key} = ?",
                [(*decode_texts(c, s), at) for at, c, s in rows],
            )
        conn.execute("PRAGMA user_version = 13")
        conn.commit()
    finally:
        conn.close()


def stored_types(path):
    """``{(table, id): (code type, source type)}`` as SQLite holds them."""
    conn = sqlite3.connect(path)
    try:
        return {
            (table, at): (c, s)
            for table, (key, code, source) in TEXT_COLUMNS.items()
            for at, c, s in conn.execute(
                f"SELECT {key}, typeof({code}), typeof({source}) FROM {table}"
            )
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

#: twelve v1 searches: three queries in each query type, kind "both"
#: but for code search, which ranks PEs only
SEARCHES = [
    (query_type, query)
    for query_type in ("semantic", "text", "code", "hybrid")
    for query in ("element adds to a stream", "chains", "def filter(x)")
]


def code_of(name):
    """A record's code, long enough to deflate; its source is the code
    after a module header, as an ingested chunk's is."""
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
    """Two tenants' records, a base slab and a delete on top of it."""
    server, tokens = serve(path, fast_bundle)
    for user, kind, name, description in RECORDS:
        reply = put(server, tokens[user], user, kind, name, description)
        assert reply.status == 201, reply.body
    alice = server.registry.get_user("alice")
    assert server.registry._compact_shard((alice.user_id, KIND_DESC))
    reply = server.dispatch(
        Request("DELETE", "/v1/registry/bob/pes/bobPE3", token=tokens["bob"])
    )
    assert reply.status == 200, reply.body
    server.registry.dao.close()


def replies(path, fast_bundle):
    """The JSON bytes of every record's ``GET``, both listings and every
    search in :data:`SEARCHES`, alice's and bob's."""
    server, tokens = serve(path, fast_bundle)
    requests = [
        Request("GET", f"/v1/registry/{user}/{kind}/{name}")
        for user, kind, name, _ in RECORDS
        if name != "bobPE3"
    ] + [
        Request("GET", f"/v1/registry/{user}/{kind}")
        for user in ("alice", "bob")
        for kind in ("pes", "workflows")
    ] + [
        Request(
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
    ]
    out = []
    for request in requests:
        request.token = tokens[request.path.split("/")[3]]
        reply = server.dispatch(request)
        assert reply.status == 200, (request.path, reply.body)
        out.append(json.dumps(reply.body, sort_keys=True))
    server.registry.dao.close()
    return out


def test_a_v13_file_steps_to_v14_and_serves_as_before(
    monkeypatch, tmp_path, fast_bundle
):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    # every code and source the fill sent is stored deflated
    assert set(stored_types(path).values()) == {("blob", "blob")}
    before = replies(path, fast_bundle)
    # a record's code and source come back as sent
    item = json.loads(before[0])["item"]
    assert (item["peCode"], item["peSource"]) == code_of("alicePE0")

    as_v13(path)
    types = stored_types(path)
    assert set(types.values()) == {("text", "text")}

    dao, statements = open_traced(monkeypatch, path)
    assert main_ddl(statements) == [], "the step is the stamp alone"
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 14
    assert _SCHEMA_VERSION == 14
    assert RegistryService(dao).attach_index(
        VectorIndex(), persist=False
    ) == "fresh"
    dao.close()

    assert replies(path, fast_bundle) == before
    # reading wrote nothing back
    assert stored_types(path) == types

    # a written record is re-encoded, and only that one
    server, tokens = serve(path, fast_bundle)
    reply = put(
        server, tokens["alice"], "alice", "pes", "alicePE5",
        "element 5 now subtracts from a stream",
    )
    assert reply.status == 200, reply.body
    revised = json.loads(before[5])["item"]["peId"]
    server.registry.dao.close()
    assert stored_types(path) == {
        **types, ("pes", revised): ("blob", "blob"),
    }

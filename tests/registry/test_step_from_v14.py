"""A v14 registry file takes one step to v15 and serves as before.

Schema v15 keeps no text document on disk: the documents text ranking
reads are a pure function of each record's name and description, so
they live only in the DAO's memory text index, derived from the record
rows by the first text ranking after open.  A v14 file held them in
``pe_text`` / ``wf_text``; the step drops both tables and stamps, in
one transaction.  A v14 file is made here from a served v15 registry by
:func:`as_v14`: the two tables, each row the builder run over a stored
record, every code and source value written back as the text it
decodes to — a v13 file stepped to v14 kept its TEXT values, which the
codec (:mod:`repro.registry.textcodec`) reads as themselves — and
``user_version`` 14.  Opening it runs those two drops and no other DDL
on ``main``; every record ``GET``, every listing and every search —
text, hybrid and the legacy Table-3 text route among them — answers
byte for byte what it answered before.  Reading re-encodes nothing:
only a record that is written again is stored deflated.  A v13 file is
refused and left as it was.
"""

import json
import sqlite3

import pytest

from repro.errors import RegistryError
from repro.net.transport import Request
from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.service import RegistryService
from repro.registry.textcodec import decode_texts
from repro.search import KIND_DESC, VectorIndex
from repro.server import LaminarServer
from tests.registry.test_fts_text import (
    add_text_tables,
    built_documents,
    digest,
    main_ddl,
    open_traced,
)

#: each record table's id, code and source columns
TEXT_COLUMNS = {
    "pes": ("pe_id", "pe_code", "pe_source"),
    "workflows": ("workflow_id", "workflow_code", "workflow_source"),
}


def as_v14(path):
    """Rewrite the current registry file at ``path`` as the v14 file
    holding the same registry (see the module docstring).  ``path``
    must not be open."""
    conn = sqlite3.connect(path)
    try:
        add_text_tables(conn)
        for table, (key, code, source) in TEXT_COLUMNS.items():
            rows = conn.execute(
                f"SELECT {key}, {code}, {source} FROM {table}"
            ).fetchall()
            conn.executemany(
                f"UPDATE {table} SET {code} = ?, {source} = ? WHERE {key} = ?",
                [(*decode_texts(c, s), at) for at, c, s in rows],
            )
        conn.execute("PRAGMA user_version = 14")
        conn.commit()
    finally:
        conn.close()


def as_v13(path):
    """Rewrite the current registry file at ``path`` as a v13 file:
    :func:`as_v14`'s file stamped ``user_version`` 13.  ``path`` must
    not be open."""
    as_v14(path)
    conn = sqlite3.connect(path)
    try:
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
    """Two tenants' records, a base slab, a revision and a delete."""
    server, tokens = serve(path, fast_bundle)
    for user, kind, name, description in RECORDS:
        reply = put(server, tokens[user], user, kind, name, description)
        assert reply.status == 201, reply.body
    alice = server.registry.get_user("alice")
    assert server.registry._compact_shard((alice.user_id, KIND_DESC))
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


def test_a_v14_file_steps_to_v15_and_serves_as_before(
    monkeypatch, tmp_path, fast_bundle
):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    # every code and source the fill sent is stored deflated
    assert set(stored_types(path).values()) == {("blob", "blob")}
    before = replies(path, fast_bundle)
    # the searches found something to serve
    assert sum('"hits": []' not in reply for reply in before) > len(SEARCHES)
    # a record's code and source come back as sent
    item = json.loads(before[0])["item"]
    assert (item["peCode"], item["peSource"]) == code_of("alicePE0")

    as_v14(path)
    assert {"pe_text", "wf_text"} <= schema_names(path)
    types = stored_types(path)
    assert set(types.values()) == {("text", "text")}
    dao, statements = open_traced(monkeypatch, path)
    assert [sql.rstrip(";") for sql in main_ddl(statements)] == [
        "DROP TABLE pe_text", "DROP TABLE wf_text",
    ]
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 15
    assert _SCHEMA_VERSION == 15
    assert RegistryService(dao).attach_index(
        VectorIndex(), persist=False
    ) == "fresh"
    dao.close()
    assert not {"pe_text", "wf_text"} & schema_names(path)

    assert replies(path, fast_bundle) == before
    # reading wrote nothing back
    assert stored_types(path) == types

    # a written record is re-encoded, and only that one
    server, tokens = serve(path, fast_bundle)
    reply = put(
        server, tokens["alice"], "alice", "pes", "alicePE6",
        "element 6 now subtracts from a stream",
    )
    assert reply.status == 200, reply.body
    revised = json.loads(before[6])["item"]["peId"]
    server.registry.dao.close()
    assert stored_types(path) == {
        **types, ("pes", revised): ("blob", "blob"),
    }


def test_the_dropped_documents_are_the_derived_ones(tmp_path, fast_bundle):
    """What the step throws away is exactly what the first ranking
    derives: a v14 file's stored documents equal the memory ones."""
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    as_v14(path)
    conn = sqlite3.connect(path)
    try:
        stored = {
            side: {row[0]: tuple(row[1:]) for row in conn.execute(
                f"SELECT * FROM {side}"
            )}
            for side in ("pe_text", "wf_text")
        }
    finally:
        conn.close()
    dao = SqliteDAO(path)
    try:
        alice = dao.get_user_by_name("alice")
        assert dao.text_topk_pes(alice.user_id, "element")
        for side, docs, table in (
            ("pe_text", "pe_docs", "pes"), ("wf_text", "wf_docs", "workflows"),
        ):
            derived = {
                row[0]: tuple(row[1:]) for row in dao._conn.execute(
                    f"SELECT * FROM text_index.{docs}"
                )
            }
            assert derived == stored[side] == built_documents(dao._conn, table)
            assert derived
    finally:
        dao.close()


def test_a_v13_file_is_refused_untouched(tmp_path, fast_bundle):
    path = tmp_path / "registry.db"
    fill(path, fast_bundle)
    as_v13(path)
    before = digest(path)

    with pytest.raises(RegistryError, match="schema v13;") as err:
        SqliteDAO(path)
    assert err.value.params["userVersion"] == 13
    assert "older checkout" in err.value.message
    assert "v14 and v15 files only" in err.value.message
    assert digest(path) == before
    assert {"pe_text", "wf_text"} <= schema_names(path)

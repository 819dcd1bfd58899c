"""The v1 write routes over both record kinds, step by step.

One sequence per kind (``pe``, ``workflow``): PUT new, PUT identical
(the §3.1 no-op), PUT with changed metadata (an in-place revision), PUT
with changed code (supersede), a bulk holding one in-batch duplicate
and one registry hit (an ownership grant), DELETE (dissociate, then
delete), a keyed replay and an ``ifVersion`` mismatch.  Each step pins
the status, the ``created`` flags, the revisions and how far the
registry mutation counter moved; after each one every live search shard
must equal, id for id and byte for byte, the shards a second connection
attaches from the file and the shards a brute-force rebuild from the
record rows produces, and the memory text documents must be the
builders run over the stored rows
(``test_fts_text.assert_text_cache_current``).
"""

from __future__ import annotations

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.service import RegistryService
from repro.search import VectorIndex
from repro.server import LaminarServer
from tests.helpers import brute_force_index, shard_bytes
from tests.registry.test_fts_text import assert_text_cache_current

KINDS = {
    "pe": {"route": "pes", "name": "peName", "code": "peCode"},
    "workflow": {"route": "workflows", "name": "entryPoint", "code": "workflowCode"},
}


class Matrix:
    """One kind's routes on a file-backed server, two users."""

    def __init__(self, path, models, kind: str) -> None:
        self.path = path
        self.kind = kind
        self.spec = KINDS[kind]
        self.server = LaminarServer(dao=SqliteDAO(path), models=models)
        self.tokens = {}
        for user in ("alice", "bob"):
            credentials = {"userName": user, "password": "pw"}
            self.server.dispatch(Request("POST", "/auth/register", credentials))
            self.tokens[user] = self.server.dispatch(
                Request("POST", "/auth/login", credentials)
            ).body["token"]

    @property
    def counter(self) -> int:
        return self.server.registry.dao.mutation_counter()

    def body(self, code: str, description: str) -> dict:
        return {self.spec["code"]: code, "description": description}

    def item(self, name: str, code: str, description: str) -> dict:
        return {self.spec["name"]: name, **self.body(code, description)}

    def call(self, method, user, tail, body=None, headers=None):
        before = self.counter
        response = self.server.dispatch(
            Request(
                method,
                f"/v1/registry/{user}/{self.spec['route']}{tail}",
                body or {},
                token=self.tokens[user],
                headers=headers or {},
            )
        )
        return response, self.counter - before

    def put(self, user, name, code, description, **extra):
        headers = extra.pop("headers", None)
        body = {**self.body(code, description), **extra}
        return self.call("PUT", user, f"/{name}", body, headers)

    def assert_caches_agree(self) -> None:
        """The search shards and the text documents, against the file."""
        assert_text_cache_current(self.server.registry.dao)
        live = shard_bytes(self.server.index)
        reopened_dao = SqliteDAO(self.path)
        try:
            reopened = VectorIndex()
            RegistryService(reopened_dao).attach_index(reopened)
            assert shard_bytes(reopened) == live
        finally:
            reopened_dao.close()
        brute = brute_force_index(self.server.registry.dao)
        assert shard_bytes(brute) == live

    def close(self) -> None:
        self.server.registry.dao.close()


@pytest.fixture(params=sorted(KINDS))
def matrix(request, tmp_path, fast_bundle):
    m = Matrix(tmp_path / "registry.db", fast_bundle, request.param)
    yield m
    m.close()


def items(response) -> list[dict]:
    return response.body["items"]


def test_write_route_matrix(matrix):
    m = matrix
    # PUT new
    response, moved = m.put("alice", "x", "code-x-1", "first flow")
    assert (response.status, moved) == (201, 1), response.body
    assert response.body["kind"] == m.kind
    [item] = items(response)
    assert (item["created"], item["revision"]) == (True, 1)
    assert response.body["registryVersion"] == m.counter
    first_id = item[f"{m.kind}Id"]
    m.assert_caches_agree()

    # PUT identical: the §3.1 dedup resolves onto the caller's record
    response, moved = m.put("alice", "x", "code-x-1", "first flow")
    assert (response.status, moved) == (200, 0), response.body
    [item] = items(response)
    assert (item["created"], item["revision"]) == (False, 1)
    assert item[f"{m.kind}Id"] == first_id
    m.assert_caches_agree()

    # PUT changed metadata: revised in place, same id, revision bumps
    response, moved = m.put("alice", "x", "code-x-1", "parse a csv file")
    assert (response.status, moved) == (200, 1), response.body
    [item] = items(response)
    assert (item["created"], item["revision"]) == (False, 2)
    assert item[f"{m.kind}Id"] == first_id
    assert item["description"] == "parse a csv file"
    m.assert_caches_agree()

    # PUT changed code: a new record supersedes the sole-owned old one
    # (one insert, one delete)
    response, moved = m.put("alice", "x", "code-x-2", "parse a csv file")
    assert (response.status, moved) == (201, 2), response.body
    [item] = items(response)
    assert (item["created"], item["revision"]) == (True, 1)
    current_id = item[f"{m.kind}Id"]
    assert current_id != first_id
    m.assert_caches_agree()

    # bulk by bob: y twice (an in-batch duplicate) and alice's x as it
    # stands (a registry hit: bob is granted ownership) — one insert
    # and one grant
    response, moved = m.call(
        "POST",
        "bob",
        ":bulk",
        {
            "items": [
                m.item("y", "code-y", "sum two numbers"),
                m.item("y", "code-y", "sum two numbers"),
                m.item("x", "code-x-2", "parse a csv file"),
            ]
        },
    )
    assert (response.status, moved) == (201, 2), response.body
    assert response.body["op"] == "bulk-register"
    assert [i["created"] for i in items(response)] == [True, False, False]
    assert [i["revision"] for i in items(response)] == [1, 1, 2]
    y_id = items(response)[0][f"{m.kind}Id"]
    assert items(response)[1][f"{m.kind}Id"] == y_id
    assert items(response)[2][f"{m.kind}Id"] == current_id
    assert items(response)[2]["owners"] == [1, 2]
    m.assert_caches_agree()

    # DELETE: alice dissociates from x (bob still owns it), bob deletes y
    response, moved = m.call("DELETE", "alice", "/x")
    assert (response.status, moved) == (200, 1), response.body
    assert response.body["removed"] is True
    m.assert_caches_agree()
    response, moved = m.call("DELETE", "bob", "/y")
    assert (response.status, moved) == (200, 1), response.body
    m.assert_caches_agree()
    response, moved = m.call("DELETE", "bob", "/y")
    assert (response.status, moved) == (404, 0), response.body

    # keyed replay: the second PUT replays the stored response verbatim
    key = {"Idempotency-Key": f"{m.kind}-z"}
    first, moved = m.put("alice", "z", "code-z", "zip files", headers=key)
    assert (first.status, moved) == (201, 1), first.body
    again, moved = m.put("alice", "z", "code-z", "zip files", headers=key)
    assert (again.status, moved) == (201, 0)
    assert again.body == first.body
    assert again.headers.get("Idempotent-Replay") == "true"
    m.assert_caches_agree()

    # ifVersion mismatch: 412 and the registry is untouched
    response, moved = m.put("alice", "z", "code-z", "unzip files", ifVersion=5)
    assert (response.status, moved) == (412, 0), response.body
    response, moved = m.call(
        "POST",
        "alice",
        ":bulk",
        {"items": [m.item("w", "code-w", "w")], "ifVersion": 0},
    )
    assert (response.status, moved) == (412, 0), response.body
    m.assert_caches_agree()


#: the e2e benchmark's write spans (benchmarks/e2e/trace.py), whose
#: wrappers are installed on the classes and modules after import
WRITE_SPANS = (
    "server.schema.parse",
    "server.v1_write.execute_write",
    "server.v1_write.build_record",
    "registry.service.register",
    "registry.dao.insert",
)


def test_pe_writes_enter_every_traced_write_name(monkeypatch, fast_bundle):
    """The write core reaches the per-kind service and DAO methods by
    looking them up when called, so a wrapper installed after import —
    as the benchmark's tracer installs its spans — is the one entered."""
    import importlib

    from benchmarks.e2e.trace import TARGETS

    entered: set[str] = set()

    def counting(path, fn):
        def wrapper(*args, **kwargs):
            entered.add(path)
            return fn(*args, **kwargs)

        return wrapper

    pinned = [
        (module, path)
        for span, module, path in TARGETS
        if span in WRITE_SPANS and "SearchRequest" not in path
    ]
    for module, path in pinned:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            monkeypatch.setattr(owner, attr, classmethod(counting(path, raw.__func__)))
        else:
            monkeypatch.setattr(owner, attr, counting(path, raw))

    server = LaminarServer(models=fast_bundle)
    credentials = {"userName": "u", "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", credentials))
    token = server.dispatch(Request("POST", "/auth/login", credentials)).body["token"]
    for method, tail, body in (
        ("PUT", "/p", {"peCode": "a", "description": "x"}),  # new
        ("PUT", "/p", {"peCode": "a", "description": "y"}),  # revise
        ("PUT", "/p", {"peCode": "b", "description": "y"}),  # supersede
        ("POST", ":bulk", {"items": [{"peName": "q", "peCode": "c"}]}),
        ("DELETE", "/p", {}),
    ):
        response = server.dispatch(
            Request(method, f"/v1/registry/u/pes{tail}", body, token=token)
        )
        assert response.status < 300, response.body
    assert entered == {path for _module, path in pinned}


#: the e2e benchmark's DAO read spans
READ_SPANS = (
    "registry.dao.get",
    "registry.dao.text_topk",
    "registry.dao.ids_owned",
)


def test_reads_enter_every_traced_dao_read_name(monkeypatch, fast_bundle):
    """The read paths reach the per-kind DAO read methods by looking
    them up when called: each pinned name is entered after a wrapper is
    installed on ``SqliteDAO`` post-import, as the benchmark's tracer
    installs its spans.  The owned-id projection is a listing's: no
    search enters it (the index's freshness is ``data_version``'s)."""
    from benchmarks.e2e.trace import TARGETS

    entered: set[str] = set()
    pinned = {
        path for span, _module, path in TARGETS if span in READ_SPANS
    }
    assert pinned and all(path.startswith("SqliteDAO.") for path in pinned)
    for path in pinned:
        attr = path.split(".")[1]
        raw = SqliteDAO.__dict__[attr]

        def wrapper(*args, _path=path, _raw=raw, **kwargs):
            entered.add(_path)
            return _raw(*args, **kwargs)

        monkeypatch.setattr(SqliteDAO, attr, wrapper)

    server = LaminarServer(models=fast_bundle)
    credentials = {"userName": "u", "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", credentials))
    token = server.dispatch(Request("POST", "/auth/login", credentials)).body["token"]
    for method, path, body in (
        ("PUT", "/pes/adder", {"peCode": "def adder(x): return x + 1",
                               "description": "adds one to a stream"}),
        ("PUT", "/workflows/flow", {"workflowCode": "graph = g()",
                                    "description": "a stream that adds"}),
        ("GET", "/pes/adder", {}),
    ) + tuple(
        ("POST", "/search", {"query": "adds stream", "kind": kind,
                             "queryType": query_type, "k": 2})
        for kind, query_type in (
            ("both", "semantic"), ("both", "text"), ("both", "hybrid"),
            ("pe", "code"),
        )
    ):
        response = server.dispatch(
            Request(method, f"/v1/registry/u{path}", body, token=token)
        )
        assert response.status < 300, response.body
    assert entered == pinned - {"SqliteDAO.pe_ids_owned_by"}
    listing = server.dispatch(Request("GET", "/v1/registry/u/pes", {}, token=token))
    assert listing.status == 200, listing.body
    assert entered == pinned

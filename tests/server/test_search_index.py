"""End-to-end: /registry/{user}/search served from the vector index.

Covers the wiring chain controller -> service -> index: registrations
populate the per-user shards, removals evict them mid-session, and the
search endpoint's results always reflect the live registry.
"""

import pytest

from repro.net.transport import Request
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW
from repro.server import LaminarServer
from tests.helpers import index_shards


@pytest.fixture()
def server(fast_bundle):
    return LaminarServer(models=fast_bundle)


@pytest.fixture()
def token(server):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "ix", "password": "pw"})
    )
    response = server.dispatch(
        Request("POST", "/auth/login", {"userName": "ix", "password": "pw"})
    )
    return response.body["token"]


def add_pe(server, token, name, description, source=""):
    response = server.dispatch(
        Request(
            "POST",
            "/registry/ix/pe/add",
            {
                "peName": name,
                "peCode": "eA==",
                "description": description,
                "peSource": source,
            },
            token=token,
        )
    )
    assert response.status == 201
    return response.body["peId"]


def search(server, token, query, search_type="pe", query_type="semantic", k=None):
    body = {"queryType": query_type}
    if k is not None:
        body["k"] = k
    response = server.dispatch(
        Request(
            "GET",
            f"/registry/ix/search/{query}/type/{search_type}",
            body,
            token=token,
        )
    )
    assert response.status == 200
    return response.body["hits"]


class TestIndexMaintenance:
    def test_registration_populates_shards(self, server, token):
        pe_id = add_pe(server, token, "Summer", "adds numbers together")
        user_id = server.registry.get_user("ix").user_id
        assert server.index.contains(user_id, KIND_DESC, pe_id)
        assert server.index.contains(user_id, KIND_CODE, pe_id)

    def test_workflow_registration_populates_shard(self, server, token):
        response = server.dispatch(
            Request(
                "POST",
                "/registry/ix/workflow/add",
                {
                    "entryPoint": "sumflow",
                    "workflowCode": "eA==",
                    "description": "summing workflow",
                },
                token=token,
            )
        )
        assert response.status == 201
        user_id = server.registry.get_user("ix").user_id
        assert server.index.contains(
            user_id, KIND_WORKFLOW, response.body["workflowId"]
        )

    def test_search_hits_come_from_index(self, server, token):
        add_pe(server, token, "Summer", "adds numbers together")
        add_pe(server, token, "Prime", "checks whether a number is prime")
        hits = search(server, token, "prime number check")
        assert hits and hits[0]["peName"] == "Prime"

    def test_removed_pe_absent_mid_session(self, server, token):
        """The ISSUE's end-to-end criterion: a PE removed mid-session
        disappears from subsequent /registry/{user}/search results."""
        keep_id = add_pe(server, token, "Summer", "adds numbers together")
        drop_id = add_pe(server, token, "Prime", "checks whether a number is prime")

        before = {h["peId"] for h in search(server, token, "number")}
        assert {keep_id, drop_id} <= before

        response = server.dispatch(
            Request(
                "DELETE",
                f"/registry/ix/pe/remove/id/{drop_id}",
                token=token,
            )
        )
        assert response.status == 200

        after = {h["peId"] for h in search(server, token, "number")}
        assert drop_id not in after
        assert keep_id in after

        user_id = server.registry.get_user("ix").user_id
        assert not server.index.contains(user_id, KIND_DESC, drop_id)
        assert not server.index.contains(user_id, KIND_CODE, drop_id)

    def test_removed_workflow_absent_mid_session(self, server, token):
        for entry in ("alpha", "beta"):
            server.dispatch(
                Request(
                    "POST",
                    "/registry/ix/workflow/add",
                    {
                        "entryPoint": entry,
                        "workflowCode": entry.encode("ascii").hex(),
                        "description": f"workflow {entry}",
                    },
                    token=token,
                )
            )
        response = server.dispatch(
            Request("DELETE", "/registry/ix/workflow/remove/name/alpha", token=token)
        )
        assert response.status == 200
        hits = search(server, token, "workflow", search_type="workflow")
        assert all(h["entryPoint"] != "alpha" for h in hits)

    def test_code_search_served_from_index(self, server, token):
        add_pe(
            server,
            token,
            "Randomizer",
            "random numbers",
            source="class Randomizer:\n    def run(self):\n"
            "        return random.randint(1, 1000)\n",
        )
        add_pe(
            server,
            token,
            "Sorter",
            "sorts lists",
            source="class Sorter:\n    def run(self, xs):\n"
            "        return sorted(xs)\n",
        )
        hits = search(server, token, "random.randint(1, 1000)", query_type="code")
        assert hits and hits[0]["peName"] == "Randomizer"

    def test_other_users_shards_untouched(self, server, token):
        add_pe(server, token, "Summer", "adds numbers together")
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "zz", "password": "pw"})
        )
        other_token = server.dispatch(
            Request("POST", "/auth/login", {"userName": "zz", "password": "pw"})
        ).body["token"]
        response = server.dispatch(
            Request(
                "GET",
                "/registry/zz/search/numbers/type/pe",
                {"queryType": "semantic"},
                token=other_token,
            )
        )
        assert response.status == 200
        assert response.body["hits"] == []

    def test_shared_pe_removal_only_evicts_caller(self, server, token):
        """Dedup makes two owners share one PE; removal by one owner must
        keep the other owner's shard entry."""
        pe_id = add_pe(server, token, "Shared", "a shared processing element")
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "zz", "password": "pw"})
        )
        other_token = server.dispatch(
            Request("POST", "/auth/login", {"userName": "zz", "password": "pw"})
        ).body["token"]
        response = server.dispatch(
            Request(
                "POST",
                "/registry/zz/pe/add",
                {
                    "peName": "Shared",
                    "peCode": "eA==",
                    "description": "a shared processing element",
                },
                token=other_token,
            )
        )
        assert response.body["peId"] == pe_id  # deduped, co-owned

        server.dispatch(
            Request("DELETE", f"/registry/ix/pe/remove/id/{pe_id}", token=token)
        )
        ix_id = server.registry.get_user("ix").user_id
        zz_id = server.registry.get_user("zz").user_id
        assert not server.index.contains(ix_id, KIND_DESC, pe_id)
        assert server.index.contains(zz_id, KIND_DESC, pe_id)


class TestBulkLoadFromDao:
    def test_sqlite_registry_is_bulk_indexed_on_attach(self, fast_bundle, tmp_path):
        from repro.registry.dao import SqliteDAO

        db = tmp_path / "reg.db"
        first = LaminarServer(dao=SqliteDAO(db), models=fast_bundle)
        first.dispatch(
            Request("POST", "/auth/register", {"userName": "ix", "password": "pw"})
        )
        token = first.dispatch(
            Request("POST", "/auth/login", {"userName": "ix", "password": "pw"})
        ).body["token"]
        pe_id = add_pe(first, token, "Summer", "adds numbers together")
        first.registry.dao.close()

        # a fresh server over the same DB: shards rebuilt at attach time
        second = LaminarServer(dao=SqliteDAO(db), models=fast_bundle)
        user_id = second.registry.get_user("ix").user_id
        assert second.index.contains(user_id, KIND_DESC, pe_id)
        token2 = second.dispatch(
            Request("POST", "/auth/login", {"userName": "ix", "password": "pw"})
        ).body["token"]
        hits = search(second, token2, "adds numbers")
        assert [h["peId"] for h in hits] == [pe_id]


QUERY_TYPES = ("text", "semantic", "code", "hybrid")
SEARCH_KINDS = ("pe", "workflow", "both")


def _file_bytes(path):
    """The registry file's bytes and its write-ahead log's: what a
    commit changes."""
    wal = path.with_name(path.name + "-wal")
    return path.read_bytes(), wal.read_bytes() if wal.exists() else b""


def _file_server(path, fast_bundle):
    from repro.registry.dao import SqliteDAO

    return LaminarServer(dao=SqliteDAO(path), models=fast_bundle)


def _login(server, user="rs", register=False):
    credentials = {"userName": user, "password": "pw"}
    if register:
        server.dispatch(Request("POST", "/auth/register", credentials))
    return server.dispatch(Request("POST", "/auth/login", credentials)).body[
        "token"
    ]


def _v1_search(server, token, query_type, kind, k=4):
    body = {
        "query": "restart element 7 sums numbers",
        "queryType": query_type,
        "kind": kind,
        "k": k,
    }
    reply = server.dispatch(
        Request("POST", "/v1/registry/rs/search", body, token=token)
    )
    assert reply.status == 200, reply.body
    assert reply.body["hits"]
    return reply.body["hits"]


def _register(server, token, user, pes, workflows):
    items = [
        {
            "peName": f"{user}{i}",
            "peCode": f"def {user}{i}(a, b): return a + b * {i}",
            "description": f"restart element {i} sums numbers",
        }
        for i in range(pes)
    ]
    reply = server.dispatch(
        Request(
            "POST", f"/v1/registry/{user}/pes:bulk", {"items": items},
            token=token,
        )
    )
    assert reply.status == 201, reply.body
    for i in range(workflows):
        reply = server.dispatch(
            Request(
                "POST",
                f"/registry/{user}/workflow/add",
                {
                    "entryPoint": f"{user}Flow{i}",
                    "workflowCode": f"def {user}Flow{i}(): return {i}",
                    "description": f"restart workflow {i} sums numbers",
                },
                token=token,
            )
        )
        assert reply.status == 201, reply.body


@pytest.fixture()
def served_file(tmp_path, fast_bundle):
    """A file registry a server wrote, searched and then shut down.

    User ``rs`` holds 30 PEs and 6 workflows and was searched with every
    ``(queryType, kind)``; then user ``rt`` registered (a write that
    leaves ``rs``'s shards untouched).  Returns the path, every search's
    hits and the index's slabs as they stood.
    """
    path = tmp_path / "server.db"
    server = _file_server(path, fast_bundle)
    token = _login(server, register=True)
    _register(server, token, "rs", 30, 6)
    hits = {
        (query_type, kind): _v1_search(server, token, query_type, kind)
        for query_type in QUERY_TYPES
        for kind in SEARCH_KINDS
    }
    _register(server, _login(server, "rt", register=True), "rt", 3, 1)
    slabs = index_shards(server.index)
    server.registry.dao.close()
    return path, hits, slabs


class TestServerRestart:
    """A restarted server over the same file serves what the server
    before it served: the exact index refills from the record rows
    bitwise, so every ranking is unchanged."""

    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    @pytest.mark.parametrize("query_type", QUERY_TYPES)
    def test_restarted_server_serves_the_same_hits(
        self, served_file, fast_bundle, query_type, kind
    ):
        path, hits, _slabs = served_file
        restarted = _file_server(path, fast_bundle)
        got = _v1_search(restarted, _login(restarted), query_type, kind)
        assert got == hits[(query_type, kind)]

    def test_restarted_index_holds_the_slabs_bitwise(
        self, served_file, fast_bundle
    ):
        path, _hits, slabs = served_file
        restarted = _file_server(path, fast_bundle)
        reloaded = index_shards(restarted.index)
        assert set(reloaded) == set(slabs)
        for key, (ids, matrix) in slabs.items():
            assert reloaded[key][0].tolist() == ids.tolist()
            assert reloaded[key][1].tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("query_type", QUERY_TYPES)
    def test_search_writes_nothing(
        self, served_file, fast_bundle, query_type
    ):
        """Nothing reaches the file: the first text search fills the
        text index, which lives in memory."""
        path = served_file[0]
        server = _file_server(path, fast_bundle)
        token = _login(server)  # a login writes its session first
        on_disk = _file_bytes(path)
        _v1_search(server, token, query_type, "both", k=None)
        assert _file_bytes(path) == on_disk

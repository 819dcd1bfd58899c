"""The v1 write surface: envelopes, idempotency, conditional writes,
bulk registration, legacy adapter parity and the router's 405 contract."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.net.transport import Request
from repro.server import LaminarServer


@pytest.fixture()
def server(fast_bundle):
    return LaminarServer(models=fast_bundle)


@pytest.fixture()
def token(server):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "zz46", "password": "pw"})
    )
    response = server.dispatch(
        Request("POST", "/auth/login", {"userName": "zz46", "password": "pw"})
    )
    return response.body["token"]


def put_pe(server, token, name, body=None, user="zz46"):
    payload = {"peCode": f"def {name}(): pass"}
    payload.update(body or {})
    return server.dispatch(
        Request(
            "PUT", f"/v1/registry/{user}/pes/{name}", payload, token=token
        )
    )


class TestWriteEnvelopes:
    def test_register_defaults_and_envelope_shape(self, server, token):
        response = put_pe(server, token, "alpha", {"description": "first"})
        assert response.status == 201, response.body
        body = response.body
        assert body["apiVersion"] == "v1"
        assert body["op"] == "register" and body["kind"] == "pe"
        assert body["count"] == 1 and not body["removed"]
        item = body["items"][0]
        assert item["peName"] == "alpha"
        assert item["revision"] == 1 and item["created"] is True
        assert body["registryVersion"] == 1
        assert body["idempotencyKey"] is None

    @pytest.mark.parametrize(
        "patch",
        [
            {"peNmae": "typo"},
            {"peCode": ""},
            {"peCode": 7},
            {"peImports": "numpy"},
            {"peImports": [1]},
            {"descEmbedding": []},
            {"descEmbedding": ["a"]},
            {"codeEmbedding": "x"},
            {"ifVersion": -1},
            {"ifVersion": True},
            {"ifVersion": "latest"},
            {"idempotencyKey": ""},
            {"idempotencyKey": 7},
            {"idempotencyKey": "k" * 201},
        ],
    )
    def test_malformed_register_fields_are_400(self, server, token, patch):
        body = {"peCode": "def a(): pass", **patch}
        response = server.dispatch(
            Request("PUT", "/v1/registry/zz46/pes/a", body, token=token)
        )
        assert response.status == 400, (patch, response.body)

    def test_body_name_must_agree_with_path(self, server, token):
        response = put_pe(server, token, "a", {"peName": "b"})
        assert response.status == 400
        assert "disagrees with the path" in response.body["message"]
        # agreeing body name is fine
        assert put_pe(server, token, "a", {"peName": "a"}).status == 201

    def test_workflow_register_and_validation(self, server, token):
        response = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/workflows/wf1",
                {"workflowCode": "def wf1(): pass", "peIds": [1, "2"]},
                token=token,
            )
        )
        assert response.status == 400  # peIds must be integers
        response = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/workflows/wf1",
                {"workflowCode": "def wf1(): pass", "description": "flow"},
                token=token,
            )
        )
        assert response.status == 201
        item = response.body["items"][0]
        assert item["entryPoint"] == "wf1" and item["created"] is True

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"items": []},
            {"items": "nope"},
            {"items": [{"peCode": "x"}]},  # peName required per item
            {"items": [{"peName": "a", "peCode": "x", "ifVersion": 1}]},
            {"items": [{"peName": "a", "peCode": "x", "idempotencyKey": "k"}]},
            {"items": [["not", "an", "object"]]},
            {"items": [{"peName": "a", "peCode": "x"}], "extra": 1},
        ],
    )
    def test_malformed_bulk_bodies_are_400(self, server, token, body):
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/pes:bulk", body, token=token)
        )
        assert response.status == 400, (body, response.body)

    def test_delete_unknown_field_is_400(self, server, token):
        put_pe(server, token, "victim")
        response = server.dispatch(
            Request(
                "DELETE",
                "/v1/registry/zz46/pes/victim",
                {"force": True},
                token=token,
            )
        )
        assert response.status == 400

    def test_auth_enforced_on_writes(self, server, token):
        response = server.dispatch(
            Request("PUT", "/v1/registry/zz46/pes/a", {"peCode": "x"})
        )
        assert response.status == 401


class TestConditionalWrites:
    def test_create_only_if_version_zero(self, server, token):
        assert put_pe(server, token, "cas", {"ifVersion": 0}).status == 201
        # the record now exists at revision 1: create-only must fail
        response = put_pe(
            server, token, "cas", {"peCode": "def cas(): v2", "ifVersion": 0}
        )
        assert response.status == 412
        assert response.body["error"] == "PreconditionFailed"

    def test_matching_revision_passes_and_bumps(self, server, token):
        put_pe(server, token, "rev")
        # same identity re-registered by the caller: no mutation, still
        # revision 1
        response = put_pe(server, token, "rev", {"ifVersion": 1})
        assert response.status == 200  # dedup: nothing created
        assert response.body["items"][0]["created"] is False
        assert response.body["items"][0]["revision"] == 1

    def test_owner_grant_bumps_revision(self, server, token):
        put_pe(server, token, "shared")
        server.dispatch(
            Request(
                "POST", "/auth/register", {"userName": "other", "password": "pw"}
            )
        )
        other = server.dispatch(
            Request(
                "POST", "/auth/login", {"userName": "other", "password": "pw"}
            )
        ).body["token"]
        response = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/other/pes/shared",
                {"peCode": "def shared(): pass"},
                token=other,
            )
        )
        assert response.status == 200
        item = response.body["items"][0]
        assert item["created"] is False and item["revision"] == 2
        assert sorted(item["owners"]) == [1, 2]

    def test_stale_if_version_leaves_registry_untouched(self, server, token):
        put_pe(server, token, "guard")
        before = server.registry.dao.mutation_counter()
        response = put_pe(
            server, token, "guard", {"peCode": "def guard(): v2", "ifVersion": 7}
        )
        assert response.status == 412
        assert server.registry.dao.mutation_counter() == before

    def test_delete_if_version(self, server, token):
        put_pe(server, token, "doomed")
        response = server.dispatch(
            Request(
                "DELETE",
                "/v1/registry/zz46/pes/doomed",
                {"ifVersion": 9},
                token=token,
            )
        )
        assert response.status == 412
        response = server.dispatch(
            Request(
                "DELETE",
                "/v1/registry/zz46/pes/doomed",
                {"ifVersion": 1},
                token=token,
            )
        )
        assert response.status == 200 and response.body["removed"] is True
        # gone now
        response = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/doomed", {}, token=token)
        )
        assert response.status == 404

    def test_bulk_if_version_pins_mutation_counter(self, server, token):
        put_pe(server, token, "seed")
        counter = server.registry.dao.mutation_counter()
        stale = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/pes:bulk",
                {
                    "items": [{"peName": "b1", "peCode": "def b1(): pass"}],
                    "ifVersion": counter + 5,
                },
                token=token,
            )
        )
        assert stale.status == 412
        fresh = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/pes:bulk",
                {
                    "items": [{"peName": "b1", "peCode": "def b1(): pass"}],
                    "ifVersion": counter,
                },
                token=token,
            )
        )
        assert fresh.status == 201


class TestUpsert:
    """A v1 PUT with changed content supersedes the caller's name
    binding — it never leaves a stale record shadowing the new one."""

    def test_put_changed_content_replaces_the_name_binding(self, server, token):
        first = put_pe(server, token, "evolve", {"peCode": "def evolve(): v1"})
        old_id = first.body["items"][0]["peId"]
        second = put_pe(
            server, token, "evolve",
            {"peCode": "def evolve(): v2", "ifVersion": 1},
        )
        assert second.status == 201, second.body
        new_id = second.body["items"][0]["peId"]
        assert new_id != old_id
        # by-name reads resolve to the NEW content...
        read = server.dispatch(
            Request("GET", "/registry/zz46/pe/name/evolve", {}, token=token)
        )
        assert read.body["peId"] == new_id
        assert read.body["peCode"] == "def evolve(): v2"
        # ...and the superseded record is gone (sole owner)
        stale = server.dispatch(
            Request("GET", f"/registry/zz46/pe/id/{old_id}", {}, token=token)
        )
        assert stale.status == 404
        # delete-by-name removes the record the PUT stored
        server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/evolve", {}, token=token)
        )
        assert (
            server.dispatch(
                Request("GET", "/registry/zz46/pe/name/evolve", {}, token=token)
            ).status
            == 404
        )

    def test_put_never_rewrites_another_tenants_record(self, server, token):
        put_pe(server, token, "joint", {"peCode": "def joint(): shared"})
        server.dispatch(
            Request(
                "POST", "/auth/register", {"userName": "b", "password": "pw"}
            )
        )
        other = server.dispatch(
            Request("POST", "/auth/login", {"userName": "b", "password": "pw"})
        ).body["token"]
        joined = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/b/pes/joint",
                {"peCode": "def joint(): shared"},
                token=other,
            )
        )
        shared_id = joined.body["items"][0]["peId"]
        # user b rewrites their binding; zz46's record must survive
        forked = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/b/pes/joint",
                {"peCode": "def joint(): mine"},
                token=other,
            )
        )
        assert forked.status == 201
        assert forked.body["items"][0]["peId"] != shared_id
        original = server.dispatch(
            Request("GET", "/registry/zz46/pe/name/joint", {}, token=token)
        )
        assert original.status == 200
        assert original.body["peId"] == shared_id
        assert original.body["peCode"] == "def joint(): shared"
        assert original.body["owners"] == [1]

    def test_metadata_only_put_revises_in_place(self, server, token):
        """Same code + new description is an in-place revision — never a
        silently discarded no-op."""
        first = put_pe(
            server, token, "meta",
            {"peCode": "def meta(): pass", "description": "first words"},
        )
        pe_id = first.body["items"][0]["peId"]
        second = put_pe(
            server, token, "meta",
            {"peCode": "def meta(): pass", "description": "second words"},
        )
        assert second.status == 200, second.body
        item = second.body["items"][0]
        assert item["peId"] == pe_id  # id stable: same identity
        assert item["created"] is False
        assert item["revision"] == 2  # bumped
        assert item["description"] == "second words"
        read = server.dispatch(
            Request("GET", "/registry/zz46/pe/name/meta", {}, token=token)
        )
        assert read.body["description"] == "second words"
        # a truly identical PUT is still the no-op (no revision bump)
        third = put_pe(
            server, token, "meta",
            {"peCode": "def meta(): pass", "description": "second words"},
        )
        assert third.body["items"][0]["revision"] == 2

    def test_legacy_add_keeps_the_historical_fork_behaviour(self, server, token):
        """POST /pe/add never upserts: same name + different code stores
        a second record, exactly like the seed."""
        server.dispatch(
            Request(
                "POST",
                "/registry/zz46/pe/add",
                {"peName": "forked", "peCode": "def forked(): v1"},
                token=token,
            )
        )
        server.dispatch(
            Request(
                "POST",
                "/registry/zz46/pe/add",
                {"peName": "forked", "peCode": "def forked(): v2"},
                token=token,
            )
        )
        listing = server.dispatch(
            Request("GET", "/registry/zz46/pe/all", {}, token=token)
        )
        names = [pe["peName"] for pe in listing.body["pes"]]
        assert names.count("forked") == 2


class TestIdempotency:
    def test_replay_returns_stored_response_verbatim(self, server, token):
        body = {
            "peCode": "def idem(): pass",
            "description": "retry me",
            "idempotencyKey": "key-1",
        }
        first = put_pe(server, token, "idem", body)
        assert first.status == 201
        counter = server.registry.dao.mutation_counter()
        replay = put_pe(server, token, "idem", body)
        assert replay.status == first.status
        assert replay.body == first.body  # verbatim, including registryVersion
        assert replay.headers.get("Idempotent-Replay") == "true"
        # observable no-op: the registry mutation counter did not move
        assert server.registry.dao.mutation_counter() == counter

    def test_fingerprint_mismatch_is_409(self, server, token):
        body = {"peCode": "def fp(): pass", "idempotencyKey": "key-2"}
        assert put_pe(server, token, "fp", body).status == 201
        conflict = put_pe(
            server,
            token,
            "fp",
            {"peCode": "def fp(): DIFFERENT", "idempotencyKey": "key-2"},
        )
        assert conflict.status == 409
        assert conflict.body["error"] == "IdempotencyConflict"

    def test_keys_are_scoped_per_user(self, server, token):
        body = {"peCode": "def scoped(): pass", "idempotencyKey": "shared-key"}
        assert put_pe(server, token, "scoped", body).status == 201
        server.dispatch(
            Request(
                "POST", "/auth/register", {"userName": "peer", "password": "pw"}
            )
        )
        peer = server.dispatch(
            Request("POST", "/auth/login", {"userName": "peer", "password": "pw"})
        ).body["token"]
        # same key, different user: a fresh write, not a replay/conflict
        response = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/peer/pes/scoped",
                dict(body),
                token=peer,
            )
        )
        assert response.status == 200  # §3.1 dedup grants ownership
        assert response.headers.get("Idempotent-Replay") is None

    def test_delete_replay_after_removal(self, server, token):
        put_pe(server, token, "ghost")
        body = {"idempotencyKey": "del-key"}
        first = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/ghost", body, token=token)
        )
        assert first.status == 200
        counter = server.registry.dao.mutation_counter()
        replay = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/ghost", body, token=token)
        )
        # the record is long gone, but the receipt answers: no 404
        assert replay.status == 200 and replay.body == first.body
        assert server.registry.dao.mutation_counter() == counter

    def test_errors_are_not_recorded_as_receipts(self, server, token):
        body = {
            "peCode": "def late(): pass",
            "ifVersion": 3,
            "idempotencyKey": "retry-me",
        }
        assert put_pe(server, token, "late", body).status == 412
        # the same key retried with a now-satisfiable condition succeeds
        body["ifVersion"] = 0
        assert put_pe(server, token, "late", body).status == 201

    def test_concurrent_replays_write_once(self, server, token):
        """N threads racing one idempotency key: exactly one registry
        write, and every thread observes the identical stored response."""
        body = {
            "peCode": "def race(): pass",
            "description": "raced",
            "idempotencyKey": "race-key",
        }
        before = server.registry.dao.mutation_counter()
        results: list = [None] * 8
        barrier = threading.Barrier(len(results))

        def attempt(slot):
            barrier.wait()
            results[slot] = put_pe(server, token, "race", dict(body))

        threads = [
            threading.Thread(target=attempt, args=(slot,))
            for slot in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is not None for r in results)
        assert {r.status for r in results} == {201}
        bodies = [json.dumps(r.body, sort_keys=True) for r in results]
        assert len(set(bodies)) == 1  # identical stored responses
        # exactly one write: a single PE insert is one mutation
        assert server.registry.dao.mutation_counter() == before + 1

    def test_concurrent_cas_races_have_one_winner(self, server, token):
        """N create-only writers on one name: one 201, the rest 412."""
        results: list = [None] * 8
        barrier = threading.Barrier(len(results))

        def attempt(slot):
            barrier.wait()
            results[slot] = put_pe(
                server,
                token,
                "cas-race",
                {"peCode": f"def cas_race(): return {slot}", "ifVersion": 0},
            )

        threads = [
            threading.Thread(target=attempt, args=(slot,))
            for slot in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = sorted(r.status for r in results)
        assert statuses == [201] + [412] * (len(results) - 1)


class TestBulkRegister:
    def test_bulk_lands_all_items_in_one_mutation(self, server, token):
        counter = server.registry.dao.mutation_counter()
        items = [
            {"peName": f"bulk{i}", "peCode": f"def bulk{i}(): pass",
             "description": f"bulk element {i}"}
            for i in range(20)
        ]
        response = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/pes:bulk",
                {"items": items},
                token=token,
            )
        )
        assert response.status == 201, response.body
        assert response.body["count"] == 20
        assert all(item["created"] for item in response.body["items"])
        # one executemany transaction == ONE mutation event
        assert server.registry.dao.mutation_counter() == counter + 1
        # the index serves the new rows immediately
        search = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {"query": "bulk element", "queryType": "semantic",
                 "kind": "pe", "k": 5},
                token=token,
            )
        )
        assert search.status == 200 and len(search.body["hits"]) == 5

    def test_bulk_dedups_against_registry_and_within_batch(self, server, token):
        put_pe(server, token, "already", {"description": "pre-existing"})
        items = [
            {"peName": "already", "peCode": "def already(): pass"},
            {"peName": "twin", "peCode": "def twin(): pass"},
            {"peName": "twin", "peCode": "def twin(): pass"},
        ]
        response = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/pes:bulk",
                {"items": items},
                token=token,
            )
        )
        assert response.status == 201
        flags = [item["created"] for item in response.body["items"]]
        assert flags == [False, True, False]
        ids = [item["peId"] for item in response.body["items"]]
        assert ids[1] == ids[2]  # within-batch dedup resolved to one record
        # regression: an in-batch duplicate must never index a phantom
        # id-0 row (which would fail shard-membership forever after)
        from repro.search.index import KIND_CODE, KIND_DESC
        from tests.helpers import index_shards

        owned = server.registry.dao.pe_ids_owned_by(1)
        shards = index_shards(server.index)
        assert shards[(1, KIND_DESC)][0].tolist() == owned
        assert shards[(1, KIND_CODE)][0].tolist() == owned

    def test_bulk_replay_is_a_no_op(self, server, token):
        items = [
            {"peName": f"once{i}", "peCode": f"def once{i}(): pass"}
            for i in range(5)
        ]
        body = {"items": items, "idempotencyKey": "bulk-key"}
        first = server.dispatch(
            Request("POST", "/v1/registry/zz46/pes:bulk", body, token=token)
        )
        assert first.status == 201
        counter = server.registry.dao.mutation_counter()
        replay = server.dispatch(
            Request("POST", "/v1/registry/zz46/pes:bulk", body, token=token)
        )
        assert replay.body == first.body
        assert server.registry.dao.mutation_counter() == counter


#: one write per route that takes a client vector, per vector field:
#: (method, path, body) with a two-wide vector in ``field``
_WIDE = [2.0, 1.0]
WRONG_WIDTH_WRITES = {
    "put-pe-code": ("PUT", "/v1/registry/zz46/pes/wide", {
        "peCode": "def wide(): pass", "codeEmbedding": _WIDE}),
    "put-pe-desc": ("PUT", "/v1/registry/zz46/pes/wide", {
        "peCode": "def wide(): pass", "descEmbedding": _WIDE}),
    "put-workflow-desc": ("PUT", "/v1/registry/zz46/workflows/wide", {
        "workflowCode": "graph = wide()", "descEmbedding": _WIDE}),
    "bulk-pe-code": ("POST", "/v1/registry/zz46/pes:bulk", {"items": [
        {"peName": "ok", "peCode": "def ok(): pass"},
        {"peName": "wide", "peCode": "def wide(): pass",
         "codeEmbedding": _WIDE}]}),
    "bulk-pe-desc": ("POST", "/v1/registry/zz46/pes:bulk", {"items": [
        {"peName": "wide", "peCode": "def wide(): pass",
         "descEmbedding": _WIDE}]}),
    "bulk-workflow-desc": ("POST", "/v1/registry/zz46/workflows:bulk", {
        "items": [{"entryPoint": "wide", "workflowCode": "graph = wide()",
                   "descEmbedding": _WIDE}]}),
    "legacy-pe-code": ("POST", "/registry/zz46/pe/add", {
        "peName": "wide", "peCode": "def wide(): pass",
        "codeEmbedding": _WIDE}),
    "legacy-pe-desc": ("POST", "/registry/zz46/pe/add", {
        "peName": "wide", "peCode": "def wide(): pass",
        "descEmbedding": _WIDE}),
    "legacy-workflow-desc": ("POST", "/registry/zz46/workflow/add", {
        "entryPoint": "wide", "workflowCode": "graph = wide()",
        "descEmbedding": _WIDE}),
}


class TestClientVectorWidth:
    """A client vector as wide as the model that ranks its shard, or a
    400 naming the field before anything is stored: a vector of
    another width would poison the tenant's shard (every later write a
    400, code search a 500) and, on a file, every later open."""

    @pytest.mark.parametrize("shard_exists", [False, True])
    @pytest.mark.parametrize("case", sorted(WRONG_WIDTH_WRITES))
    def test_wrong_width_is_a_400_and_stores_nothing(
        self, fast_bundle, tmp_path, case, shard_exists
    ):
        from repro.registry.dao import SqliteDAO

        path = tmp_path / "wide.db"
        server = LaminarServer(SqliteDAO(path), models=fast_bundle)
        creds = {"userName": "zz46", "password": "pw"}
        server.dispatch(Request("POST", "/auth/register", creds))
        token = server.dispatch(
            Request("POST", "/auth/login", creds)
        ).body["token"]
        if shard_exists:
            assert put_pe(server, token, "first").status == 201
            first_flow = server.dispatch(Request(
                "PUT", "/v1/registry/zz46/workflows/firstFlow",
                {"workflowCode": "graph = first()"}, token=token,
            ))
            assert first_flow.status == 201
        dao = server.registry.dao
        user_id = server.registry.get_user("zz46").user_id
        before = (dao.pe_ids_owned_by(user_id), dao.workflow_ids_owned_by(user_id))
        counter = dao.mutation_counter()

        method, path_, body = WRONG_WIDTH_WRITES[case]
        response = server.dispatch(Request(method, path_, body, token=token))
        field = "codeEmbedding" if case.endswith("-code") else "descEmbedding"
        assert response.status == 400, response.body
        assert response.body["message"] == (
            f"{field} must have 2048 dimensions, got 2"
        )
        assert (
            dao.pe_ids_owned_by(user_id), dao.workflow_ids_owned_by(user_id)
        ) == before
        assert dao.mutation_counter() == counter

        assert put_pe(server, token, "next").status == 201
        for query_type in ("semantic", "code", "hybrid", "text"):
            search = server.dispatch(Request(
                "POST", "/v1/registry/zz46/search",
                {"query": "next", "queryType": query_type}, token=token,
            ))
            assert search.status == 200, (query_type, search.body)
        dao.close()

        reopened = LaminarServer(SqliteDAO(path), models=fast_bundle)
        token = reopened.dispatch(
            Request("POST", "/auth/login", creds)
        ).body["token"]
        search = reopened.dispatch(Request(
            "POST", "/v1/registry/zz46/search",
            {"query": "next", "queryType": "code"}, token=token,
        ))
        assert search.status == 200, search.body
        reopened.registry.dao.close()


def _swap_vector(value, vector):
    """``value`` with every two-wide client vector replaced by ``vector``."""
    if value == _WIDE:
        return vector
    if isinstance(value, dict):
        return {key: _swap_vector(item, vector) for key, item in value.items()}
    if isinstance(value, list):
        return [_swap_vector(item, vector) for item in value]
    return value


#: entries ``json.loads`` reads that are not finite in float32: ``NaN``,
#: ``Infinity``, a double past float32's range and an integer past a
#: double's (``1e400`` without the fraction)
NON_FINITE = {
    "nan": float("nan"),
    "infinity": float("-inf"),
    "1e300": 1e300,
    "int-1e400": 10**400,
}


def _non_finite_vector(entry):
    vector = [0.25] * 2048
    vector[7] = NON_FINITE[entry]
    return vector


class TestNonFiniteClientVectors:
    """A client vector with an entry that is not finite in float32 is a
    400 naming its field, before any model work or write: stored, it
    made every later semantic, code and hybrid score on the tenant
    ``NaN``, which is not JSON."""

    @pytest.mark.parametrize("entry", sorted(NON_FINITE))
    @pytest.mark.parametrize("case", sorted(WRONG_WIDTH_WRITES))
    def test_a_write_is_a_400_and_stores_nothing(
        self, server, token, case, entry
    ):
        method, path, body = WRONG_WIDTH_WRITES[case]
        body = _swap_vector(body, _non_finite_vector(entry))
        dao = server.registry.dao
        counter = dao.mutation_counter()
        response = server.dispatch(Request(method, path, body, token=token))
        field = "codeEmbedding" if case.endswith("-code") else "descEmbedding"
        assert response.status == 400, response.body
        assert response.body["message"].startswith(f"{field} must hold")
        assert field in response.body["params"]
        assert dao.mutation_counter() == counter == 0

        assert put_pe(server, token, "next").status == 201
        for query_type in ("semantic", "code", "hybrid"):
            search = server.dispatch(Request(
                "POST", "/v1/registry/zz46/search",
                {"query": "next", "queryType": query_type}, token=token,
            ))
            assert search.status == 200, (query_type, search.body)
            json.dumps(search.body, allow_nan=False)  # every score is JSON

    @pytest.mark.parametrize("entry", sorted(NON_FINITE))
    @pytest.mark.parametrize(
        "path",
        ["/v1/registry/zz46/search", "/registry/zz46/search/next/type/pe"],
        ids=["v1", "table-3"],
    )
    def test_a_query_embedding_is_a_400(self, server, token, path, entry):
        assert put_pe(server, token, "next").status == 201
        body = {"queryType": "semantic", "queryEmbedding": _non_finite_vector(entry)}
        if path.startswith("/v1/"):
            request = Request("POST", path, {**body, "query": "next"}, token=token)
        else:
            request = Request("GET", path, body, token=token)
        response = server.dispatch(request)
        assert response.status == 400, response.body
        assert response.body["message"].startswith("queryEmbedding must hold")


class TestLegacyAdapterParity:
    """The Table-3 write routes must stay byte-identical to the seed."""

    def test_legacy_pe_register_body_shape(self, server, token):
        response = server.dispatch(
            Request(
                "POST",
                "/registry/zz46/pe/add",
                {"peName": "legacy", "peCode": "def legacy(): pass",
                 "description": "old style"},
                token=token,
            )
        )
        assert response.status == 201
        # the historical body: the stored record, no envelope, no
        # revision/created keys
        assert set(response.body) == {
            "peId", "peName", "description", "descriptionOrigin",
            "peCode", "peSource", "peImports", "owners",
        }
        assert response.body["peName"] == "legacy"
        assert response.body["owners"] == [1]

    def test_legacy_workflow_register_body_shape(self, server, token):
        response = server.dispatch(
            Request(
                "POST",
                "/registry/zz46/workflow/add",
                {"entryPoint": "legacyWf", "workflowCode": "def w(): pass"},
                token=token,
            )
        )
        assert response.status == 201
        assert set(response.body) == {
            "workflowId", "workflowName", "entryPoint", "description",
            "workflowCode", "workflowSource", "peIds", "owners",
        }

    @pytest.mark.parametrize("kind", ["pe", "workflow"])
    def test_legacy_and_v1_register_store_identical_records(
        self, server, token, kind
    ):
        if kind == "pe":
            legacy = server.dispatch(
                Request(
                    "POST",
                    "/registry/zz46/pe/add",
                    {"peName": "same", "peCode": "def same(): pass",
                     "description": "via legacy"},
                    token=token,
                )
            )
            v1 = server.dispatch(
                Request(
                    "PUT",
                    "/v1/registry/zz46/pes/same",
                    {"peCode": "def same(): pass", "description": "via legacy"},
                    token=token,
                )
            )
            item = v1.body["items"][0]
        else:
            legacy = server.dispatch(
                Request(
                    "POST",
                    "/registry/zz46/workflow/add",
                    {"entryPoint": "sameWf", "workflowCode": "def s(): pass",
                     "description": "via legacy"},
                    token=token,
                )
            )
            v1 = server.dispatch(
                Request(
                    "PUT",
                    "/v1/registry/zz46/workflows/sameWf",
                    {"workflowCode": "def s(): pass",
                     "description": "via legacy"},
                    token=token,
                )
            )
            item = v1.body["items"][0]
        assert legacy.status == 201
        # the v1 PUT resolves onto the SAME stored record (dedup): every
        # legacy body field reappears verbatim inside the v1 item
        assert v1.status == 200 and item["created"] is False
        for key, value in legacy.body.items():
            assert item[key] == value

    @pytest.mark.parametrize(
        "kind,selector",
        [("pe", "id"), ("pe", "name"), ("workflow", "id"), ("workflow", "name")],
    )
    def test_legacy_remove_bodies_and_errors(self, server, token, kind, selector):
        if kind == "pe":
            created = server.dispatch(
                Request(
                    "POST",
                    "/registry/zz46/pe/add",
                    {"peName": "rm", "peCode": "def rm(): pass"},
                    token=token,
                )
            )
            target = created.body["peId"] if selector == "id" else "rm"
            path = f"/registry/zz46/pe/remove/{selector}/{target}"
        else:
            created = server.dispatch(
                Request(
                    "POST",
                    "/registry/zz46/workflow/add",
                    {"entryPoint": "rmWf", "workflowCode": "def r(): pass"},
                    token=token,
                )
            )
            target = (
                created.body["workflowId"] if selector == "id" else "rmWf"
            )
            path = f"/registry/zz46/workflow/remove/{selector}/{target}"
        response = server.dispatch(Request("DELETE", path, {}, token=token))
        assert response.status == 200
        assert response.body == {"removed": True}  # byte-identical body
        # removing again: the historical 404 envelope
        missing = server.dispatch(Request("DELETE", path, {}, token=token))
        assert missing.status == 404
        assert missing.body["error"] == "NotFoundError"
        assert "not found for user" in missing.body["message"]

    def test_legacy_validation_envelopes_unchanged(self, server, token):
        no_name = server.dispatch(
            Request("POST", "/registry/zz46/pe/add", {"peCode": "x"}, token=token)
        )
        assert no_name.status == 400
        assert no_name.body["message"] == "peName is required"
        no_code = server.dispatch(
            Request("POST", "/registry/zz46/pe/add", {"peName": "x"}, token=token)
        )
        assert no_code.status == 400
        assert no_code.body["message"] == "peCode is required"


class TestDeleteBackReferences:
    def test_a_deleted_pe_leaves_every_workflow_listing(self, server, token):
        # peIds may repeat an id: deleting the PE drops every occurrence
        # and moves the workflow's revision on once
        assert put_pe(server, token, "a").body["items"][0]["peId"] == 1
        assert put_pe(server, token, "b").body["items"][0]["peId"] == 2
        response = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/workflows/w",
                {"workflowCode": "graph = g()", "peIds": [1, 2, 1]},
                token=token,
            )
        )
        assert response.status == 201, response.body
        workflow_id = response.body["items"][0]["workflowId"]
        response = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/a", {}, token=token)
        )
        assert response.status == 200, response.body
        item = server.dispatch(
            Request("GET", "/v1/registry/zz46/workflows/w", token=token)
        ).body["item"]
        assert (item["peIds"], item["revision"]) == ([2], 2)
        rows = server.registry.dao._conn.execute(
            "SELECT workflow_id, pe_id FROM workflow_pes"
        ).fetchall()
        assert [tuple(row) for row in rows] == [(workflow_id, 2)]


class TestMethodNotAllowed:
    @pytest.mark.parametrize(
        "method,path,expected_allow",
        [
            ("DELETE", "/registry/zz46/pe/all", "GET"),
            ("GET", "/registry/zz46/pe/add", "POST"),
            ("POST", "/v1/registry/zz46/pes/thing", "DELETE, GET, PUT"),
            ("PUT", "/v1/registry/zz46/search", "POST"),
            ("DELETE", "/v1/users", "GET"),
        ],
    )
    def test_405_with_allow_header(self, server, token, method, path, expected_allow):
        response = server.dispatch(Request(method, path, {}, token=token))
        assert response.status == 405, response.body
        assert response.body["error"] == "MethodNotAllowed"
        assert response.headers["Allow"] == expected_allow

    def test_unknown_path_is_still_404(self, server, token):
        response = server.dispatch(
            Request("GET", "/registry/zz46/nothing/here", {}, token=token)
        )
        assert response.status == 404
        assert response.body["error"] == "NotFoundError"


class TestOverHttp:
    def test_idempotency_key_header_and_allow_header(self, fast_bundle):
        from repro.server.http import serve_http

        server = LaminarServer(models=fast_bundle)
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "h", "password": "p"})
        )
        token = server.dispatch(
            Request("POST", "/auth/login", {"userName": "h", "password": "p"})
        ).body["token"]
        with serve_http(server) as handle:
            def call(method, path, body, headers=None):
                request = urllib.request.Request(
                    handle.url + path,
                    data=json.dumps(body).encode(),
                    method=method,
                    headers={
                        "Content-Type": "application/json",
                        "Authorization": f"Bearer {token}",
                        **(headers or {}),
                    },
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as reply:
                        return reply.status, json.loads(reply.read()), reply.headers
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read()), exc.headers

            body = {"peCode": "def wired(): pass"}
            status, first, _ = call(
                "PUT", "/v1/registry/h/pes/wired", body,
                {"Idempotency-Key": "http-key"},
            )
            assert status == 201
            assert first["idempotencyKey"] == "http-key"
            status, replay, headers = call(
                "PUT", "/v1/registry/h/pes/wired", body,
                {"Idempotency-Key": "http-key"},
            )
            assert status == 201 and replay == first
            assert headers.get("Idempotent-Replay") == "true"
            # wrong method: a real HTTP 405 with a real Allow header
            status, envelope, headers = call(
                "POST", "/v1/registry/h/pes/wired", {}
            )
            assert status == 405
            assert envelope["error"] == "MethodNotAllowed"
            assert headers.get("Allow") == "DELETE, GET, PUT"

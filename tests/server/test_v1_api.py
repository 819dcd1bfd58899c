"""The versioned /v1 surface: envelopes, cursors, legacy parity."""

import base64
import json
import threading

import pytest

from repro.net.transport import Request
from repro.server import LaminarServer
from repro.server.api import quote_segment
from repro.server.schema import INT64_MAX, decode_cursor, encode_cursor
from tests.server.test_api import (
    ADD_TEN,
    IS_PRIME,
    PRIME_FLOW,
    PRIME_SIEVE,
    TEN_FLOW,
    assert_served,
    seed_read_registry,
)


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


def add_pe(server, token, name, description, user="zz46"):
    response = server.dispatch(
        Request(
            "POST",
            f"/registry/{user}/pe/add",
            {
                "peName": name,
                "peCode": f"def {name}(): pass",
                "description": description,
            },
            token=token,
        )
    )
    assert response.status == 201, response.body
    return response.body["peId"]


def add_workflow(server, token, entry, description, user="zz46"):
    response = server.dispatch(
        Request(
            "POST",
            f"/registry/{user}/workflow/add",
            {
                "entryPoint": entry,
                "workflowCode": f"def {entry}(): pass",
                "description": description,
            },
            token=token,
        )
    )
    assert response.status == 201, response.body
    return response.body["workflowId"]


class TestCursorPrimitives:
    def test_round_trip(self):
        cursor = encode_cursor("pes:1", 42)
        assert decode_cursor(cursor, "pes:1") == 42

    def test_scope_mismatch_rejected(self):
        from repro.errors import ValidationError

        cursor = encode_cursor("pes:1", 42)
        with pytest.raises(ValidationError, match="invalid cursor"):
            decode_cursor(cursor, "workflows:1")

    def test_garbage_rejected(self):
        from repro.errors import ValidationError

        for garbage in ("", "v1.!!!", "not-a-cursor", "v1." + "A" * 5):
            with pytest.raises(ValidationError, match="invalid cursor"):
                decode_cursor(garbage, "pes:1")


class TestEnvelopeValidation:
    def test_unknown_field_is_400(self, server, token):
        response = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {"query": "x", "qureyType": "text"},
                token=token,
            )
        )
        assert response.status == 400
        assert "unknown field" in response.body["message"]
        # params values render repr()'d in the §3.2.5 envelope
        assert "qureyType" in response.body["params"]["unknownFields"]

    def test_missing_query_is_400(self, server, token):
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", {}, token=token)
        )
        assert response.status == 400
        assert "query is required" in response.body["message"]

    def test_defaults_are_explicit_in_response(self, server, token):
        response = server.dispatch(
            Request(
                "POST", "/v1/registry/zz46/search", {"query": "x"}, token=token
            )
        )
        assert response.status == 200
        body = response.body
        assert body["apiVersion"] == "v1"
        assert body["kind"] == "both"
        assert body["queryType"] == "text"
        assert body["backend"] == "exact"
        assert body["k"] is None
        assert body["nextCursor"] is None

    @pytest.mark.parametrize(
        "patch",
        [
            {"kind": "everything"},
            {"queryType": "fuzzy"},
            {"backend": "hnsw-someday"},
            {"k": 0},
            {"k": -3},
            {"k": "five"},
            {"k": True},
            {"limit": 0},
            {"limit": 100000},
            {"cursor": 7},
            {"queryEmbedding": "not-a-list"},
            {"queryEmbedding": []},
            {"queryEmbedding": ["a", "b"]},
            {"queryEmbedding": [1.0, True]},
            {"queryType": "semantic", "queryEmbedding": [1.0, 2.0]},
        ],
    )
    def test_malformed_fields_are_400(self, server, token, patch):
        body = {"query": "x", **patch}
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        )
        assert response.status == 400, (patch, response.body)

    @pytest.mark.parametrize("engine", ["ivf", "hnsw"])
    def test_deleted_engines_are_400(self, server, token, engine):
        body = {"query": "x", "queryType": "semantic", "backend": engine}
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        )
        assert response.status == 400, response.body
        assert response.body["details"] == "registered backends: exact"

    @pytest.mark.parametrize(
        "value",
        ["EXACT", "Exact", " exact", "exact ", "", "brute-force",
         None, 1, True, ["exact"], {"name": "exact"}],
    )
    def test_backend_must_be_the_string_exact(self, server, token, value):
        body = {"query": "x", "queryType": "semantic", "backend": value}
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        )
        assert response.status == 400, response.body
        assert response.body["message"] == f"unknown index backend {value!r}"
        assert response.body["details"] == "registered backends: exact"

    @pytest.mark.parametrize("query_type", ["text", "semantic", "code", "hybrid"])
    def test_explicit_exact_answers_like_the_default(
        self, server, token, query_type
    ):
        for i in range(6):
            add_pe(server, token, f"pe{i}", f"a prime checking element {i}")
        add_workflow(server, token, "wf0", "a prime checking workflow")
        body = {"query": "prime checking", "queryType": query_type, "k": 5}
        replies = [
            server.dispatch(
                Request("POST", "/v1/registry/zz46/search", patch, token=token)
            )
            for patch in (body, {**body, "backend": "exact"})
        ]
        assert [reply.status for reply in replies] == [200, 200]
        assert replies[0].body["hits"]
        assert replies[0].body == replies[1].body

    @pytest.mark.parametrize(
        "method,path,body,field",
        [
            ("GET", "/v1/registry/zz46/pes?limit=²", None, "limit"),
            ("GET", "/v1/registry/zz46/workflows?limit=٣", None, "limit"),
            ("GET", "/v1/registry/zz46/pes?limit=%2B2", None, "limit"),
            ("POST", "/v1/registry/zz46/search", {"query": "x", "limit": "²"},
             "limit"),
            ("DELETE", "/v1/registry/zz46/pes/pe0", {"ifVersion": "²"},
             "ifVersion"),
            ("PUT", "/v1/registry/zz46/pes/pe0",
             {"peCode": "def pe0(): pass", "ifVersion": "¹"}, "ifVersion"),
            ("POST", "/v1/registry/zz46/ingest",
             {"path": ".", "batchSize": "²"}, "batchSize"),
            ("GET", "/registry/zz46/pe/id/1_0", None, "'id'"),
            ("GET", "/registry/zz46/pe/id/+1", None, "'id'"),
            ("GET", "/registry/zz46/workflow/id/%201", None, "'id'"),
            ("GET", "/registry/zz46/workflow/pes/id/١", None, "'id'"),
            ("DELETE", "/registry/zz46/pe/remove/id/1_0", None, "'id'"),
            ("GET", "/v1/registry/zz46/workflows/1_0/pes", None, "'id'"),
            # wider than SQLite's integers, or than int() will convert
            ("GET", "/registry/zz46/pe/id/" + "9" * 19, None, "'id'"),
            ("GET", "/v1/registry/zz46/pes?limit=" + "9" * 5000, None, "limit"),
        ],
        ids=lambda value: value[:40] if isinstance(value, str) else None,
    )
    def test_only_ascii_digits_parse_as_an_integer(
        self, server, token, method, path, body, field
    ):
        """One parser turns text into an integer: ASCII digits only.
        ``str.isdigit`` takes ``"²"`` (a 500 once ``int`` refused it)
        and ``"٣"``; ``int`` alone takes ``"1_0"``, ``"+1"`` and
        ``" 1"``, and more digits than SQLite stores or ``int`` converts
        were a 500 — each a 400 naming the field."""
        add_pe(server, token, "pe0", "a prime checking element")
        add_workflow(server, token, "wf0", "a prime checking workflow")
        response = server.dispatch(Request(method, path, body, token=token))
        assert response.status == 400, response.body
        assert field in response.body["message"]

    def test_listing_unknown_field_is_400(self, server, token):
        response = server.dispatch(
            Request(
                "GET", "/v1/registry/zz46/pes", {"limt": 5}, token=token
            )
        )
        assert response.status == 400
        assert "unknown field" in response.body["message"]

    def test_auth_still_enforced(self, server, token):
        response = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes", {})
        )
        assert response.status == 401


class TestListingPagination:
    def test_walk_covers_everything_without_skips_or_dupes(
        self, server, token
    ):
        ids = [
            add_pe(server, token, f"pe{i:02d}", f"element number {i}")
            for i in range(23)
        ]
        seen = []
        cursor = None
        pages = 0
        while True:
            body = {"limit": 5}
            if cursor:
                body["cursor"] = cursor
            response = server.dispatch(
                Request("GET", "/v1/registry/zz46/pes", body, token=token)
            )
            assert response.status == 200, response.body
            page = response.body
            assert page["apiVersion"] == "v1"
            assert page["count"] == len(page["items"]) <= 5
            seen.extend(item["peId"] for item in page["items"])
            pages += 1
            cursor = page["nextCursor"]
            if cursor is None:
                break
        assert pages == 5
        assert seen == sorted(ids)  # ascending, complete, no dupes

    def test_concurrent_inserts_never_skip_or_duplicate(self, server, token):
        """Rows inserted mid-walk may appear on later pages but existing
        rows are seen exactly once (the cursor invariant)."""
        before = [
            add_pe(server, token, f"first{i}", f"early record {i}")
            for i in range(10)
        ]
        response = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes", {"limit": 4}, token=token)
        )
        page1 = response.body
        # a concurrent writer lands new records between the pages
        for i in range(3):
            add_pe(server, token, f"mid{i}", f"concurrent record {i}")
        seen = [item["peId"] for item in page1["items"]]
        cursor = page1["nextCursor"]
        while cursor is not None:
            response = server.dispatch(
                Request(
                    "GET",
                    "/v1/registry/zz46/pes",
                    {"limit": 4, "cursor": cursor},
                    token=token,
                )
            )
            seen.extend(item["peId"] for item in response.body["items"])
            cursor = response.body["nextCursor"]
        assert len(seen) == len(set(seen))  # no duplicates
        assert set(before) <= set(seen)  # no pre-existing row skipped

    def test_query_string_pagination(self, server, token):
        """Standard HTTP tooling paginates via ?limit=…&cursor=…."""
        ids = [
            add_pe(server, token, f"qs{i}", f"query string record {i}")
            for i in range(7)
        ]
        response = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes?limit=4", {}, token=token)
        )
        assert response.status == 200, response.body
        page = response.body
        assert page["count"] == 4 and page["limit"] == 4
        rest = server.dispatch(
            Request(
                "GET",
                f"/v1/registry/zz46/pes?limit=4&cursor={page['nextCursor']}",
                {},
                token=token,
            )
        ).body
        walked = [item["peId"] for item in page["items"]] + [
            item["peId"] for item in rest["items"]
        ]
        assert walked == sorted(ids)

    def test_body_wins_over_query_string(self, server, token):
        for i in range(5):
            add_pe(server, token, f"bw{i}", f"precedence record {i}")
        response = server.dispatch(
            Request(
                "GET",
                "/v1/registry/zz46/pes?limit=1",
                {"limit": 3},
                token=token,
            )
        )
        assert response.body["count"] == 3

    def test_a_list_body_beside_a_query_string_is_400(self, server, token):
        """The pairs fold into an object body only: a list reaches the
        listing's own check, as it does without a query string."""
        for path in ("/v1/users?limit=5", "/v1/registry/zz46/pes?limit=5"):
            for body in ([1], ["limit"]):
                response = server.dispatch(
                    Request("GET", path, body, token=token)
                )
                assert response.status == 400, (path, body, response.body)
                assert response.body["message"] == (
                    "listing request must be a JSON object, got list"
                )

    @pytest.mark.parametrize("body", [[], 0, False, ""], ids=repr)
    def test_a_falsy_body_that_is_no_object_is_400(self, server, token, body):
        """Only an absent body reads as ``{}``: an empty list, zero,
        false or an empty string is a 400 like ``[1]``, with a query
        string or without."""
        for path in (
            "/v1/users", "/v1/registry/zz46/pes",
            "/v1/users?limit=5", "/v1/registry/zz46/pes?limit=5",
        ):
            response = server.dispatch(Request("GET", path, body, token=token))
            assert response.status == 400, (path, body, response.body)
            assert response.body["message"] == (
                "listing request must be a JSON object, got "
                + type(body).__name__
            )
        for path in ("/v1/users", "/v1/users?limit=5"):
            response = server.dispatch(Request("GET", path, None, token=token))
            assert response.status == 200, response.body

    def test_invalid_cursor_is_400(self, server, token):
        response = server.dispatch(
            Request(
                "GET",
                "/v1/registry/zz46/pes",
                {"cursor": "v1.garbage"},
                token=token,
            )
        )
        assert response.status == 400
        assert "invalid cursor" in response.body["message"]

    def test_cross_listing_cursor_is_400(self, server, token):
        for i in range(3):
            add_pe(server, token, f"pe{i}", f"desc {i}")
            add_workflow(server, token, f"wf{i}", f"wf desc {i}")
        pes = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes", {"limit": 1}, token=token)
        ).body
        assert pes["nextCursor"]
        response = server.dispatch(
            Request(
                "GET",
                "/v1/registry/zz46/workflows",
                {"cursor": pes["nextCursor"]},
                token=token,
            )
        )
        assert response.status == 400

    def test_workflow_and_users_listings_paginate(self, server, token):
        for i in range(7):
            add_workflow(server, token, f"wf{i}", f"workflow number {i}")
        page = server.dispatch(
            Request(
                "GET", "/v1/registry/zz46/workflows", {"limit": 4}, token=token
            )
        ).body
        assert page["count"] == 4 and page["nextCursor"]
        rest = server.dispatch(
            Request(
                "GET",
                "/v1/registry/zz46/workflows",
                {"limit": 4, "cursor": page["nextCursor"]},
                token=token,
            )
        ).body
        assert rest["count"] == 3 and rest["nextCursor"] is None
        users = server.dispatch(Request("GET", "/v1/users", {"limit": 10}))
        assert users.status == 200 and users.body["count"] == 1

    def test_workflow_pes_listing(self, server, token):
        pe_ids = [
            add_pe(server, token, f"linked{i}", f"linked pe {i}")
            for i in range(5)
        ]
        wf_id = add_workflow(server, token, "main", "the workflow")
        for pe_id in pe_ids:
            response = server.dispatch(
                Request(
                    "PUT",
                    f"/registry/zz46/workflow/{wf_id}/pe/{pe_id}",
                    {},
                    token=token,
                )
            )
            assert response.status == 200
        page = server.dispatch(
            Request(
                "GET",
                f"/v1/registry/zz46/workflows/{wf_id}/pes",
                {"limit": 3},
                token=token,
            )
        ).body
        assert [item["peId"] for item in page["items"]] == sorted(pe_ids)[:3]
        rest = server.dispatch(
            Request(
                "GET",
                f"/v1/registry/zz46/workflows/{wf_id}/pes",
                {"limit": 3, "cursor": page["nextCursor"]},
                token=token,
            )
        ).body
        assert [item["peId"] for item in rest["items"]] == sorted(pe_ids)[3:]

    @pytest.mark.parametrize(
        "route",
        [
            "/v1/registry/bob/workflows/{id}/pes",
            "/registry/bob/workflow/pes/id/{id}",
            "/registry/bob/workflow/pes/name/flow",
        ],
    )
    def test_workflow_pes_lists_only_the_callers_pes(
        self, server, token, route
    ):
        """A workflow may name PEs its owner does not own; listing its
        PEs must not hand those records over (the privacy rule)."""
        alices = add_pe(server, token, "secret", "alice's private pe")
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "bob", "password": "pw"})
        )
        bob = server.dispatch(
            Request("POST", "/auth/login", {"userName": "bob", "password": "pw"})
        ).body["token"]
        own = add_pe(server, bob, "mine", "bob's pe", user="bob")
        put = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/bob/workflows/flow",
                {"workflowCode": "graph = g()", "peIds": [own, alices, own]},
                token=bob,
            )
        )
        assert put.status == 201, put.body
        wf_id = put.body["items"][0]["workflowId"]
        assert server.dispatch(
            Request("GET", f"/registry/bob/pe/id/{alices}", token=bob)
        ).status == 404
        response = server.dispatch(
            Request("GET", route.format(id=wf_id), {}, token=bob)
        )
        assert response.status == 200, response.body
        listed = response.body.get("items", response.body.get("pes"))
        assert alices not in [item["peId"] for item in listed]
        assert "alice's private pe" not in str(response.body)
        # v1 lists each owned PE once; the legacy routes keep link order
        # and duplicates
        expected = [own] if route.startswith("/v1/") else [own, own]
        assert [item["peId"] for item in listed] == expected

    def test_listing_items_carry_revision(self, server, token):
        """PE/workflow listing items expose the conditional-write
        counter, so a reader can feed ``ifVersion`` straight back."""
        add_pe(server, token, "pinme", "initial description")
        add_workflow(server, token, "wfpin", "workflow description")
        pes = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes", {}, token=token)
        ).body
        assert [item["revision"] for item in pes["items"]] == [1]
        wfs = server.dispatch(
            Request("GET", "/v1/registry/zz46/workflows", {}, token=token)
        ).body
        assert [item["revision"] for item in wfs["items"]] == [1]
        # a revision-bumping write (owner grant) shows up in the next
        # listing, so readers can pin ``ifVersion`` from the page alone
        server.dispatch(
            Request(
                "POST", "/auth/register", {"userName": "gr", "password": "pw"}
            )
        )
        other = server.dispatch(
            Request(
                "POST", "/auth/login", {"userName": "gr", "password": "pw"}
            )
        ).body["token"]
        grant = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/gr/pes/pinme",
                {"peCode": "def pinme(): pass"},
                token=other,
            )
        )
        assert grant.status == 200, grant.body
        after = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes", {}, token=token)
        ).body
        assert [item["revision"] for item in after["items"]] == [2]


class TestSearchEnvelope:
    def test_search_pagination_over_ranked_hits(self, server, token):
        for i in range(12):
            add_pe(server, token, f"prime{i}", f"prime helper number {i}")
        body = {
            "query": "prime helper",
            "queryType": "semantic",
            "kind": "pe",
            "limit": 5,
        }
        response = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        )
        assert response.status == 200
        first = response.body
        assert first["count"] == 5 and first["nextCursor"]
        response = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {**body, "cursor": first["nextCursor"]},
                token=token,
            )
        )
        second = response.body
        assert second["count"] == 5
        ids = {h["peId"] for h in first["hits"]} | {
            h["peId"] for h in second["hits"]
        }
        assert len(ids) == 10  # disjoint pages

    def test_paged_unbounded_search_terminates_and_covers_topk(
        self, server, token
    ):
        """k=None + limit walks the whole ranking page by page with no
        skips or duplicates (ranking capped at offset+limit per page —
        the exact top-k is a prefix of the full ranking)."""
        expected = {
            add_pe(server, token, f"walk{i}", f"walkable record {i}")
            for i in range(11)
        }
        seen, cursor, pages = [], None, 0
        body = {"query": "walkable", "queryType": "semantic", "kind": "pe",
                "limit": 4}
        while True:
            payload = dict(body)
            if cursor:
                payload["cursor"] = cursor
            response = server.dispatch(
                Request(
                    "POST", "/v1/registry/zz46/search", payload, token=token
                )
            )
            assert response.status == 200, response.body
            seen.extend(h["peId"] for h in response.body["hits"])
            pages += 1
            cursor = response.body["nextCursor"]
            if cursor is None:
                break
            assert pages < 10  # must terminate
        assert set(seen) == expected
        assert len(seen) == len(set(seen))

    def test_search_cursor_bound_to_query_params(self, server, token):
        """A cursor minted by one search is a 400 for any other search —
        never a silently shifted hit window."""
        for i in range(8):
            add_pe(server, token, f"pe{i}", f"helper {i}")
        body = {"query": "helper", "queryType": "semantic", "kind": "pe",
                "limit": 3}
        first = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        ).body
        assert first["nextCursor"]
        for patch in (
            {"query": "other words"},
            {"queryType": "code"},
            {"k": 4},
        ):
            response = server.dispatch(
                Request(
                    "POST",
                    "/v1/registry/zz46/search",
                    {**body, **patch, "cursor": first["nextCursor"]},
                    token=token,
                )
            )
            assert response.status == 400, (patch, response.body)
            assert "invalid cursor" in response.body["message"]
        # same parameters: the cursor resumes
        second = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {**body, "cursor": first["nextCursor"]},
                token=token,
            )
        )
        assert second.status == 200

    def test_a_cursor_past_64_bits_is_400(self, server, token):
        """A forged search cursor, minted with the search's own scope,
        whose page would end past 2**63 - 1 is a 400, not a LIMIT that
        SQLite cannot bind; the last position a page can reach serves
        an empty page."""
        for i in range(4):
            add_pe(server, token, f"pe{i}", f"helper {i}")
        body = {"query": "helper", "queryType": "text", "kind": "pe",
                "limit": 3}
        minted = server.dispatch(
            Request("POST", "/v1/registry/zz46/search", body, token=token)
        ).body["nextCursor"]
        scope = json.loads(base64.urlsafe_b64decode(minted[3:]))["s"]

        def search(position):
            cursor = encode_cursor(scope, position)
            return server.dispatch(
                Request(
                    "POST",
                    "/v1/registry/zz46/search",
                    {**body, "cursor": cursor},
                    token=token,
                )
            )

        for position in (INT64_MAX - 2, INT64_MAX, 2**63):
            response = search(position)
            assert response.status == 400, (position, response.body)
            assert response.body["message"] == "invalid cursor"
        last = search(INT64_MAX - 3)
        assert last.status == 200, last.body
        assert last.body["hits"] == []

    def test_backends_discovery_endpoint(self, server):
        response = server.dispatch(Request("GET", "/v1/backends", {}))
        assert response.status == 200
        assert response.body == {
            "apiVersion": "v1",
            "backends": ["exact"],
            "default": "exact",
        }


def seed_prime_registry(server, token, user="zz46"):
    """Eight PEs and eight workflows that all mention "prime"."""
    for i in range(8):
        add_pe(server, token, f"pe{i}", f"a prime checking element {i}", user)
        add_workflow(server, token, f"wf{i}", f"a prime workflow {i}", user)


class TestLegacyParity:
    """The Table-3 adapter serves v1's hits in its historical body
    shape, with its own error messages for ``type``/``queryType``."""

    @pytest.mark.parametrize(
        "query_type,kind",
        [
            # (text, pe) serves semantic ranking on both generations
            # (the historical quirk); (text, workflow/both) rank in the
            # DAO's BM25 index on both
            ("text", "pe"),
            ("text", "workflow"),
            ("text", "both"),
            ("semantic", "pe"),
            ("semantic", "workflow"),
            ("semantic", "both"),
            ("code", "pe"),
        ],
    )
    @pytest.mark.parametrize("k", [5, None])
    def test_legacy_route_equals_v1_exact(
        self, server, token, query_type, kind, k
    ):
        seed_prime_registry(server, token)
        bounded = {} if k is None else {"k": k}
        legacy = server.dispatch(
            Request(
                "GET",
                f"/registry/zz46/search/prime/type/{kind}",
                {"queryType": query_type, **bounded},
                token=token,
            )
        )
        v1 = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {
                    "query": "prime",
                    "queryType": query_type,
                    "kind": kind,
                    "backend": "exact",
                    **bounded,
                },
                token=token,
            )
        )
        assert legacy.status == 200 and v1.status == 200
        # identical ranking core: hits agree field for field, and the
        # legacy body keeps its historical two-key shape
        assert legacy.body["hits"] == v1.body["hits"]
        assert legacy.body["searchKind"] == v1.body["searchKind"]
        assert set(legacy.body) == {"searchKind", "hits"}

    @pytest.mark.parametrize(
        "kind,body",
        [
            ("workflow", {"k": "abc"}),
            ("workflow", {"k": "5"}),
            ("both", {"k": 1.9}),
            ("both", {"k": True}),
            ("workflow", {"k": 0}),
            ("both", {"k": -1}),
            ("pe", {"queryType": "semantic", "queryEmbedding": [1.0, 2.0]}),
            ("pe", {"queryType": "code", "queryEmbedding": [1.0, 2.0]}),
            ("pe", {"queryType": "semantic", "queryEmbedding": "abc"}),
            ("pe", {"queryType": "semantic", "queryEmbedding": []}),
            ("pe", {"queryType": "semantic", "queryEmbedding": [1.0, True]}),
        ],
        ids=[
            "k-letters",
            "k-digit-string",
            "k-float",
            "k-bool",
            "k-zero",
            "k-negative",
            "embedding-2-wide-semantic",
            "embedding-2-wide-code",
            "embedding-string",
            "embedding-empty",
            "embedding-bool-item",
        ],
    )
    def test_legacy_malformed_k_or_embedding_is_400(
        self, server, token, kind, body
    ):
        """``k`` and ``queryEmbedding`` pass v1's checks on this route
        too: a malformed value is a 400 (never a 500), and no ``k`` is
        coerced or ignored."""
        seed_prime_registry(server, token)
        response = server.dispatch(
            Request(
                "GET",
                f"/registry/zz46/search/prime/type/{kind}",
                body,
                token=token,
            )
        )
        assert response.status == 400, (body, response.body)
        assert response.body["error"] == "ValidationError"

    def test_legacy_error_envelopes_unchanged(self, server, token):
        bad_type = server.dispatch(
            Request(
                "GET",
                "/registry/zz46/search/x/type/everything",
                {},
                token=token,
            )
        )
        assert bad_type.status == 400
        assert "unknown search type" in bad_type.body["message"]
        bad_query_type = server.dispatch(
            Request(
                "GET",
                "/registry/zz46/search/x/type/pe",
                {"queryType": "fuzzy"},
                token=token,
            )
        )
        assert bad_query_type.status == 400
        assert "unknown query type" in bad_query_type.body["message"]

    def test_legacy_listing_unpaginated(self, server, token):
        """/registry/{user}/pe/all still returns the whole collection."""
        ids = [
            add_pe(server, token, f"pe{i}", f"desc {i}") for i in range(12)
        ]
        response = server.dispatch(
            Request("GET", "/registry/zz46/pe/all", {}, token=token)
        )
        assert response.status == 200
        assert [pe["peId"] for pe in response.body["pes"]] == ids


#: ``query="prime number"``, ``k=3`` over :func:`seed_read_registry`:
#: per (kind, queryType) the ``searchKind`` and each hit's values in
#: key order (``HIT_KEYS``)
_P1, _P2, _P3 = (r["description"] for r in (IS_PRIME, ADD_TEN, PRIME_SIEVE))
_W1, _W2 = PRIME_FLOW["description"], TEN_FLOW["description"]
_PE_SEMANTIC = [
    (1, "isPrime", _P1, "user", 0.5),
    (2, "AddTen", _P2, "user", 0.3162),
    (3, "primeSieve", _P3, "auto", 0.2673),
]
_CODE = [(1, "isPrime", _P1, 0.0, ""), (2, "AddTen", _P2, 0.0, ""),
         (3, "primeSieve", _P3, 0.0, "")]
SEARCH_PINS = {
    ("pe", "text"): ("semantic", _PE_SEMANTIC),
    ("pe", "semantic"): ("semantic", _PE_SEMANTIC),
    ("pe", "code"): ("code", _CODE),
    ("pe", "hybrid"): ("hybrid", [
        ("pe", 1, "isPrime", _P1, 0.032787, 1, 1, 0.0, 0.5),
        ("pe", 2, "AddTen", _P2, 0.032002, 3, 2, 0.0, 0.3162),
        ("pe", 3, "primeSieve", _P3, 0.032002, 2, 3, 0.0, 0.2673),
    ]),
    ("workflow", "text"): ("text", [
        ("workflow", 1, "primeFlow", _W1, "name+description", 0.6709),
    ]),
    ("workflow", "semantic"): ("semantic", [
        (1, "primeFlow", _W1, 0.7071), (2, "tenFlow", _W2, 0.0),
    ]),
    ("workflow", "code"): ("code", _CODE),
    ("workflow", "hybrid"): ("hybrid", [
        ("workflow", 1, "primeFlow", _W1, 0.032787, 1, 1, 0.6709, 0.7071),
        ("workflow", 2, "tenFlow", _W2, 0.016129, None, 2, None, 0.0),
    ]),
    ("both", "text"): ("text", [
        ("workflow", 1, "primeFlow", _W1, "name+description", 0.6709),
        ("pe", 1, "isPrime", _P1, "name+description", 0.0),
        ("pe", 3, "primeSieve", _P3, "name+description", 0.0),
    ]),
    ("both", "semantic"): ("semantic", [
        (1, "primeFlow", _W1, 0.7071), _PE_SEMANTIC[0], _PE_SEMANTIC[1],
    ]),
    ("both", "code"): ("code", _CODE),
    ("both", "hybrid"): ("hybrid", [
        ("workflow", 1, "primeFlow", _W1, 0.032787, 1, 1, 0.6709, 0.7071),
        ("pe", 1, "isPrime", _P1, 0.032258, 2, 2, 0.0, 0.5),
        ("pe", 2, "AddTen", _P2, 0.031498, 4, 3, 0.0, 0.3162),
    ]),
}
#: each hit shape's keys, in wire order (a semantic hit's by its kind)
HIT_KEYS = {
    "text": ("kind", "id", "name", "description", "matchedOn", "score"),
    "code": ("peId", "peName", "description", "score", "continuation"),
    "hybrid": ("kind", "id", "name", "description", "score", "textRank",
               "semanticRank", "textScore", "semanticScore"),
    "peId": ("peId", "peName", "description", "descriptionOrigin", "score"),
    "workflowId": ("workflowId", "entryPoint", "description", "score"),
}

#: per v1 listing, walked one item a page: each page's ids and cursor
LISTING_PAGES = {
    "pes": [
        ([1], "v1.eyJzIjoicGVzOjEiLCJhIjoxfQ=="),
        ([2], "v1.eyJzIjoicGVzOjEiLCJhIjoyfQ=="),
        ([3], None),
    ],
    "workflows": [
        ([1], "v1.eyJzIjoid29ya2Zsb3dzOjEiLCJhIjoxfQ=="),
        ([2], None),
    ],
}
LISTED = {"pes": [IS_PRIME, ADD_TEN, PRIME_SIEVE],
          "workflows": [PRIME_FLOW, TEN_FLOW]}


class TestReadBytes:
    """The v1 read routes of both kinds, and the search of both API
    generations, byte for byte over one seeded registry."""

    @pytest.fixture(scope="class")
    def seeded(self, fast_bundle):
        server = LaminarServer(models=fast_bundle)
        return server, seed_read_registry(server)

    @pytest.mark.parametrize("plural", sorted(LISTING_PAGES))
    def test_listing_pages(self, seeded, plural):
        server, token = seeded
        items = {
            record.get("peId", record.get("workflowId")): record
            for record in LISTED[plural]
        }
        cursor = None
        for ids, next_cursor in LISTING_PAGES[plural]:
            body = {"limit": 1} if cursor is None else {"limit": 1, "cursor": cursor}
            response = server.dispatch(Request(
                "GET", f"/v1/registry/zz46/{plural}", body, token=token
            ))
            assert_served(response, 200, {
                "apiVersion": "v1", "count": len(ids), "limit": 1,
                "items": [{**items[i], "revision": 1} for i in ids],
                "nextCursor": next_cursor,
            })
            cursor = next_cursor
        whole = server.dispatch(Request(
            "GET", f"/v1/registry/zz46/{plural}", token=token
        ))
        assert_served(whole, 200, {
            "apiVersion": "v1", "count": len(items), "limit": 100,
            "items": [{**record, "revision": 1} for record in LISTED[plural]],
            "nextCursor": None,
        })
        other = "workflows" if plural == "pes" else "pes"
        minted = LISTING_PAGES[plural][0][1]
        crossed = server.dispatch(Request(
            "GET", f"/v1/registry/zz46/{other}", {"cursor": minted}, token=token
        ))
        assert_served(crossed, 400, {
            "error": "ValidationError", "code": 400, "message": "invalid cursor",
            "params": {"cursor": repr(minted)},
            "details": f"cursor was minted by '{plural}:1', not '{other}:1'",
        })

    @pytest.mark.parametrize("kind,query_type", sorted(SEARCH_PINS))
    def test_search_bytes_on_both_generations(self, seeded, kind, query_type):
        server, token = seeded
        search_kind, rows = SEARCH_PINS[(kind, query_type)]
        response = server.dispatch(Request(
            "POST", "/v1/registry/zz46/search",
            {"query": "prime number", "kind": kind, "queryType": query_type,
             "k": 3},
            token=token,
        ))
        assert response.status == 200, response.body
        hits = response.body["hits"]
        assert response.body["searchKind"] == search_kind
        assert [tuple(hit.values()) for hit in hits] == rows
        assert [tuple(hit) for hit in hits] == [
            HIT_KEYS[next(iter(hit)) if search_kind == "semantic" else search_kind]
            for hit in hits
        ]
        if query_type == "hybrid":
            return  # no Table-3 spelling
        legacy = server.dispatch(Request(
            "GET",
            f"/registry/zz46/search/{quote_segment('prime number')}/type/{kind}",
            {"queryType": query_type, "k": 3},
            token=token,
        ))
        assert_served(legacy, 200, {"searchKind": search_kind, "hits": hits})


class TestConcurrentPagination:
    def test_parallel_walks_with_writer(self, server, token):
        """Two concurrent cursor walks against a mutating registry each
        observe every pre-existing record exactly once."""
        before = [
            add_pe(server, token, f"base{i}", f"baseline record {i}")
            for i in range(20)
        ]
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def walker(slot):
            try:
                seen, cursor = [], None
                while True:
                    body = {"limit": 3}
                    if cursor:
                        body["cursor"] = cursor
                    response = server.dispatch(
                        Request(
                            "GET",
                            "/v1/registry/zz46/pes",
                            body,
                            token=token,
                        )
                    )
                    assert response.status == 200, response.body
                    seen.extend(
                        item["peId"] for item in response.body["items"]
                    )
                    cursor = response.body["nextCursor"]
                    if cursor is None:
                        break
                results[slot] = seen
            except Exception as exc:  # pragma: no cover - failure report
                errors.append(exc)

        def writer():
            try:
                for i in range(6):
                    add_pe(server, token, f"new{i}", f"late record {i}")
            except Exception as exc:  # pragma: no cover - failure report
                errors.append(exc)

        threads = [
            threading.Thread(target=walker, args=(0,)),
            threading.Thread(target=walker, args=(1,)),
            threading.Thread(target=writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for seen in results.values():
            assert len(seen) == len(set(seen))
            assert set(before) <= set(seen)
            assert seen == sorted(seen)

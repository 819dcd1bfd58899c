"""Conditional reads: revision-backed ETags and If-None-Match 304s on
the v1 single-record GET routes, in-process and over real HTTP."""

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer
from tests.server.test_api import (
    IS_PRIME,
    PRIME_FLOW,
    assert_served,
    not_found,
    seed_read_registry,
)


@pytest.fixture()
def server(fast_bundle):
    return LaminarServer(models=fast_bundle)


def _login(server):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "zz46", "password": "pw"})
    )
    response = server.dispatch(
        Request("POST", "/auth/login", {"userName": "zz46", "password": "pw"})
    )
    return response.body["token"]


@pytest.fixture()
def token(server):
    return _login(server)


def put_pe(server, token, name, code=None):
    return server.dispatch(
        Request(
            "PUT",
            f"/v1/registry/zz46/pes/{name}",
            {"peCode": code or f"def {name}(): pass"},
            token=token,
        )
    )


def get_pe(server, token, name, validator=None):
    headers = {} if validator is None else {"If-None-Match": validator}
    return server.dispatch(
        Request(
            "GET",
            f"/v1/registry/zz46/pes/{name}",
            token=token,
            headers=headers,
        )
    )


class TestSingleRecordGet:
    def test_get_returns_item_and_etag(self, server, token):
        put_pe(server, token, "alpha")
        response = get_pe(server, token, "alpha")
        assert response.status == 200
        assert response.body["apiVersion"] == "v1"
        assert response.body["kind"] == "pe"
        assert response.body["item"]["peName"] == "alpha"
        assert response.body["item"]["revision"] == 1
        assert response.headers["ETag"] == '"pe-1-1"'

    def test_unknown_record_is_404(self, server, token):
        response = get_pe(server, token, "ghost")
        assert response.status == 404

    def test_requires_auth(self, server, token):
        put_pe(server, token, "alpha")
        response = server.dispatch(
            Request("GET", "/v1/registry/zz46/pes/alpha")
        )
        assert response.status == 401

    def test_workflow_get_matches_pe_get(self, server, token):
        server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/workflows/wfA",
                {"workflowCode": "graph = g()"},
                token=token,
            )
        )
        response = server.dispatch(
            Request("GET", "/v1/registry/zz46/workflows/wfA", token=token)
        )
        assert response.status == 200
        assert response.body["kind"] == "workflow"
        assert response.headers["ETag"].startswith('"workflow-')


class TestIfNoneMatch:
    def test_matching_validator_is_304(self, server, token):
        put_pe(server, token, "alpha")
        etag = get_pe(server, token, "alpha").headers["ETag"]
        response = get_pe(server, token, "alpha", validator=etag)
        assert response.status == 304
        assert response.headers["ETag"] == etag
        assert response.body == {}

    def test_star_always_matches(self, server, token):
        put_pe(server, token, "alpha")
        response = get_pe(server, token, "alpha", validator="*")
        assert response.status == 304

    def test_weak_validator_and_lists_match(self, server, token):
        put_pe(server, token, "alpha")
        etag = get_pe(server, token, "alpha").headers["ETag"]
        assert get_pe(
            server, token, "alpha", validator=f"W/{etag}"
        ).status == 304
        assert get_pe(
            server, token, "alpha", validator=f'"other", {etag}'
        ).status == 304

    def test_stale_validator_is_a_full_200(self, server, token):
        put_pe(server, token, "alpha")
        stale = get_pe(server, token, "alpha").headers["ETag"]
        # description update bumps the revision -> new ETag
        server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/pes/alpha",
                {"peCode": "def alpha(): pass", "description": "fresh"},
                token=token,
            )
        )
        response = get_pe(server, token, "alpha", validator=stale)
        assert response.status == 200
        assert response.headers["ETag"] != stale
        assert response.body["item"]["revision"] > 1

    def test_bulk_insert_after_delete_gets_a_new_etag(self, fast_bundle):
        """A record bulk-inserted under a deleted record's name must not
        inherit its id, or a client's cached validator for the old code
        would be answered 304 for the new code."""
        server = LaminarServer(dao=SqliteDAO(), models=fast_bundle)
        token = _login(server)
        put_pe(server, token, "alpha")
        stale = get_pe(server, token, "alpha").headers["ETag"]
        assert stale == '"pe-1-1"'
        deleted = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/alpha", token=token)
        )
        assert deleted.status == 200, deleted.body
        bulk = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/pes:bulk",
                {"items": [{"peName": "alpha", "peCode": "def alpha(): 2"}]},
                token=token,
            )
        )
        assert bulk.status == 201, bulk.body
        response = get_pe(server, token, "alpha", validator=stale)
        assert response.status == 200
        assert response.headers["ETag"] != stale
        assert response.body["item"]["peCode"] == "def alpha(): 2"

    def test_validator_on_missing_record_is_still_404(self, server, token):
        response = get_pe(server, token, "ghost", validator="*")
        assert response.status == 404

    def test_deleting_a_linked_pe_is_a_new_workflow_etag(self, server, token):
        """Deleting a PE unlinks it from the workflows that list it; a
        validator cached before that must not be answered 304."""
        pe_id = put_pe(server, token, "alpha").body["items"][0]["peId"]
        put = server.dispatch(
            Request(
                "PUT",
                "/v1/registry/zz46/workflows/wfA",
                {"workflowCode": "graph = g()", "peIds": [pe_id]},
                token=token,
            )
        )
        assert put.status == 201, put.body

        def get_workflow(validator=None):
            headers = {} if validator is None else {"If-None-Match": validator}
            return server.dispatch(
                Request(
                    "GET",
                    "/v1/registry/zz46/workflows/wfA",
                    token=token,
                    headers=headers,
                )
            )

        before = get_workflow()
        stale = before.headers["ETag"]
        assert before.body["item"]["peIds"] == [pe_id]
        assert get_workflow(stale).status == 304
        deleted = server.dispatch(
            Request("DELETE", "/v1/registry/zz46/pes/alpha", token=token)
        )
        assert deleted.status == 200, deleted.body
        response = get_workflow(stale)
        assert response.status == 200
        assert response.headers["ETag"] != stale
        assert response.body["item"]["peIds"] == []
        assert response.body["item"]["revision"] == 2


#: per kind: the v1 path, a record's name and its stored item, a PUT
#: body that revises it, and the params key of a by-name miss
CONDITIONAL_KINDS = {
    "pe": ("pes", "isPrime", IS_PRIME,
           {"peCode": "def isPrime(): pass", "description": "revised"},
           "peName", "PE"),
    "workflow": ("workflows", "primeFlow", PRIME_FLOW,
                 {"workflowCode": "graph = primeFlow()",
                  "description": "revised", "peIds": [1, 2]},
                 "entryPoint", "workflow"),
}


class TestConditionalBytes:
    """The v1 single-record GET of either kind, byte for byte: the
    envelope, the ETag, each validator form's 304, the 404."""

    @pytest.mark.parametrize("kind", sorted(CONDITIONAL_KINDS))
    def test_etag_304_and_404_bytes(self, fast_bundle, kind):
        plural, name, item, revise, param, label = CONDITIONAL_KINDS[kind]
        server = LaminarServer(models=fast_bundle)
        token = seed_read_registry(server)

        def get(record, validator=None):
            headers = {} if validator is None else {"If-None-Match": validator}
            return server.dispatch(Request(
                "GET", f"/v1/registry/zz46/{plural}/{record}",
                token=token, headers=headers,
            ))

        etag = f'"{kind}-1-1"'
        body = {
            "apiVersion": "v1", "kind": kind,
            "item": {**item, "revision": 1},
        }
        assert_served(get(name), 200, body, {"ETag": etag})
        for validator in (etag, f"W/{etag}", f'"x", {etag}', "*"):
            assert_served(get(name, validator), 304, {}, {"ETag": etag})
        assert_served(get(name, f'"{kind}-1-2"'), 200, body, {"ETag": etag})
        missing = not_found(
            f"{label} 'ghost' not found for user 'zz46'",
            **{param: "ghost", "user": "zz46"},
        )
        assert_served(get("ghost"), 404, missing)
        assert_served(get("ghost", "*"), 404, missing)

        put = server.dispatch(Request(
            "PUT", f"/v1/registry/zz46/{plural}/{name}", revise, token=token
        ))
        assert put.status == 200, put.body
        revised = {
            "apiVersion": "v1", "kind": kind,
            "item": {**item, "description": "revised", "revision": 2},
        }
        assert_served(get(name, etag), 200, revised, {"ETag": f'"{kind}-1-2"'})


class TestOverRealHttp:
    def test_304_round_trip_with_empty_body(self, fast_bundle):
        import urllib.request

        from repro.server.http import HttpTransport, serve_http

        server = LaminarServer(models=fast_bundle)
        with serve_http(server) as handle:
            transport = HttpTransport(handle.url)
            creds = {"userName": "zz46", "password": "pw"}
            transport.request(Request("POST", "/auth/register", creds))
            token = transport.request(
                Request("POST", "/auth/login", creds)
            ).body["token"]
            transport.request(
                Request(
                    "PUT",
                    "/v1/registry/zz46/pes/alpha",
                    {"peCode": "def alpha(): pass"},
                    token=token,
                )
            )
            first = transport.request(
                Request("GET", "/v1/registry/zz46/pes/alpha", token=token)
            )
            assert first.status == 200
            etag = first.headers["ETag"]

            # HttpTransport path: the header rides Request.headers
            cached = transport.request(
                Request(
                    "GET",
                    "/v1/registry/zz46/pes/alpha",
                    token=token,
                    headers={"If-None-Match": etag},
                )
            )
            assert cached.status == 304
            assert cached.body == {}
            assert cached.headers.get("ETag") == etag

            # raw urllib: prove the wire payload is truly empty
            raw = urllib.request.Request(
                f"{handle.url}/v1/registry/zz46/pes/alpha",
                method="GET",
                headers={
                    "Authorization": f"Bearer {token}",
                    "If-None-Match": etag,
                },
            )
            try:
                with urllib.request.urlopen(raw, timeout=10) as reply:
                    assert reply.status == 304
                    assert reply.read() == b""
            except urllib.error.HTTPError as exc:  # some urllibs raise on 304
                assert exc.code == 304
                assert exc.read() == b""

"""Tests for the path router and URL encoding, and the bytes the
Table-3 read routes serve for both record kinds."""

import json

import pytest

from repro.errors import NotFoundError
from repro.net.transport import Request, Response
from repro.server import LaminarServer
from repro.server.api import Router, quote_segment


def _handler(name):
    def handle(request, params):
        return Response(200, {"handler": name, "params": params})

    return handle


@pytest.fixture()
def router():
    r = Router()
    r.add("GET", "/registry/{user}/pe/all", _handler("all"))
    r.add("GET", "/registry/{user}/pe/id/{id}", _handler("by_id"))
    r.add("POST", "/registry/{user}/pe/add", _handler("add"))
    r.add("GET", "/registry/{user}/search/{search}/type/{type}", _handler("search"))
    return r


class TestResolution:
    def test_literal_and_param_segments(self, router):
        handler, params = router.resolve("GET", "/registry/zz46/pe/all")
        assert handler(None, params).body["handler"] == "all"
        assert params == {"user": "zz46"}

    def test_multiple_params(self, router):
        _, params = router.resolve("GET", "/registry/zz46/pe/id/7")
        assert params == {"user": "zz46", "id": "7"}

    def test_method_disambiguates(self, router):
        handler, _ = router.resolve("POST", "/registry/zz46/pe/add")
        assert handler(None, {}).body["handler"] == "add"

    def test_wrong_method_is_405_with_allowed_set(self, router):
        from repro.errors import MethodNotAllowedError

        with pytest.raises(MethodNotAllowedError, match="not allowed") as exc:
            router.resolve("DELETE", "/registry/zz46/pe/all")
        assert exc.value.code == 405
        assert exc.value.allowed == ["GET"]

    def test_unknown_path_not_found(self, router):
        with pytest.raises(NotFoundError):
            router.resolve("GET", "/registry/zz46/nothing")

    def test_length_mismatch_not_found(self, router):
        with pytest.raises(NotFoundError):
            router.resolve("GET", "/registry/zz46/pe")

    def test_trailing_slash_tolerated(self, router):
        _, params = router.resolve("GET", "/registry/zz46/pe/all/")
        assert params == {"user": "zz46"}

    def test_endpoints_lists_routes(self, router):
        endpoints = router.endpoints()
        assert ("GET", "/registry/{user}/pe/all") in endpoints
        assert len(endpoints) == 4


class TestSpecificity:
    """Literal segments beat {param} captures, whatever the add order."""

    def test_literal_beats_param_when_added_later(self):
        r = Router()
        r.add("GET", "/registry/{user}/pe/{name}", _handler("by_name"))
        r.add("GET", "/registry/{user}/pe/all", _handler("all"))
        handler, params = r.resolve("GET", "/registry/u/pe/all")
        assert handler(None, params).body["handler"] == "all"
        handler, params = r.resolve("GET", "/registry/u/pe/other")
        assert handler(None, params).body["handler"] == "by_name"
        assert params["name"] == "other"

    def test_literal_beats_param_when_added_first(self):
        r = Router()
        r.add("GET", "/registry/{user}/pe/all", _handler("all"))
        r.add("GET", "/registry/{user}/pe/{name}", _handler("by_name"))
        handler, params = r.resolve("GET", "/registry/u/pe/all")
        assert handler(None, params).body["handler"] == "all"

    def test_earliest_literal_position_wins(self):
        r = Router()
        r.add("GET", "/{a}/users/list", _handler("late-literal"))
        r.add("GET", "/v1/{b}/list", _handler("early-literal"))
        handler, params = r.resolve("GET", "/v1/users/list")
        # first segment literal ('v1') outranks first segment param
        assert handler(None, params).body["handler"] == "early-literal"

    def test_v1_and_legacy_patterns_cannot_shadow(self):
        # same segment count: the /v1 literal prefix must win for /v1
        # paths, the legacy pattern for everything else
        r = Router()
        r.add("GET", "/{x}/registry/search", _handler("legacy-ish"))
        r.add("GET", "/v1/registry/search", _handler("v1"))
        handler, params = r.resolve("GET", "/v1/registry/search")
        assert handler(None, params).body["handler"] == "v1"
        handler, params = r.resolve("GET", "/other/registry/search")
        assert handler(None, params).body["handler"] == "legacy-ish"

    def test_buckets_by_method_and_length(self):
        r = Router()
        r.add("GET", "/a/{x}", _handler("get2"))
        r.add("POST", "/a/{x}", _handler("post2"))
        r.add("GET", "/a/{x}/{y}", _handler("get3"))
        handler, _ = r.resolve("POST", "/a/1")
        assert handler(None, {}).body["handler"] == "post2"
        handler, _ = r.resolve("GET", "/a/1/2")
        assert handler(None, {}).body["handler"] == "get3"

    def test_registration_order_breaks_specificity_ties(self):
        r = Router()
        r.add("GET", "/x/{a}", _handler("first"))
        r.add("GET", "/x/{b}", _handler("second"))
        handler, _ = r.resolve("GET", "/x/anything")
        assert handler(None, {}).body["handler"] == "first"


class TestEncoding:
    def test_quote_segment_escapes_slash_and_space(self):
        assert "/" not in quote_segment("a/b c")
        assert " " not in quote_segment("a/b c")

    def test_search_string_with_spaces_round_trips(self, router):
        query = "A PE that checks if a number is prime"
        path = f"/registry/zz46/search/{quote_segment(query)}/type/pe"
        _, params = router.resolve("GET", path)
        assert params["search"] == query
        assert params["type"] == "pe"

    def test_code_query_round_trips(self, router):
        query = "random.randint(1, 1000)"
        path = f"/registry/zz46/search/{quote_segment(query)}/type/pe"
        _, params = router.resolve("GET", path)
        assert params["search"] == query


# ---------------------------------------------------------------------------
# Table-3 read routes: the served bytes, pinned for both record kinds
# ---------------------------------------------------------------------------
def login(server, name):
    creds = {"userName": name, "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", creds))
    return server.dispatch(Request("POST", "/auth/login", creds)).body["token"]


def seed_read_registry(server):
    """Three PEs and two workflows for ``zz46`` (the third PE's
    description auto-summarized), one of each for ``other``; returns
    ``zz46``'s token."""
    token, other = login(server, "zz46"), login(server, "other")
    for name, description in (
        ("isPrime", "checks whether a number is prime"),
        ("AddTen", "adds ten to a number"),
        ("primeSieve", ""),
    ):
        server.dispatch(Request(
            "POST", "/registry/zz46/pe/add",
            {"peName": name, "peCode": f"def {name}(): pass",
             "description": description},
            token=token,
        ))
    for entry, description, pe_ids in (
        ("primeFlow", "a prime number workflow", [1, 2]),
        ("tenFlow", "adds ten", [2]),
    ):
        server.dispatch(Request(
            "POST", "/registry/zz46/workflow/add",
            {"entryPoint": entry, "workflowCode": f"graph = {entry}()",
             "description": description, "peIds": pe_ids},
            token=token,
        ))
    server.dispatch(Request(
        "POST", "/registry/other/pe/add",
        {"peName": "otherPrime", "peCode": "def otherPrime(): pass",
         "description": "another prime"},
        token=other,
    ))
    server.dispatch(Request(
        "POST", "/registry/other/workflow/add",
        {"entryPoint": "otherFlow", "workflowCode": "graph = otherFlow()",
         "description": "another prime flow"},
        token=other,
    ))
    return token


def assert_served(response, status, body, headers=None):
    """``response`` is exactly ``status``, ``body`` (key order too) and
    ``headers``."""
    assert (
        response.status, json.dumps(response.body), response.headers or {}
    ) == (status, json.dumps(body), headers or {})


IS_PRIME = {
    "peId": 1, "peName": "isPrime",
    "description": "checks whether a number is prime",
    "descriptionOrigin": "user", "peCode": "def isPrime(): pass",
    "peSource": "", "peImports": [], "owners": [1],
}
ADD_TEN = {
    "peId": 2, "peName": "AddTen", "description": "adds ten to a number",
    "descriptionOrigin": "user", "peCode": "def AddTen(): pass",
    "peSource": "", "peImports": [], "owners": [1],
}
PRIME_SIEVE = {
    "peId": 3, "peName": "primeSieve",
    "description": "A PE that processes prime sieve data.",
    "descriptionOrigin": "auto", "peCode": "def primeSieve(): pass",
    "peSource": "", "peImports": [], "owners": [1],
}
PRIME_FLOW = {
    "workflowId": 1, "workflowName": "primeFlow", "entryPoint": "primeFlow",
    "description": "a prime number workflow",
    "workflowCode": "graph = primeFlow()", "workflowSource": "",
    "peIds": [1, 2], "owners": [1],
}
TEN_FLOW = {
    "workflowId": 2, "workflowName": "tenFlow", "entryPoint": "tenFlow",
    "description": "adds ten", "workflowCode": "graph = tenFlow()",
    "workflowSource": "", "peIds": [2], "owners": [1],
}


def not_found(message, **params):
    return {
        "error": "NotFoundError", "code": 404, "message": message,
        "params": {key: repr(value) for key, value in params.items()},
    }


BAD_ID = {
    "error": "ValidationError", "code": 400,
    "message": "path parameter 'id' must be an integer",
    "params": {"id": "'abc'"},
}

#: (method, path) -> (status, body) of every Table-3 read route, and the
#: removes' misses, for both kinds: hits, foreign records, misses, bad ids
TABLE3_READS = {
    ("GET", "/registry/zz46/pe/all"): (
        200, {"pes": [IS_PRIME, ADD_TEN, PRIME_SIEVE]}),
    ("GET", "/registry/zz46/workflow/all"): (
        200, {"workflows": [PRIME_FLOW, TEN_FLOW]}),
    ("GET", "/registry/zz46/all"): (
        200, {"pes": [IS_PRIME, ADD_TEN, PRIME_SIEVE],
              "workflows": [PRIME_FLOW, TEN_FLOW]}),
    ("GET", "/registry/zz46/pe/id/1"): (200, IS_PRIME),
    ("GET", "/registry/zz46/pe/name/primeSieve"): (200, PRIME_SIEVE),
    ("GET", "/registry/zz46/workflow/id/1"): (200, PRIME_FLOW),
    ("GET", "/registry/zz46/workflow/name/tenFlow"): (200, TEN_FLOW),
    ("GET", "/registry/zz46/workflow/pes/id/1"): (
        200, {"pes": [IS_PRIME, ADD_TEN]}),
    ("GET", "/registry/zz46/workflow/pes/name/tenFlow"): (
        200, {"pes": [ADD_TEN]}),
    ("GET", "/registry/zz46/pe/id/4"): (404, not_found(
        "PE id 4 not found for user 'zz46'", peId=4, user="zz46")),
    ("GET", "/registry/zz46/pe/id/999"): (404, not_found(
        "PE id 999 not found for user 'zz46'", peId=999, user="zz46")),
    ("GET", "/registry/zz46/pe/name/otherPrime"): (404, not_found(
        "PE 'otherPrime' not found for user 'zz46'",
        peName="otherPrime", user="zz46")),
    ("GET", "/registry/zz46/pe/id/abc"): (400, BAD_ID),
    ("GET", "/registry/zz46/workflow/id/3"): (404, not_found(
        "workflow id 3 not found for user 'zz46'", workflowId=3, user="zz46")),
    ("GET", "/registry/zz46/workflow/name/ghost"): (404, not_found(
        "workflow 'ghost' not found for user 'zz46'",
        entryPoint="ghost", user="zz46")),
    ("GET", "/registry/zz46/workflow/id/abc"): (400, BAD_ID),
    ("GET", "/registry/zz46/workflow/pes/name/otherFlow"): (404, not_found(
        "workflow 'otherFlow' not found for user 'zz46'",
        entryPoint="otherFlow", user="zz46")),
    ("DELETE", "/registry/zz46/pe/remove/id/999"): (404, not_found(
        "PE id 999 not found for user 'zz46'", peId=999, user="zz46")),
    ("DELETE", "/registry/zz46/pe/remove/name/ghost"): (404, not_found(
        "PE 'ghost' not found for user 'zz46'", peName="ghost", user="zz46")),
    ("DELETE", "/registry/zz46/workflow/remove/id/3"): (404, not_found(
        "workflow id 3 not found for user 'zz46'", workflowId=3, user="zz46")),
    ("DELETE", "/registry/zz46/workflow/remove/name/ghost"): (404, not_found(
        "workflow 'ghost' not found for user 'zz46'",
        entryPoint="ghost", user="zz46")),
    ("DELETE", "/registry/zz46/pe/remove/id/abc"): (400, BAD_ID),
}


class TestTable3ReadBytes:
    @pytest.fixture(scope="class")
    def seeded(self, fast_bundle):
        server = LaminarServer(models=fast_bundle)
        return server, seed_read_registry(server)

    @pytest.mark.parametrize(
        "method,path", sorted(TABLE3_READS), ids=lambda value: value
    )
    def test_read_route_bytes(self, seeded, method, path):
        server, token = seeded
        response = server.dispatch(Request(method, path, token=token))
        assert_served(response, *TABLE3_READS[(method, path)])

    @pytest.mark.parametrize("kind", ["pe", "workflow"])
    def test_reads_without_a_token_are_401(self, seeded, kind):
        server, _token = seeded
        for tail in ("all", "id/1", "name/x", "id/abc"):
            response = server.dispatch(
                Request("GET", f"/registry/zz46/{kind}/{tail}")
            )
            assert response.status == 401, (tail, response.body)

"""Code payloads outside ASCII register on every write route and ingest.

A record's dedup identity hashes its code payload; the payload is text
and may hold any Unicode character (an accented identifier, an em dash
in a docstring), so it is hashed as UTF-8.  A string UTF-8 cannot
encode — a lone surrogate, which ``json.loads`` accepts — is a 400
naming its field on every route that parses one.
"""

import json

import pytest

from repro.net.transport import Request
from repro.server import LaminarServer

CODE = "def café(x):\n    \"\"\"Return x — unchanged.\"\"\"\n    return x\n"


@pytest.fixture()
def server(fast_bundle):
    return LaminarServer(models=fast_bundle)


@pytest.fixture()
def token(server):
    credentials = {"userName": "u", "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", credentials))
    return server.dispatch(Request("POST", "/auth/login", credentials)).body[
        "token"
    ]


def _put(server, token, name="cafe", code=CODE):
    return server.dispatch(
        Request(
            "PUT",
            f"/v1/registry/u/pes/{name}",
            {"peCode": code, "description": "identity"},
            token=token,
        )
    )


#: a lone surrogate, as ``json.loads`` hands it over
LONE = json.loads('"def f(): \\ud800"')

#: (field, method, path, body): each route's envelope with ``LONE`` in
#: one string field
LONE_SURROGATES = [
    ("peCode", "PUT", "/v1/registry/u/pes/p", {"peCode": LONE}),
    ("peSource", "PUT", "/v1/registry/u/pes/p",
     {"peCode": CODE, "peSource": LONE}),
    ("description", "PUT", "/v1/registry/u/pes/p",
     {"peCode": CODE, "description": LONE}),
    ("idempotencyKey", "PUT", "/v1/registry/u/pes/p",
     {"peCode": CODE, "idempotencyKey": LONE}),
    ("peCode", "POST", "/v1/registry/u/pes:bulk",
     {"items": [{"peName": "p", "peCode": LONE}]}),
    ("query", "POST", "/v1/registry/u/search",
     {"query": LONE, "queryType": "text"}),
    ("userName", "POST", "/auth/register",
     {"userName": LONE, "password": "pw"}),
    # the Table-3 registration routes read their fields one by one
    ("peName", "POST", "/registry/u/pe/add", {"peName": LONE, "peCode": CODE}),
    ("peCode", "POST", "/registry/u/pe/add", {"peName": "p", "peCode": LONE}),
    ("peSource", "POST", "/registry/u/pe/add",
     {"peName": "p", "peCode": CODE, "peSource": LONE}),
    ("description", "POST", "/registry/u/pe/add",
     {"peName": "p", "peCode": CODE, "description": LONE}),
    ("descriptionOrigin", "POST", "/registry/u/pe/add",
     {"peName": "p", "peCode": CODE, "descriptionOrigin": LONE}),
    ("entryPoint", "POST", "/registry/u/workflow/add",
     {"entryPoint": LONE, "workflowCode": CODE}),
    ("workflowCode", "POST", "/registry/u/workflow/add",
     {"entryPoint": "p", "workflowCode": LONE}),
    ("workflowName", "POST", "/registry/u/workflow/add",
     {"entryPoint": "p", "workflowCode": CODE, "workflowName": LONE}),
    ("description", "POST", "/registry/u/workflow/add",
     {"entryPoint": "p", "workflowCode": CODE, "description": LONE}),
    ("workflowSource", "POST", "/registry/u/workflow/add",
     {"entryPoint": "p", "workflowCode": CODE, "workflowSource": LONE}),
]


@pytest.mark.parametrize(
    "field, method, path, body",
    LONE_SURROGATES,
    ids=[f"{path.split('/')[-1]}-{field}" for field, _, path, _ in LONE_SURROGATES],
)
def test_a_lone_surrogate_is_a_400_naming_its_field(
    server, token, field, method, path, body
):
    response = server.dispatch(Request(method, path, body, token=token))
    assert response.status == 400, response.body
    assert response.body["error"] == "ValidationError"
    assert response.body["message"].startswith(f"{field} is not valid")
    assert server.registry.dao.mutation_counter() == 0
    assert [user.user_name for user in server.registry.all_users()] == ["u"]


class TestWriteRoutes:
    def test_v1_put_creates_then_dedups(self, server, token):
        first = _put(server, token)
        assert first.status == 201, first.body
        assert first.body["items"][0]["created"] is True
        again = _put(server, token)
        assert again.status == 200, again.body
        assert again.body["items"][0]["created"] is False
        assert again.body["items"][0]["peId"] == first.body["items"][0]["peId"]

    def test_legacy_add(self, server, token):
        response = server.dispatch(
            Request(
                "POST",
                "/registry/u/pe/add",
                {
                    "peName": "Cafe",
                    "peCode": CODE,
                    "description": "identity",
                    "peSource": CODE,
                },
                token=token,
            )
        )
        assert response.status == 201, response.body
        assert response.body["peCode"] == CODE

    def test_bulk(self, server, token):
        items = [
            {"peName": f"Cafe{i}", "peCode": CODE + f"# {i} ü\n",
             "description": "identity"}
            for i in range(3)
        ]
        response = server.dispatch(
            Request(
                "POST", "/v1/registry/u/pes:bulk", {"items": items},
                token=token,
            )
        )
        assert response.status == 201, response.body
        assert [item["created"] for item in response.body["items"]] == [
            True, True, True,
        ]

    def test_workflow_put_creates_then_dedups(self, server, token):
        request = Request(
            "PUT",
            "/v1/registry/u/workflows/flow",
            {"workflowCode": CODE, "description": "a naïve flow"},
            token=token,
        )
        first = server.dispatch(request)
        assert first.status == 201, first.body
        again = server.dispatch(request)
        assert again.status == 200, again.body
        assert again.body["items"][0]["created"] is False


def test_ingest_of_a_tree_with_a_non_ascii_file_succeeds(
    server, token, tmp_path
):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "plain.py").write_text("def plain(x):\n    return x + 1\n")
    (tree / "accents.py").write_text(CODE, encoding="utf-8")
    response = server.dispatch(
        Request("POST", "/v1/registry/u/ingest", {"path": str(tree)},
                token=token)
    )
    assert response.status == 202, response.body
    assert server.jobs.join(timeout=30.0)
    job = server.dispatch(
        Request("GET", f"/v1/jobs/{response.body['jobId']}", token=token)
    ).body["job"]
    assert job["state"] == "succeeded", job["error"]
    assert job["progress"]["chunksInserted"] == job["progress"][
        "chunksDiscovered"
    ] >= 2

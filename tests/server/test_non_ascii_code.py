"""Code payloads outside ASCII register on every write route and ingest.

A record's dedup identity hashes its code payload; the payload is text
and may hold any Unicode character (an accented identifier, an em dash
in a docstring), so it is hashed as UTF-8.
"""

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

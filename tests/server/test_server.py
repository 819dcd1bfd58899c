"""Server-level tests: Table 3 endpoint coverage, auth, error envelopes."""

import pytest

from repro.net.transport import Request
from repro.server import LaminarServer
from tests.helpers import AddTen


#: every endpoint of paper Table 3, verbatim
TABLE3_ENDPOINTS = [
    ("POST", "/registry/{user}/pe/add"),
    ("GET", "/registry/{user}/pe/all"),
    ("GET", "/registry/{user}/pe/id/{id}"),
    ("GET", "/registry/{user}/pe/name/{name}"),
    ("DELETE", "/registry/{user}/pe/remove/id/{id}"),
    ("DELETE", "/registry/{user}/pe/remove/name/{name}"),
    ("POST", "/registry/{user}/workflow/add"),
    ("GET", "/registry/{user}/workflow/all"),
    ("GET", "/registry/{user}/workflow/id/{id}"),
    ("GET", "/registry/{user}/workflow/name/{name}"),
    ("GET", "/registry/{user}/workflow/pes/id/{id}"),
    ("GET", "/registry/{user}/workflow/pes/name/{name}"),
    ("DELETE", "/registry/{user}/workflow/remove/id/{id}"),
    ("DELETE", "/registry/{user}/workflow/remove/name/{name}"),
    ("PUT", "/registry/{user}/workflow/{workflowId}/pe/{peId}"),
    ("POST", "/execution/{user}/run"),
    ("GET", "/registry/{user}/all"),
    ("GET", "/registry/{user}/search/{search}/type/{type}"),
    ("GET", "/auth/all"),
    ("POST", "/auth/login"),
    ("POST", "/auth/register"),
]


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


#: endpoints beyond Table 3 implementing the paper's §3.3/§8 future work
EXTENSION_ENDPOINTS = [
    ("GET", "/engines/{user}/all"),
    ("POST", "/engines/{user}/register"),
    ("DELETE", "/engines/{user}/remove/{name}"),
]

#: the versioned v1 surface (typed envelopes + cursor pagination); the
#: Table-3 routes above remain thin adapters over the same search core
V1_ENDPOINTS = [
    ("GET", "/v1/users"),
    ("GET", "/v1/backends"),
    ("GET", "/v1/registry/{user}/pes"),
    ("GET", "/v1/registry/{user}/workflows"),
    ("GET", "/v1/registry/{user}/workflows/{id}/pes"),
    ("POST", "/v1/registry/{user}/search"),
    # the v1 write surface (typed envelopes, idempotency keys,
    # conditional writes); legacy register/remove routes stay as thin
    # adapters over the same execute_write core
    ("PUT", "/v1/registry/{user}/pes/{name}"),
    ("PUT", "/v1/registry/{user}/workflows/{name}"),
    ("POST", "/v1/registry/{user}/pes:bulk"),
    ("POST", "/v1/registry/{user}/workflows:bulk"),
    ("DELETE", "/v1/registry/{user}/pes/{name}"),
    ("DELETE", "/v1/registry/{user}/workflows/{name}"),
    # conditional single-record reads (ETag / If-None-Match)
    ("GET", "/v1/registry/{user}/pes/{name}"),
    ("GET", "/v1/registry/{user}/workflows/{name}"),
    # background jobs + repository ingestion
    ("POST", "/v1/registry/{user}/ingest"),
    ("GET", "/v1/jobs"),
    ("GET", "/v1/jobs/{id}"),
    ("POST", "/v1/jobs/{id}:cancel"),
]


class TestEndpointTable:
    def test_every_table3_endpoint_installed(self, server):
        installed = set(server.endpoints())
        for endpoint in TABLE3_ENDPOINTS:
            assert endpoint in installed, f"missing endpoint {endpoint}"

    def test_no_unexpected_endpoints(self, server):
        expected = (
            set(TABLE3_ENDPOINTS)
            | set(EXTENSION_ENDPOINTS)
            | set(V1_ENDPOINTS)
        )
        assert set(server.endpoints()) == expected


class TestAuthFlow:
    def test_register_login_roundtrip(self, server):
        response = server.dispatch(
            Request("POST", "/auth/register", {"userName": "a", "password": "b"})
        )
        assert response.status == 201
        login = server.dispatch(
            Request("POST", "/auth/login", {"userName": "a", "password": "b"})
        )
        assert login.status == 200 and "token" in login.body

    def test_bad_login_gets_401_envelope(self, server):
        response = server.dispatch(
            Request("POST", "/auth/login", {"userName": "a", "password": "x"})
        )
        assert response.status == 401
        assert response.body["error"] == "AuthenticationError"
        assert response.body["code"] == 401
        assert "message" in response.body

    def test_missing_token_rejected(self, server, token):
        response = server.dispatch(Request("GET", "/registry/zz46/pe/all"))
        assert response.status == 401
        assert "login" in response.body["message"]

    def test_token_user_mismatch_rejected(self, server, token):
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "mallory", "password": "m"})
        )
        response = server.dispatch(
            Request("GET", "/registry/mallory/pe/all", token=token)
        )
        assert response.status == 401
        assert "does not belong" in response.body["message"]

    def test_auth_all_lists_users_without_passwords(self, server, token):
        response = server.dispatch(Request("GET", "/auth/all"))
        assert response.status == 200
        [user] = response.body["users"]
        assert user["userName"] == "zz46"
        assert "password" not in user


class TestErrorEnvelopes:
    def test_unknown_route_404(self, server):
        response = server.dispatch(Request("GET", "/nope"))
        assert response.status == 404
        assert response.body["error"] == "NotFoundError"

    def test_missing_pe_404_with_params(self, server, token):
        response = server.dispatch(
            Request("GET", "/registry/zz46/pe/id/999", token=token)
        )
        assert response.status == 404
        assert response.body["params"]["peId"] == "999"

    def test_validation_error_400(self, server, token):
        response = server.dispatch(
            Request("POST", "/registry/zz46/pe/add", {"description": "x"}, token=token)
        )
        assert response.status == 400
        assert response.body["error"] == "ValidationError"

    def test_non_integer_id_param_400(self, server, token):
        response = server.dispatch(
            Request("GET", "/registry/zz46/pe/id/notanint", token=token)
        )
        assert response.status == 400

    def test_unknown_search_type_400(self, server, token):
        response = server.dispatch(
            Request("GET", "/registry/zz46/search/foo/type/everything", token=token)
        )
        assert response.status == 400

    def test_internal_errors_become_500_envelopes(self, server, token, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(server.registry, "owned_records", boom)
        response = server.dispatch(
            Request("GET", "/registry/zz46/pe/all", token=token)
        )
        assert response.status == 500
        assert response.body["error"] == "InternalError"
        assert "kaboom" in response.body["message"]


#: legacy write bodies whose optional field is malformed, and the field
#: the 400 names: each was a 500 or a silent coercion before the legacy
#: routes passed these fields through the v1 envelope's checks
MALFORMED_LEGACY_FIELDS = [
    ("/registry/zz46/pe/add", {"peImports": 5}, "peImports"),
    ("/registry/zz46/pe/add", {"peImports": "numpy"}, "peImports"),
    ("/registry/zz46/pe/add", {"peImports": [1]}, "peImports"),
    ("/registry/zz46/pe/add", {"descEmbedding": "abc"}, "descEmbedding"),
    ("/registry/zz46/pe/add", {"codeEmbedding": [True]}, "codeEmbedding"),
    ("/registry/zz46/workflow/add", {"peIds": ["abc"]}, "peIds"),
    ("/registry/zz46/workflow/add", {"peIds": 7}, "peIds"),
    ("/registry/zz46/workflow/add", {"peIds": [1.9]}, "peIds"),
    ("/registry/zz46/workflow/add", {"peIds": [True]}, "peIds"),
    ("/registry/zz46/workflow/add", {"descEmbedding": [[1]]}, "descEmbedding"),
    ("/execution/zz46/run", {"workflowRef": {"id": "x"}}, "workflowRef"),
    ("/execution/zz46/run", {"workflowRef": {"id": 1.5}}, "workflowRef"),
    ("/execution/zz46/run", {"workflowRef": 5}, "workflowRef"),
    ("/execution/zz46/run", {"workflowRef": "id"}, "workflowRef"),
]


class TestLegacyOptionalFields:
    @pytest.mark.parametrize(
        "path,patch,field",
        MALFORMED_LEGACY_FIELDS,
        ids=[
            f"{path.split('/', 3)[-1]}-{field}-{i}"
            for i, (path, _, field) in enumerate(MALFORMED_LEGACY_FIELDS)
        ],
    )
    def test_malformed_optional_field_is_a_400_naming_it(
        self, server, token, path, patch, field
    ):
        body = (
            {"peName": "P", "peCode": "def p(): pass"}
            if path.endswith("pe/add")
            else {"entryPoint": "w", "workflowCode": "graph = w()"}
            if path.endswith("workflow/add")
            else {}
        )
        response = server.dispatch(
            Request("POST", path, {**body, **patch}, token=token)
        )
        assert response.status == 400, response.body
        assert response.body["error"] == "ValidationError"
        assert field in response.body["message"]
        dao = server.registry.dao
        assert dao.all_pes() == [] and dao.all_workflows() == []

    def test_well_formed_optional_fields_store_as_given(self, server, token):
        pe = server.dispatch(Request(
            "POST", "/registry/zz46/pe/add",
            {"peName": "P", "peCode": "def p(): pass", "peImports": ["numpy"]},
            token=token,
        ))
        assert pe.status == 201 and pe.body["peImports"] == ["numpy"]
        flow = server.dispatch(Request(
            "POST", "/registry/zz46/workflow/add",
            {"entryPoint": "w", "workflowCode": "graph = w()",
             "peIds": [pe.body["peId"]]},
            token=token,
        ))
        assert flow.status == 201 and flow.body["peIds"] == [pe.body["peId"]]


class TestIntegersWiderThan64Bits:
    """A JSON integer outside the 64 bits SQLite stores is a 400 naming
    its field, never an ``OverflowError`` (a 500) from the statement it
    would have been bound into; the widest stored integer still works."""

    WIDE = 2**63

    def send(self, server, token, method, path, body):
        return server.dispatch(Request(method, path, body, token=token))

    def assert_400_naming(self, response, field):
        assert response.status == 400, response.body
        assert response.body["error"] == "ValidationError"
        assert response.body["message"].startswith(f"{field} must fit")

    def test_search_k(self, server, token):
        body = {"query": "adds", "queryType": "text"}
        for k in (self.WIDE, 10**20):
            self.assert_400_naming(
                self.send(
                    server, token, "POST", "/v1/registry/zz46/search",
                    {**body, "k": k},
                ),
                "k",
            )
        widest = self.send(
            server, token, "POST", "/v1/registry/zz46/search",
            {**body, "k": self.WIDE - 1},
        )
        assert widest.status == 200, widest.body

    def test_workflow_pe_ids(self, server, token):
        for wide in (self.WIDE, -self.WIDE - 1, 10**20):
            self.assert_400_naming(
                self.send(
                    server, token, "PUT", "/v1/registry/zz46/workflows/w",
                    {"workflowCode": "g", "peIds": [1, wide]},
                ),
                "peIds",
            )
        assert server.registry.dao.all_workflows() == []
        widest = self.send(
            server, token, "PUT", "/v1/registry/zz46/workflows/w",
            {"workflowCode": "g", "peIds": [self.WIDE - 1, -self.WIDE]},
        )
        assert widest.status == 201, widest.body

    def test_run_workflow_ref(self, server, token):
        for wide in (self.WIDE, 10**20):
            self.assert_400_naming(
                self.send(
                    server, token, "POST", "/execution/zz46/run",
                    {"workflowRef": {"id": wide}},
                ),
                "workflowRef id",
            )
        widest = self.send(
            server, token, "POST", "/execution/zz46/run",
            {"workflowRef": {"id": self.WIDE - 1}},
        )
        assert widest.status == 404, widest.body


def test_a_hybrid_search_takes_the_widest_k(server, token):
    """Hybrid ranks both legs to depth ``max(2k, k + 50)``: past 64 bits
    that depth ranks everything, as no ``k`` does, instead of
    overflowing the text index's ``LIMIT`` (a 500)."""
    server.dispatch(Request(
        "PUT", "/v1/registry/zz46/pes/adds", {"peCode": "def adds(): pass"},
        token=token,
    ))
    for k in (2**62, 2**63 - 1):
        response = server.dispatch(Request(
            "POST", "/v1/registry/zz46/search",
            {"query": "adds", "queryType": "hybrid", "k": k}, token=token,
        ))
        assert response.status == 200, response.body
        assert [hit["name"] for hit in response.body["hits"]] == ["adds"]


#: a lone surrogate, as ``json.loads`` hands it over
LONE = "x\ud800"

#: Table-3 run and engine bodies whose field was a 500 (a ``TypeError``,
#: ``ValueError`` or ``UnicodeEncodeError`` from the handler) before it
#: had a row in its route's field table
RUN_FIELDS = [
    ({"workflowCode": "x", "imports": 5}, "imports"),
    ({"workflowRef": {"name": LONE}}, "workflowRef"),
    ({"workflowCode": "x", "timeout": "abc"}, "timeout"),
]
ENGINE_FIELDS = [
    ({"engineName": "e", "installScale": "abc"}, "installScale"),
    ({"engineName": "e", "installScale": [1]}, "installScale"),
    ({"engineName": "e", "latencyPreset": 5}, "latencyPreset"),
    ({"engineName": "e", "latencyPreset": "bogus"}, "latencyPreset"),
]


class TestTable3BodyFields:
    """Every field the run and engine routes read is a row of their
    field table: a wrong one is a 400 naming it, never a 500."""

    def assert_400_naming(self, response, field):
        assert response.status == 400, response.body
        assert response.body["error"] == "ValidationError"
        assert response.body["message"].startswith(field)
        params = response.body["params"]
        assert field in params or params.get("field") == repr(field)

    @pytest.mark.parametrize(
        "body, field", RUN_FIELDS, ids=[field for _, field in RUN_FIELDS]
    )
    def test_run(self, server, token, body, field):
        self.assert_400_naming(
            server.dispatch(
                Request("POST", "/execution/zz46/run", body, token=token)
            ),
            field,
        )

    @pytest.mark.parametrize(
        "body, field",
        ENGINE_FIELDS,
        ids=[f"{field}-{body[field]}" for body, field in ENGINE_FIELDS],
    )
    def test_engine_register(self, server, token, body, field):
        self.assert_400_naming(
            server.dispatch(
                Request("POST", "/engines/zz46/register", body, token=token)
            ),
            field,
        )
        engines = server.dispatch(
            Request("GET", "/engines/zz46/all", token=token)
        ).body["engines"]
        assert "e" not in [engine["name"] for engine in engines]


class TestPEEndpoints:
    def _add(self, server, token, name="AddTen"):
        from repro.serialization import extract_source, serialize_object

        return server.dispatch(
            Request(
                "POST",
                "/registry/zz46/pe/add",
                {
                    "peName": name,
                    "peCode": serialize_object(AddTen),
                    "peSource": extract_source(AddTen),
                    "description": "adds ten",
                },
                token=token,
            )
        )

    def test_add_returns_record(self, server, token):
        response = self._add(server, token)
        assert response.status == 201
        assert response.body["peName"] == "AddTen"
        assert response.body["peId"] >= 1

    def test_get_by_name_and_id(self, server, token):
        pe_id = self._add(server, token).body["peId"]
        by_id = server.dispatch(
            Request("GET", f"/registry/zz46/pe/id/{pe_id}", token=token)
        )
        by_name = server.dispatch(
            Request("GET", "/registry/zz46/pe/name/AddTen", token=token)
        )
        assert by_id.body["peId"] == by_name.body["peId"] == pe_id

    def test_remove_by_name(self, server, token):
        self._add(server, token)
        response = server.dispatch(
            Request("DELETE", "/registry/zz46/pe/remove/name/AddTen", token=token)
        )
        assert response.status == 200 and response.body["removed"]

    def test_put_link_pe_to_workflow(self, server, token):
        from repro.serialization import serialize_object

        pe_id = self._add(server, token).body["peId"]
        workflow = server.dispatch(
            Request(
                "POST",
                "/registry/zz46/workflow/add",
                {
                    "entryPoint": "linked",
                    "workflowCode": serialize_object(AddTen),
                },
                token=token,
            )
        )
        workflow_id = workflow.body["workflowId"]
        response = server.dispatch(
            Request(
                "PUT",
                f"/registry/zz46/workflow/{workflow_id}/pe/{pe_id}",
                token=token,
            )
        )
        assert response.status == 200
        assert response.body["peIds"] == [pe_id]
        pes = server.dispatch(
            Request(
                "GET", f"/registry/zz46/workflow/pes/id/{workflow_id}", token=token
            )
        )
        assert [p["peId"] for p in pes.body["pes"]] == [pe_id]

    def test_auto_description_when_missing(self, server, token):
        from repro.serialization import extract_source, serialize_object

        response = server.dispatch(
            Request(
                "POST",
                "/registry/zz46/pe/add",
                {
                    "peName": "AddTen",
                    "peCode": serialize_object(AddTen),
                    "peSource": extract_source(AddTen),
                },
                token=token,
            )
        )
        assert response.body["description"]  # summarized server-side
        assert response.body["descriptionOrigin"] == "auto"

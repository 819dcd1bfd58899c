"""Controller layer (paper §3.2.1): one controller per system part.

Controllers translate requests into service-layer calls and JSON
responses.  They own *no* business logic — ownership rules live in
:class:`~repro.registry.service.RegistryService`, enactment in the
engine, ranking in the search package.

The endpoint set matches Table 3 of the paper exactly; see
``LaminarServer._install_routes`` for the wiring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AuthenticationError, ValidationError
from repro.net.transport import Request, Response
from repro.registry.entities import (
    RECORD_KINDS,
    PERecord,
    UserRecord,
    WorkflowRecord,
)
from repro.server.schema import (
    AUTH,
    ENGINE,
    PE_ADD,
    RUN,
    T3_SEARCH,
    WORKFLOW_ADD,
    SearchRequest,
    parse,
    parse_int,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.app import LaminarServer


class BaseController:
    """Common helpers: authentication and parameter parsing."""

    def __init__(self, app: "LaminarServer") -> None:
        self.app = app

    # ------------------------------------------------------------------
    def authenticated_user(
        self, request: Request, params: dict[str, str]
    ) -> UserRecord:
        """Resolve the ``{user}`` path parameter and verify the token."""
        user_name = params["user"]
        token_user = self.app.token_user(request.token)
        if token_user is None:
            raise AuthenticationError(
                "missing or invalid auth token; call /auth/login first",
                params={"user": user_name},
            )
        if token_user != user_name:
            raise AuthenticationError(
                f"token does not belong to user {user_name!r}",
                params={"user": user_name, "tokenUser": token_user},
            )
        return self.app.registry.get_user(user_name)

    def token_principal(self, request: Request) -> UserRecord:
        """Resolve the caller from the token alone (routes without a
        ``{user}`` path segment, e.g. ``/v1/jobs``)."""
        token_user = self.app.token_user(request.token)
        if token_user is None:
            raise AuthenticationError(
                "missing or invalid auth token; call /auth/login first"
            )
        return self.app.registry.get_user(token_user)

    @staticmethod
    def int_param(params: dict[str, str], key: str) -> int:
        value = parse_int(params.get(key))
        if not isinstance(value, int):
            raise ValidationError(
                f"path parameter {key!r} must be an integer",
                params={key: params.get(key)},
            )
        return value


class UserController(BaseController):
    """/auth endpoints (Table 3, User controller)."""

    def register(self, request: Request, params: dict[str, str]) -> Response:
        user = self.app.registry.register_user(
            **parse(AUTH, request.body, "auth request", legacy=True)
        )
        return Response(201, user.to_json())

    def login(self, request: Request, params: dict[str, str]) -> Response:
        user = self.app.registry.authenticate(
            **parse(AUTH, request.body, "auth request", legacy=True)
        )
        token = self.app.issue_token(user.user_name)
        return Response(
            200,
            {"token": token, "userId": user.user_id, "userName": user.user_name},
        )

    def all_users(self, request: Request, params: dict[str, str]) -> Response:
        users = [user.to_json() for user in self.app.registry.all_users()]
        return Response(200, {"users": users})


class RecordController(BaseController):
    """The Table-3 routes a PE and a workflow share: one handler per
    route shape, reading what differs by kind from ``RECORD_KINDS``."""

    #: the record class a subclass serves
    record_type: type

    def all_records(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = self.app.registry.owned_records(user, self.record_type)
        return Response(
            200,
            {RECORD_KINDS[self.record_type].plural: [r.to_json() for r in records]},
        )

    def by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_by_id(
            user, self.record_type, self.int_param(params, "id")
        )
        return Response(200, record.to_json())

    def by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_by_name(
            user, self.record_type, params["name"]
        )
        return Response(200, record.to_json())

    def remove_by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        return self._remove(user, target_id=self.int_param(params, "id"))

    def remove_by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        return self._remove(user, target_name=params["name"])

    def _remove(self, user: UserRecord, **target) -> Response:
        from repro.server.v1_write import WriteCommand, execute_write

        kind = RECORD_KINDS[self.record_type].kind
        execute_write(
            self.app, user, WriteCommand(action="delete", kind=kind, **target)
        )
        return Response(200, {"removed": True})


class PEController(RecordController):
    """/registry/{user}/pe endpoints (Table 3, PE controller)."""

    record_type = PERecord

    def add(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 PE registration — a thin adapter over the v1
        write core.

        Validation order, the §3.1.1 summarize/embed fallbacks, the 201
        body (the stored record, no envelope) and every error shape are
        byte-identical to the historical handler; the actual write runs
        through the same serialized
        :func:`~repro.server.v1_write.execute_write` path the versioned
        endpoints use.  The body is the :data:`~repro.server.schema.PE_ADD`
        table, so a malformed field is a 400 naming it.
        """
        from repro.server.v1_write import (
            WriteCommand,
            build_pe_record,
            execute_write,
        )

        user = self.authenticated_user(request, params)
        record = build_pe_record(
            self.app,
            **parse(PE_ADD, request.body, "register request", legacy=True),
        )
        outcome = execute_write(
            self.app, user, WriteCommand(action="register", kind="pe", record=record)
        )
        return Response(201, outcome.records[0].to_json())


class WorkflowController(RecordController):
    """/registry/{user}/workflow endpoints (Table 3, Workflow controller)."""

    record_type = WorkflowRecord

    def add(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 workflow registration — thin adapter over the
        v1 write core (see :meth:`PEController.add`)."""
        from repro.server.v1_write import (
            WriteCommand,
            build_workflow_record,
            execute_write,
        )

        user = self.authenticated_user(request, params)
        record = build_workflow_record(
            self.app,
            **parse(WORKFLOW_ADD, request.body, "register request", legacy=True),
        )
        outcome = execute_write(
            self.app,
            user,
            WriteCommand(action="register", kind="workflow", record=record),
        )
        return Response(201, outcome.records[0].to_json())

    def pes_by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = self.app.registry.workflow_pes(user, self.int_param(params, "id"))
        return Response(200, {"pes": [pe.to_json() for pe in records]})

    def pes_by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = self.app.registry.workflow_pes_by_name(user, params["name"])
        return Response(200, {"pes": [pe.to_json() for pe in records]})

    def link_pe(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.link_pe_to_workflow(
            user,
            self.int_param(params, "workflowId"),
            self.int_param(params, "peId"),
        )
        return Response(200, record.to_json())


class ExecutionController(BaseController):
    """/execution/{user}/run (Table 3, Execution controller)."""

    def run(self, request: Request, params: dict[str, str]) -> Response:
        # imported here, with the engine pool: the only route that needs
        # the dataflow stack (see LaminarServer.engines)
        from repro.engine.engine import ExecutionRequest
        from repro.serialization.imports import merge_requirements

        user = self.authenticated_user(request, params)
        run = parse(RUN, request.body, "run request", legacy=True)
        body = dict(request.body or {})

        # resolve a registry reference into a shipped payload
        ref = run["workflow_ref"]
        body.pop("workflowRef", None)
        if ref is not None:
            if "id" in ref:
                record = self.app.registry.get_by_id(
                    user, WorkflowRecord, ref["id"]
                )
            else:
                record = self.app.registry.get_by_name(
                    user, WorkflowRecord, ref["name"]
                )
            body.setdefault("workflowCode", record.workflow_code)
            body.setdefault("workflowName", record.entry_point)
            pes = self.app.registry.workflow_pes(user, record.workflow_id)
            sources = [record.workflow_source] + [pe.pe_source for pe in pes]
            imports = set(run["imports"])
            imports.update(merge_requirements(sources))
            for pe in pes:
                imports.update(pe.pe_imports)
            body["imports"] = sorted(imports)

        engine_name = body.pop("engine", None)
        outcome = self.app.engines.execute(
            ExecutionRequest.from_json(body), engine_name=engine_name
        )
        return Response(200, outcome.to_json())


class EngineController(BaseController):
    """/engines endpoints — the §3.3/§8 multiple-engine extension.

    Not part of the paper's Table 3 (which predates the feature); the
    endpoint style follows the same conventions.
    """

    def all_engines(self, request: Request, params: dict[str, str]) -> Response:
        self.authenticated_user(request, params)
        return Response(200, {"engines": self.app.engines.stats()})

    def register(self, request: Request, params: dict[str, str]) -> Response:
        self.authenticated_user(request, params)
        engine = parse(ENGINE, request.body, "engine request", legacy=True)
        name = engine.pop("name").strip()
        if not name:
            raise ValidationError("engineName is required")
        entry = self.app.engines.create(name, **engine)
        return Response(201, entry.stats())

    def remove(self, request: Request, params: dict[str, str]) -> Response:
        self.authenticated_user(request, params)
        self.app.engines.remove(params["name"])
        return Response(200, {"removed": True})


class RegistryController(BaseController):
    """/registry/{user}/all and /registry/{user}/search (Table 3)."""

    def all_items(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        return Response(
            200,
            {
                spec.plural: [
                    record.to_json()
                    for record in self.app.registry.owned_records(user, record_type)
                ]
                for record_type, spec in RECORD_KINDS.items()
            },
        )

    def search(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 search — a thin adapter over the v1 core.

        Only the parameter parsing is its own: the ``{type}`` path
        segment and the :data:`~repro.server.schema.T3_SEARCH` body, a
        lenient ``queryType`` (``text``, ``semantic`` or ``code``,
        case-insensitive, with this route's historical error messages)
        and ``k`` and ``queryEmbedding`` as on v1.  The ranking runs
        through the same :func:`~repro.server.v1.execute_search`
        decision tree, so the hits equal the versioned endpoint's field
        for field.
        """
        from repro.server.v1 import check_embedding_width, execute_search

        user = self.authenticated_user(request, params)
        search = params["search"]
        search_type = params["type"].lower()
        if search_type not in ("pe", "workflow", "both"):
            raise ValidationError(
                f"unknown search type {search_type!r}",
                params={"type": search_type},
                details="expected 'pe', 'workflow' or 'both'",
            )
        req = SearchRequest(
            query=search,
            kind=search_type,
            backend="exact",
            **parse(T3_SEARCH, request.body, "search request", legacy=True),
        )
        check_embedding_width(self.app, req)
        search_kind, hits = execute_search(self.app, user, req)
        return Response(200, {"searchKind": search_kind, "hits": hits})

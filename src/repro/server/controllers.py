"""Controller layer (paper §3.2.1): one controller per system part.

Controllers translate requests into service-layer calls and JSON
responses.  They own *no* business logic — ownership rules live in
:class:`~repro.registry.service.RegistryService`, enactment in the
engine, ranking in the search package.

The endpoint set matches Table 3 of the paper exactly; see
``LaminarServer._install_routes`` for the wiring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import AuthenticationError, ValidationError
from repro.net.transport import Request, Response
from repro.registry.entities import UserRecord

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
        try:
            return int(params[key])
        except (KeyError, ValueError):
            raise ValidationError(
                f"path parameter {key!r} must be an integer",
                params={key: params.get(key)},
            ) from None


class UserController(BaseController):
    """/auth endpoints (Table 3, User controller)."""

    def register(self, request: Request, params: dict[str, str]) -> Response:
        body = request.body
        user = self.app.registry.register_user(
            str(body.get("userName", "")), str(body.get("password", ""))
        )
        return Response(201, user.to_json())

    def login(self, request: Request, params: dict[str, str]) -> Response:
        body = request.body
        user = self.app.registry.authenticate(
            str(body.get("userName", "")), str(body.get("password", ""))
        )
        token = self.app.issue_token(user.user_name)
        return Response(
            200,
            {"token": token, "userId": user.user_id, "userName": user.user_name},
        )

    def all_users(self, request: Request, params: dict[str, str]) -> Response:
        users = [user.to_json() for user in self.app.registry.all_users()]
        return Response(200, {"users": users})


class PEController(BaseController):
    """/registry/{user}/pe endpoints (Table 3, PE controller)."""

    @staticmethod
    def _embedding(body: dict[str, Any], key: str) -> np.ndarray | None:
        data = body.get(key)
        if data is None:
            return None
        return np.asarray(data, dtype=np.float32)

    def add(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 PE registration — a thin adapter over the v1
        write core.

        Validation order, the §3.1.1 summarize/embed fallbacks, the 201
        body (the stored record, no envelope) and every error shape are
        byte-identical to the historical handler; the actual write runs
        through the same serialized
        :func:`~repro.server.v1_write.execute_write` path the versioned
        endpoints use.
        """
        from repro.server.v1_write import (
            WriteCommand,
            build_pe_record,
            execute_write,
        )

        user = self.authenticated_user(request, params)
        body = request.body
        if not body.get("peName"):
            raise ValidationError("peName is required", params={"keys": sorted(body)})
        if not body.get("peCode"):
            raise ValidationError("peCode is required", params={"pe": body.get("peName")})
        record = build_pe_record(
            self.app,
            name=str(body["peName"]),
            code=str(body["peCode"]),
            description=str(body.get("description") or ""),
            origin=str(body.get("descriptionOrigin", "user")),
            source=str(body.get("peSource", "")),
            imports=list(body.get("peImports", [])),
            desc_embedding=self._embedding(body, "descEmbedding"),
            code_embedding=self._embedding(body, "codeEmbedding"),
        )
        outcome = execute_write(
            self.app, user, WriteCommand(action="register", kind="pe", record=record)
        )
        return Response(201, outcome.records[0].to_json())

    def all_pes(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = [pe.to_json() for pe in self.app.registry.user_pes(user)]
        return Response(200, {"pes": records})

    def by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_pe_by_id(user, self.int_param(params, "id"))
        return Response(200, record.to_json())

    def by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_pe_by_name(user, params["name"])
        return Response(200, record.to_json())

    def remove_by_id(self, request: Request, params: dict[str, str]) -> Response:
        from repro.server.v1_write import WriteCommand, execute_write

        user = self.authenticated_user(request, params)
        execute_write(
            self.app,
            user,
            WriteCommand(
                action="delete", kind="pe", target_id=self.int_param(params, "id")
            ),
        )
        return Response(200, {"removed": True})

    def remove_by_name(self, request: Request, params: dict[str, str]) -> Response:
        from repro.server.v1_write import WriteCommand, execute_write

        user = self.authenticated_user(request, params)
        execute_write(
            self.app,
            user,
            WriteCommand(action="delete", kind="pe", target_name=params["name"]),
        )
        return Response(200, {"removed": True})


class WorkflowController(BaseController):
    """/registry/{user}/workflow endpoints (Table 3, Workflow controller)."""

    def add(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 workflow registration — thin adapter over the
        v1 write core (see :meth:`PEController.add`)."""
        from repro.server.v1_write import (
            WriteCommand,
            build_workflow_record,
            execute_write,
        )

        user = self.authenticated_user(request, params)
        body = request.body
        if not body.get("entryPoint"):
            raise ValidationError(
                "entryPoint is required", params={"keys": sorted(body)}
            )
        if not body.get("workflowCode"):
            raise ValidationError(
                "workflowCode is required", params={"workflow": body.get("entryPoint")}
            )
        desc_embedding = body.get("descEmbedding")
        if desc_embedding is not None:
            desc_embedding = np.asarray(desc_embedding, dtype=np.float32)
        record = build_workflow_record(
            self.app,
            entry_point=str(body["entryPoint"]),
            code=str(body["workflowCode"]),
            workflow_name=str(body.get("workflowName", body["entryPoint"])),
            description=str(body.get("description") or ""),
            source=str(body.get("workflowSource", "")),
            pe_ids=[int(x) for x in body.get("peIds", [])],
            desc_embedding=desc_embedding,
        )
        outcome = execute_write(
            self.app,
            user,
            WriteCommand(action="register", kind="workflow", record=record),
        )
        return Response(201, outcome.records[0].to_json())

    def all_workflows(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = [wf.to_json() for wf in self.app.registry.user_workflows(user)]
        return Response(200, {"workflows": records})

    def by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_workflow_by_id(
            user, self.int_param(params, "id")
        )
        return Response(200, record.to_json())

    def by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_workflow_by_name(user, params["name"])
        return Response(200, record.to_json())

    def pes_by_id(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = self.app.registry.workflow_pes(user, self.int_param(params, "id"))
        return Response(200, {"pes": [pe.to_json() for pe in records]})

    def pes_by_name(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        records = self.app.registry.workflow_pes_by_name(user, params["name"])
        return Response(200, {"pes": [pe.to_json() for pe in records]})

    def remove_by_id(self, request: Request, params: dict[str, str]) -> Response:
        from repro.server.v1_write import WriteCommand, execute_write

        user = self.authenticated_user(request, params)
        execute_write(
            self.app,
            user,
            WriteCommand(
                action="delete",
                kind="workflow",
                target_id=self.int_param(params, "id"),
            ),
        )
        return Response(200, {"removed": True})

    def remove_by_name(self, request: Request, params: dict[str, str]) -> Response:
        from repro.server.v1_write import WriteCommand, execute_write

        user = self.authenticated_user(request, params)
        execute_write(
            self.app,
            user,
            WriteCommand(
                action="delete", kind="workflow", target_name=params["name"]
            ),
        )
        return Response(200, {"removed": True})

    def link_pe(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        # a registry write like any other: linking bumps the workflow's
        # revision and the mutation counter, so it must serialize with
        # the v1 write core or it would race every ifVersion CAS
        with self.app.write_lock:
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
        body = dict(request.body)

        # resolve a registry reference into a shipped payload
        ref = body.pop("workflowRef", None)
        if ref is not None:
            if "id" in ref:
                record = self.app.registry.get_workflow_by_id(user, int(ref["id"]))
            elif "name" in ref:
                record = self.app.registry.get_workflow_by_name(
                    user, str(ref["name"])
                )
            else:
                raise ValidationError(
                    "workflowRef must contain 'id' or 'name'",
                    params={"workflowRef": ref},
                )
            body.setdefault("workflowCode", record.workflow_code)
            body.setdefault("workflowName", record.entry_point)
            pes = self.app.registry.workflow_pes(user, record.workflow_id)
            sources = [record.workflow_source] + [pe.pe_source for pe in pes]
            imports = set(body.get("imports", []))
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
        body = request.body
        name = str(body.get("engineName", "")).strip()
        if not name:
            raise ValidationError("engineName is required")
        entry = self.app.engines.create(
            name,
            install_scale=float(body.get("installScale", 0.0)),
            latency_preset=body.get("latencyPreset"),
            description=str(body.get("description", "")),
        )
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
                "pes": [pe.to_json() for pe in self.app.registry.user_pes(user)],
                "workflows": [
                    wf.to_json() for wf in self.app.registry.user_workflows(user)
                ],
            },
        )

    def search(self, request: Request, params: dict[str, str]) -> Response:
        """Legacy Table-3 search — a thin adapter over the v1 core.

        Parameter parsing, validation order, error envelopes and the
        response body shape are kept byte-identical to the historical
        handler; the actual ranking runs through the same
        :func:`~repro.server.v1.execute_search` decision tree the
        versioned endpoint uses, pinned to the exact backend.
        """
        from repro.server.schema import SearchRequest
        from repro.server.v1 import execute_search

        user = self.authenticated_user(request, params)
        search = params["search"]
        search_type = params["type"].lower()
        if search_type not in ("pe", "workflow", "both"):
            raise ValidationError(
                f"unknown search type {search_type!r}",
                params={"type": search_type},
                details="expected 'pe', 'workflow' or 'both'",
            )
        body = request.body or {}
        query_type = str(body.get("queryType", "text")).lower()
        k = body.get("k")
        k = int(k) if k is not None else None
        query_embedding = body.get("queryEmbedding")
        if query_type not in ("text", "semantic", "code"):
            raise ValidationError(
                f"unknown query type {query_type!r}",
                params={"queryType": query_type},
                details="expected 'text', 'semantic' or 'code'",
            )
        req = SearchRequest(
            query=search,
            kind=search_type,
            query_type=query_type,
            backend="exact",
            k=k,
            query_embedding=query_embedding,
        )
        # legacy_text pins the historical LIKE+Python-scorer text
        # pipeline — this route's contract is byte-identical output
        search_kind, hits = execute_search(
            self.app, user, req, legacy_text=True
        )
        return Response(200, {"searchKind": search_kind, "hits": hits})

"""LaminarServer — assembling the layered architecture (paper §3.2).

The server wires Controller -> Service -> DAO together, owns the token
store, and converts every :class:`~repro.errors.ReproError` raised
anywhere below into the standardized JSON error envelope of §3.2.5.
"""

from __future__ import annotations

import secrets
import threading
import traceback
import urllib.parse
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import MethodNotAllowedError, ReproError, error_envelope
from repro.jobs import JobManager
from repro.ml.bundle import ModelBundle
from repro.net.transport import Request, Response
from repro.registry import RegistryService, SqliteDAO
from repro.search import CodeSearcher, SemanticSearcher, VectorIndex
from repro.search.serving import SearchBatcher
from repro.server.api import Router
from repro.server.controllers import (
    EngineController,
    ExecutionController,
    PEController,
    RegistryController,
    UserController,
    WorkflowController,
)
from repro.server.v1 import V1Controller
from repro.server.v1_write import V1WriteController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import EnginePool, ExecutionEngine


class LaminarServer:
    """The coordinating element of the framework.

    Every embedding search reaches its index through ``self.batcher``
    (:class:`~repro.search.serving.SearchBatcher`), which serves each
    search in one direct pass: embed, rank, hydrate.  Nothing is
    batched and there is nothing to tune.

    Parameters
    ----------
    dao:
        Registry store (defaults to ``SqliteDAO()``: an ephemeral
        ``:memory:`` database).
    engine:
        The Execution Engine serving ``/execution/{user}/run`` (default:
        an in-process engine, built with the pool on first use).
    models:
        The model bundle used for server-side summarization/embedding
        fallbacks and search.
    """

    def __init__(
        self,
        dao: SqliteDAO | None = None,
        engine: ExecutionEngine | None = None,
        models: ModelBundle | None = None,
    ) -> None:
        #: per-(user, kind) embedding shards serving /registry/{user}/search;
        #: maintained by the registry service on every PE/workflow mutation
        self.index = VectorIndex()
        #: the one embedding-search path: one direct pass per search
        self.batcher = SearchBatcher()
        self.registry = RegistryService(
            SqliteDAO() if dao is None else dao, index=self.index
        )
        #: the background-job plane (repro.jobs): ingest requests (and
        #: any future long-running work, e.g. workflow runs) submit
        #: here and stream progress through the /v1/jobs routes (a
        #: bounded worker pool; terminal jobs are retained for a bounded
        #: time and count — JobManager's defaults)
        self.jobs = JobManager()
        self._default_engine = engine
        self._engines: EnginePool | None = None
        self._engines_lock = threading.Lock()
        self.models = models or ModelBundle.default()
        self.semantic = SemanticSearcher(self.models.code_search)
        self.code_search = CodeSearcher(self.models.completion)
        self._tokens: dict[str, str] = {}
        self.router = Router()
        self._install_routes()

    @property
    def engines(self) -> EnginePool:
        """Named Execution Engines (§3.3/§8 future work: multiple engines
        registered at one server); ``engine`` becomes the default.

        Built on first use: ``repro.engine`` imports the dataflow stack
        (the mappings, ``multiprocessing``, ``cloudpickle``), which no
        registry or search request needs and every process start would
        otherwise pay for.
        """
        with self._engines_lock:
            if self._engines is None:
                from repro.engine import EnginePool

                self._engines = EnginePool(self._default_engine)
            return self._engines

    # ------------------------------------------------------------------
    # Auth token management
    # ------------------------------------------------------------------
    def issue_token(self, user_name: str) -> str:
        token = secrets.token_hex(16)
        self._tokens[token] = user_name
        return token

    def token_user(self, token: str | None) -> str | None:
        if token is None:
            return None
        return self._tokens.get(token)

    # ------------------------------------------------------------------
    # Routing — the endpoint table of paper Table 3, verbatim
    # ------------------------------------------------------------------
    def _install_routes(self) -> None:
        users = UserController(self)
        pes = PEController(self)
        workflows = WorkflowController(self)
        execution = ExecutionController(self)
        registry = RegistryController(self)
        add = self.router.add

        # PE controller
        add("POST", "/registry/{user}/pe/add", pes.add)
        add("GET", "/registry/{user}/pe/all", pes.all_records)
        add("GET", "/registry/{user}/pe/id/{id}", pes.by_id)
        add("GET", "/registry/{user}/pe/name/{name}", pes.by_name)
        add("DELETE", "/registry/{user}/pe/remove/id/{id}", pes.remove_by_id)
        add("DELETE", "/registry/{user}/pe/remove/name/{name}", pes.remove_by_name)

        # Workflow controller
        add("POST", "/registry/{user}/workflow/add", workflows.add)
        add("GET", "/registry/{user}/workflow/all", workflows.all_records)
        add("GET", "/registry/{user}/workflow/id/{id}", workflows.by_id)
        add("GET", "/registry/{user}/workflow/name/{name}", workflows.by_name)
        add("GET", "/registry/{user}/workflow/pes/id/{id}", workflows.pes_by_id)
        add("GET", "/registry/{user}/workflow/pes/name/{name}", workflows.pes_by_name)
        add(
            "DELETE",
            "/registry/{user}/workflow/remove/id/{id}",
            workflows.remove_by_id,
        )
        add(
            "DELETE",
            "/registry/{user}/workflow/remove/name/{name}",
            workflows.remove_by_name,
        )
        add(
            "PUT",
            "/registry/{user}/workflow/{workflowId}/pe/{peId}",
            workflows.link_pe,
        )

        # Execution controller
        add("POST", "/execution/{user}/run", execution.run)

        # Registry controller
        add("GET", "/registry/{user}/all", registry.all_items)
        add("GET", "/registry/{user}/search/{search}/type/{type}", registry.search)

        # User controller
        add("GET", "/auth/all", users.all_users)
        add("POST", "/auth/login", users.login)
        add("POST", "/auth/register", users.register)

        # Engine controller (extension: §3.3/§8 multiple Execution Engines)
        engines = EngineController(self)
        add("GET", "/engines/{user}/all", engines.all_engines)
        add("POST", "/engines/{user}/register", engines.register)
        add("DELETE", "/engines/{user}/remove/{name}", engines.remove)

        # v1 controller — the versioned surface: typed envelopes, cursor
        # pagination on every listing (the legacy table above stays as
        # thin adapters over the same core)
        v1 = V1Controller(self)
        add("GET", "/v1/users", v1.list_users)
        add("GET", "/v1/backends", v1.list_backends)
        for kind in ("pe", "workflow"):
            add("GET", f"/v1/registry/{{user}}/{kind}s", partial(v1.list_records, kind))
        add("GET", "/v1/registry/{user}/workflows/{id}/pes", v1.workflow_pes)
        add("POST", "/v1/registry/{user}/search", v1.search)
        # conditional single-record reads: revision-based ETags with an
        # If-None-Match 304 short-circuit
        for kind in ("pe", "workflow"):
            add(
                "GET",
                f"/v1/registry/{{user}}/{kind}s/{{name}}",
                partial(v1.get_record, kind),
            )

        # v1 write surface — typed envelopes with idempotency keys and
        # conditional writes; the legacy register/remove routes above
        # are thin adapters over the same execute_write core
        writes = V1WriteController(self)
        for method, tail, handler in (
            ("PUT", "/{name}", writes.put),
            ("POST", ":bulk", writes.bulk),
            ("DELETE", "/{name}", writes.delete),
        ):
            for kind in ("pe", "workflow"):
                add(
                    method,
                    f"/v1/registry/{{user}}/{kind}s{tail}",
                    partial(handler, kind),
                )

        # background jobs + repository ingestion (repro.jobs /
        # repro.ingest): ingest answers 202 with a job id, progress and
        # cancellation ride the owner-scoped /v1/jobs routes
        from repro.server.jobs_api import IngestController, JobsController

        jobs = JobsController(self)
        add("GET", "/v1/jobs", jobs.list_jobs)
        add("GET", "/v1/jobs/{id}", jobs.get_job)
        add("POST", "/v1/jobs/{id}:cancel", jobs.cancel_job)
        ingest = IngestController(self)
        add("POST", "/v1/registry/{user}/ingest", ingest.start)

    # ------------------------------------------------------------------
    # Dispatch with standardized error handling (paper §3.2.5)
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        try:
            request = self._merge_query_string(request)
            handler, params = self.router.resolve(request.method, request.path)
            return handler(request, params)
        except MethodNotAllowedError as exc:
            # RFC 9110: a 405 names the methods the resource supports
            return Response(
                exc.code, exc.to_json(), {"Allow": ", ".join(exc.allowed)}
            )
        except ReproError as exc:
            return Response(exc.code, exc.to_json())
        except Exception as exc:  # unforeseen behaviour -> 500 envelope
            return Response(
                500,
                error_envelope(
                    "InternalError",
                    500,
                    f"{type(exc).__name__}: {exc}",
                    details=traceback.format_exc(limit=5),
                ),
            )

    @staticmethod
    def _merge_query_string(request: Request) -> Request:
        """Fold ``?key=value`` pairs into the request body (body wins).

        Standard HTTP tooling cannot attach a body to GET, so the v1
        listings accept ``?limit=…&cursor=…`` too; an explicit JSON
        body always takes precedence over the query string.  Only an
        object or an absent body (``None``) takes the pairs: any other
        body goes on as sent, for the route's own check to refuse.  Paths
        without a ``?`` pass through untouched (path *segments* encode
        literal question marks as ``%3F``, so splitting on the raw
        ``?`` is exactly the HTTP semantics).
        """
        path, sep, query = request.path.partition("?")
        if not sep:
            return request
        body = request.body
        if body is None or isinstance(body, dict):
            body = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(query).items()
            } | (body or {})
        return Request(
            request.method, path, body, request.token, request.headers
        )

    def endpoints(self) -> list[tuple[str, str]]:
        """The (method, pattern) table — mirrors paper Table 3."""
        return self.router.endpoints()

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
from typing import TYPE_CHECKING

from repro.errors import MethodNotAllowedError, ReproError, error_envelope
from repro.jobs import JobManager
from repro.ml.bundle import ModelBundle
from repro.net.transport import Request, Response
from repro.registry import InMemoryDAO, RegistryDAO, RegistryService
from repro.search import CodeSearcher, SemanticSearcher
from repro.search.backend import build_backends
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

    Parameters
    ----------
    dao:
        Registry storage backend (defaults to in-memory).
    engine:
        The Execution Engine serving ``/execution/{user}/run`` (default:
        an in-process engine, built with the pool on first use).
    models:
        The model bundle used for server-side summarization/embedding
        fallbacks and search.
    search_batch_window:
        How long (seconds) a search request leading a micro-batch waits
        for concurrent same-shard requests to join before flushing; 0
        disables coalescing (every request flushes alone).  Lone
        requests never wait regardless.
    search_batch_max:
        Size cap per micro-batch; a full batch flushes immediately.
    backend_options:
        Per-backend construction options, keyed by backend name (e.g.
        ``{"ivf": {"nprobe": 16}}``); see :mod:`repro.search.backend`.
    scatter_shards:
        When positive, add a ``scatter`` backend fanning queries over
        this many in-process shard workers (each with its own index and
        lock — see :mod:`repro.search.scatter`), mirrored from the exact
        index on every registry mutation.
    shard_transports:
        Transports to remote shard nodes (``repro.server.shardnode``);
        each becomes a :class:`~repro.search.scatter.RemoteShardWorker`
        appended after the in-process workers.  Implies the scatter
        backend even when ``scatter_shards`` is 0.
    receipt_ttl:
        Seconds an idempotency receipt stays replayable; ``None`` (the
        default) keeps receipts forever.  Enforced opportunistically on
        keyed writes (no background sweeper).
    receipt_cap:
        Maximum finalized receipts retained (oldest dropped first);
        ``None`` means unbounded.
    job_workers:
        Background-job concurrency (ingests, future workflow runs); the
        pool is bounded so heavy jobs cannot starve the serving path.
    job_retention_ttl / job_retention_cap:
        How long / how many *terminal* job records stay readable on the
        ``/v1/jobs`` routes (live jobs are never pruned).
    """

    def __init__(
        self,
        dao: RegistryDAO | None = None,
        engine: ExecutionEngine | None = None,
        models: ModelBundle | None = None,
        search_batch_window: float = 0.003,
        search_batch_max: int = 16,
        backend_options: dict[str, dict] | None = None,
        scatter_shards: int = 0,
        shard_transports: list | None = None,
        receipt_ttl: float | None = None,
        receipt_cap: int | None = None,
        job_workers: int = 2,
        job_retention_ttl: float | None = 3600.0,
        job_retention_cap: int | None = 500,
    ) -> None:
        #: every registered index backend over one shared exact index;
        #: requests select by name (SearchRequest.backend), the exact
        #: entry is the reference the approximate engines re-rank from
        self.backends = build_backends(options=backend_options)
        #: per-(user, kind) embedding shards serving /registry/{user}/search;
        #: maintained by the registry service on every PE/workflow mutation
        self.index = self.backends["exact"]
        #: micro-batching dispatcher: concurrent same-shard searches are
        #: coalesced into one index pass (bitwise-identical results)
        self.batcher = SearchBatcher(
            window=search_batch_window, max_batch=search_batch_max
        )
        self.registry = RegistryService(dao or InMemoryDAO(), index=self.index)
        #: approximate companion backends restore their persisted
        #: training state (centroids + inverted lists stamped at the
        #: slab snapshot's mutation counter) so a warm cold start skips
        #: the lazy k-means retrain entirely
        for backend in self.backends.values():
            if hasattr(backend, "adopt_states"):
                self.registry.attach_approx_backend(backend)
        #: scatter/gather serving: the backend is *per-server* (not in
        #: the global registry — it only makes sense mirrored from this
        #: server's registry service), selectable by name like any other
        if scatter_shards > 0 or shard_transports:
            from repro.search.scatter import (
                LocalShardWorker,
                RemoteShardWorker,
                ScatterGatherBackend,
            )

            workers: list = [
                LocalShardWorker(i) for i in range(max(0, int(scatter_shards)))
            ]
            for transport in shard_transports or []:
                workers.append(RemoteShardWorker(len(workers), transport))
            scatter = ScatterGatherBackend(workers)
            self.registry.attach_mirror(scatter)
            self.backends["scatter"] = scatter
        #: receipt GC knobs, applied by execute_write on keyed writes
        self.receipt_ttl = receipt_ttl
        self.receipt_cap = receipt_cap
        #: serializes every API write (v1 routes AND the legacy
        #: adapters) through repro.server.v1_write.execute_write, making
        #: idempotency-receipt checks and ifVersion CAS races atomic;
        #: the search hot path never takes it
        self.write_lock = threading.RLock()
        #: the background-job plane (repro.jobs): ingest requests (and
        #: any future long-running work, e.g. workflow runs) submit
        #: here and stream progress through the /v1/jobs routes
        self.jobs = JobManager(
            workers=job_workers,
            retention_ttl=job_retention_ttl,
            retention_cap=job_retention_cap,
        )
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

    def revoke_token(self, token: str) -> None:
        self._tokens.pop(token, None)

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
        add("GET", "/registry/{user}/pe/all", pes.all_pes)
        add("GET", "/registry/{user}/pe/id/{id}", pes.by_id)
        add("GET", "/registry/{user}/pe/name/{name}", pes.by_name)
        add("DELETE", "/registry/{user}/pe/remove/id/{id}", pes.remove_by_id)
        add("DELETE", "/registry/{user}/pe/remove/name/{name}", pes.remove_by_name)

        # Workflow controller
        add("POST", "/registry/{user}/workflow/add", workflows.add)
        add("GET", "/registry/{user}/workflow/all", workflows.all_workflows)
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
        # pagination on every listing, backend selection by name (the
        # legacy table above stays as thin adapters over the same core)
        v1 = V1Controller(self)
        add("GET", "/v1/users", v1.list_users)
        add("GET", "/v1/backends", v1.list_backends)
        add("GET", "/v1/registry/{user}/pes", v1.list_pes)
        add("GET", "/v1/registry/{user}/workflows", v1.list_workflows)
        add("GET", "/v1/registry/{user}/workflows/{id}/pes", v1.workflow_pes)
        add("POST", "/v1/registry/{user}/search", v1.search)
        # conditional single-record reads: revision-based ETags with an
        # If-None-Match 304 short-circuit
        add("GET", "/v1/registry/{user}/pes/{name}", v1.get_pe)
        add("GET", "/v1/registry/{user}/workflows/{name}", v1.get_workflow)

        # v1 write surface — typed envelopes with idempotency keys and
        # conditional writes; the legacy register/remove routes above
        # are thin adapters over the same execute_write core
        writes = V1WriteController(self)
        add("PUT", "/v1/registry/{user}/pes/{name}", writes.put_pe)
        add("PUT", "/v1/registry/{user}/workflows/{name}", writes.put_workflow)
        add("POST", "/v1/registry/{user}/pes:bulk", writes.bulk_pes)
        add(
            "POST",
            "/v1/registry/{user}/workflows:bulk",
            writes.bulk_workflows,
        )
        add("DELETE", "/v1/registry/{user}/pes/{name}", writes.delete_pe)
        add(
            "DELETE",
            "/v1/registry/{user}/workflows/{name}",
            writes.delete_workflow,
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
        body always takes precedence over the query string.  Paths
        without a ``?`` pass through untouched (path *segments* encode
        literal question marks as ``%3F``, so splitting on the raw
        ``?`` is exactly the HTTP semantics).
        """
        path, sep, query = request.path.partition("?")
        if not sep:
            return request
        merged: dict = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(query).items()
        }
        merged.update(request.body or {})
        return Request(
            request.method, path, merged, request.token, request.headers
        )

    def endpoints(self) -> list[tuple[str, str]]:
        """The (method, pattern) table — mirrors paper Table 3."""
        return self.router.endpoints()

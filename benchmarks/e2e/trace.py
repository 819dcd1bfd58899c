"""The traced run: the workload's schedule replayed in-process with timing
wrappers around each layer's public callables.

No file under ``src/`` is edited.  :data:`TARGETS` is a fixed table of
``(span name, module, attribute path)``; :func:`install` replaces each
attribute with a wrapper that records a span — name, start, end, parent
span, request (root span) — into an in-memory list, and :func:`uninstall`
puts the originals back.  A table entry that no longer resolves raises:
a renamed callable must be re-pointed here, not silently dropped from the
split.  End-to-end metrics are never taken from this run; it is also run
once with the wrappers off, and the ratio of the two is the tracing
overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from . import harness
from .client import check_reply
from .corpus import MAIN_USER, Op, Plan
from .stats import median_or_zero

#: ops of the measured schedule the traced run replays
REPLAY_OPS = 600

#: (span name, module, attribute path) — the layer boundaries
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("server.app.dispatch", "repro.server.app", "LaminarServer.dispatch"),
    ("server.api.resolve", "repro.server.api", "Router.resolve"),
    ("server.schema.parse", "repro.server.schema", "SearchRequest.from_json"),
    ("server.schema.parse", "repro.server.schema", "RegisterPERequest.from_json"),
    ("server.schema.parse", "repro.server.schema", "BulkRegisterRequest.from_json"),
    ("server.schema.render", "repro.server.schema", "SearchResponse.to_json"),
    ("server.schema.render", "repro.server.schema", "WriteResponse.to_json"),
    ("server.v1.execute_search", "repro.server.v1", "execute_search"),
    ("server.v1_write.execute_write", "repro.server.v1_write", "execute_write"),
    ("server.v1_write.build_record", "repro.server.v1_write", "build_pe_record"),
    ("search.serving.submit", "repro.search.serving", "SearchBatcher.submit"),
    ("ml.embedding.embed", "repro.ml.embedding", "EmbeddingModel.embed"),
    ("ml.embedding.embed", "repro.ml.embedding", "EmbeddingModel.embed_many"),
    ("ml.summarize", "repro.ml.summarize", "CodeT5Summarizer.summarize"),
    ("search.index.rank", "repro.search.index", "VectorIndex.search_among"),
    ("search.index.rank", "repro.search.index", "VectorIndex.search_among_many"),
    ("search.index.mutate", "repro.search.index", "VectorIndex.add"),
    ("search.index.mutate", "repro.search.index", "VectorIndex.add_many"),
    ("search.index.mutate", "repro.search.index", "VectorIndex.remove"),
    # rrf_fuse is imported by name into its one caller: patch the use site
    ("search.fusion.rrf_fuse", "repro.server.v1", "rrf_fuse"),
    ("registry.service.owned_ids", "repro.registry.service", "RegistryService.owned_pe_ids"),
    ("registry.service.resolve", "repro.registry.service", "RegistryService.resolve_pes"),
    ("registry.service.register", "repro.registry.service", "RegistryService.upsert_pe"),
    ("registry.service.register", "repro.registry.service", "RegistryService.revise_pe"),
    ("registry.service.register", "repro.registry.service", "RegistryService.register_pe"),
    ("registry.service.register", "repro.registry.service", "RegistryService.register_pes_bulk"),
    ("registry.service.register", "repro.registry.service", "RegistryService.remove_pe_record"),
    ("registry.service.attach_index", "repro.registry.service", "RegistryService.attach_index"),
    ("registry.service.persist_shards", "repro.registry.service", "RegistryService.persist_shards"),
    ("registry.dao.get", "repro.registry.dao", "SqliteDAO.get_pes"),
    ("registry.dao.get", "repro.registry.dao", "SqliteDAO.find_pe_by_name"),
    ("registry.dao.text_topk", "repro.registry.dao", "SqliteDAO.text_topk_pes"),
    ("registry.dao.text_topk", "repro.registry.dao", "SqliteDAO.text_topk_workflows"),
    ("registry.dao.ids_owned", "repro.registry.dao", "SqliteDAO.pe_ids_owned_by"),
    ("registry.dao.insert", "repro.registry.dao", "SqliteDAO.insert_pe"),
    ("registry.dao.insert", "repro.registry.dao", "SqliteDAO.insert_pes"),
    ("registry.dao.insert", "repro.registry.dao", "SqliteDAO.update_pe"),
    ("registry.dao.insert", "repro.registry.dao", "SqliteDAO.delete_pe"),
    ("registry.dao.journal", "repro.registry.dao", "SqliteDAO.append_index_delta"),
    ("registry.dao.journal", "repro.registry.dao", "SqliteDAO.upsert_index_shards"),
    # the pipeline imports these three by name: patch the use sites
    ("ingest.walker", "repro.ingest.pipeline", "iter_repo_files"),
    ("ingest.chunker", "repro.ingest.pipeline", "chunk_file"),
    ("ingest.pipeline.run_ingest", "repro.server.jobs_api", "run_ingest"),
)

ROOT = "server.app.dispatch"
JOB_ROOT = "ingest.pipeline.run_ingest"


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int  # the root span of this span's tree
    phase: str  # setup | window | reattach
    tag: str | None  # op class, on foreground roots

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span sink; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tag_next_root(self, tag: str | None) -> None:
        """The op class of the request this thread dispatches next."""
        self._local.tag = tag

    def _begin(self) -> tuple[int, int | None, int, list[int]]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = stack[0] if stack else span_id
        stack.append(span_id)
        return span_id, parent, request, stack

    def _end(self, name: str, begun, start: float, phase: str) -> None:
        end = time.perf_counter()
        span_id, parent, request, stack = begun
        stack.pop()
        tag = getattr(self._local, "tag", None) if parent is None else None
        # list.append is atomic under the interpreter lock
        self.spans.append(
            Span(span_id, name, start, end, parent, request, phase, tag))

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begun = self._begin()
            phase = self.phase
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, begun, start, phase)

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per item: the time spent inside the generator
        producing it, not the time its consumer spends between items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            iterator = fn(*args, **kwargs)
            while True:
                begun = self._begin()
                phase = self.phase
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:  # no item, no span
                    begun[3].pop()
                    return
                except BaseException:
                    begun[3].pop()
                    raise
                self._end(name, begun, start, phase)
                yield item

        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)  # AttributeError: table is stale
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
                owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__))
            elif callable(raw):
                wrapped = self.wrap(name, raw)
            else:
                raise TypeError(f"{module_name}.{path} is not callable")
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()


# ---------------------------------------------------------------------------
# In-process replay
# ---------------------------------------------------------------------------
@dataclass
class Replay:
    """What one in-process run produced."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    batcher: dict[str, float] = field(default_factory=dict)  # window deltas
    compactions: int = 0
    scan_kb_per_query: float = 0.0
    ingest_records: int = 0  # records of the ingest the job spans describe


class InProcess:
    """:meth:`client.Connection.request` over ``LaminarServer.dispatch``,
    so ``harness.seed`` and friends set up either server."""

    def __init__(self, db_path: Path) -> None:
        from repro.ml.bundle import ModelBundle
        from repro.registry.dao import SqliteDAO
        from repro.server import LaminarServer

        self.server = LaminarServer(dao=SqliteDAO(db_path),
                                    models=ModelBundle.default(fit=False))

    def request(self, method: str, path: str, body: dict | None = None,
                token: str | None = None) -> tuple[int, dict, bytes]:
        from repro.net.transport import Request

        response = self.server.dispatch(Request(method, path, body or {}, token))
        return response.status, response.body, b""

    def close(self) -> None:
        self.server.jobs.shutdown(wait=True)
        self.server.registry.dao.close()


def _closed_loop(conn: InProcess, tracer: Tracer | None, ops: list[Op],
                 tokens: dict[str, str], threads: int, solo: frozenset[str],
                 replay: Replay) -> None:
    """``client.run_closed`` with dispatch threads for connections: each
    takes the next op in schedule order as soon as its previous one
    returned; an op whose class is in ``solo`` starts only once nothing
    else is in flight, and nothing else starts until it has returned."""
    feed = iter(ops)
    turn = threading.Lock()  # held from taking an op until it may start
    state = threading.Condition()
    inflight = 0
    alone = False  # the op in flight is a solo one
    errors: list[BaseException] = []

    def run_one(op: Op) -> None:
        if tracer is not None:
            tracer.tag_next_root(op.cls)
        start = time.perf_counter()
        status, body, _ = conn.request(op.method, op.path, op.body,
                                       tokens[op.user])
        seconds = time.perf_counter() - start
        problem = check_reply(op, status, body)
        with state:
            replay.attempted += 1
            if problem is None:
                replay.latencies.setdefault(op.cls, []).append(seconds)
            else:
                replay.failed += 1
                if len(replay.failures) < 10:
                    replay.failures.append(f"{op.cls} {op.path}: {problem}")

    def worker() -> None:
        nonlocal inflight, alone
        try:
            while True:
                with turn:
                    op = next(feed, None)
                    if op is None:
                        return
                    with state:
                        state.wait_for(
                            lambda: not alone
                            and not (op.cls in solo and inflight))
                        inflight += 1
                        alone = op.cls in solo
                try:
                    run_one(op)
                finally:
                    with state:
                        inflight -= 1
                        alone = False
                        state.notify_all()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
        finally:
            if tracer is not None:
                tracer.tag_next_root(None)

    if threads == 1:
        worker()
    else:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if errors:
        raise errors[0]


def replay(plan: Plan, trees: dict[str, Path], db_path: Path,
           tracer: Tracer | None) -> Replay:
    """Set up and replay in this process; with a tracer, under wrappers."""
    result = Replay()
    threads, solo = plan.spec.connections, plan.spec.solo
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    try:
        conn = InProcess(db_path)
        server = conn.server
        try:
            tokens, _ = harness.seed(conn, plan, trees)
            warmup = Replay()
            _closed_loop(conn, None, plan.warmup, tokens, threads, solo, warmup)
            result.failed += warmup.failed
            result.attempted += warmup.attempted
            result.failures += warmup.failures

            ops = plan.window[:REPLAY_OPS]
            batcher_before = server.batcher.stats()
            journal_before = server.registry.shard_persistence()["journal"]
            if tracer is not None:
                tracer.phase = "window"
            if plan.ingest_tree is None:
                result.ingest_records = len(plan.main_tree.funcs)
                _closed_loop(conn, tracer, ops, tokens, threads, solo, result)
            else:
                # the ingest goes through dispatch too, so the job thread's
                # spans are recorded beside the foreground's
                result.ingest_records = len(plan.ingest_tree.funcs)
                token = tokens[MAIN_USER]
                job_id = harness.submit_ingest(
                    conn, MAIN_USER, token, trees[plan.ingest_tree.root])
                _closed_loop(conn, tracer, ops, tokens, threads, solo, result)
                if tracer is None:
                    # only the foreground's latencies are wanted from the
                    # plain run: stop the job at its next batch
                    conn.request("POST", f"/v1/jobs/{job_id}:cancel", None,
                                 token)
                    server.jobs.join(timeout=harness.JOB_TIMEOUT_S)
                else:
                    harness.await_job(conn, token, job_id,
                                      len(plan.ingest_tree.funcs))
            batcher_after = server.batcher.stats()
            journal_after = server.registry.shard_persistence()["journal"]
            result.batcher = {
                key: batcher_after[key] - batcher_before[key]
                for key in ("requests", "batchedRequests", "fallbacks")
            }
            result.compactions = (journal_after["compactions"]
                                  - journal_before["compactions"])
            main = server.registry.get_user(MAIN_USER)
            rows = len(server.registry.owned_pe_ids(main))
            result.scan_kb_per_query = rows * server.semantic.model.dim * 4 / 1024
        finally:
            conn.close()
        if tracer is not None:
            # a second server on the file the first one left: what a
            # restart's attach_index costs after this workload's writes
            tracer.phase = "reattach"
            InProcess(db_path).close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------
class SpanTable:
    """Self times and per-request aggregates over one run's spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        child_seconds: dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child_seconds[span.parent] = (
                    child_seconds.get(span.parent, 0.0) + span.seconds)
        #: a span's duration minus the part its child spans cover
        self.self_seconds = {
            span.span_id: max(0.0, span.seconds
                              - child_seconds.get(span.span_id, 0.0))
            for span in spans
        }
        self.roots = {
            span.span_id: span for span in spans
            if span.parent is None and span.name == ROOT
            and span.phase == "window" and span.tag is not None
        }

    def foreground(self, name: str) -> list[Span]:
        """Spans called ``name`` inside the window's foreground requests."""
        return [s for s in self.spans
                if s.name == name and s.request in self.roots]

    def self_us(self, name: str) -> float:
        """Mean self time (us) of layer ``name`` per request that entered
        it — per op of the classes that use the layer."""
        spans = self.foreground(name)
        if not spans:
            return 0.0
        requests = {s.request for s in spans}
        total = sum(self.self_seconds[s.span_id] for s in spans)
        return total / len(requests) * 1e6

    def dispatch_p50_ms(self, cls: str) -> float:
        return median_or_zero(
            [s.seconds for s in self.roots.values() if s.tag == cls]) * 1000.0

    def calls_per_search(self, name: str) -> float:
        """Outermost ``name`` spans per search request."""
        searches = {rid for rid, root in self.roots.items()
                    if root.tag in ("semantic", "text", "hybrid", "code")}
        if not searches:
            return 0.0
        by_id = {s.span_id: s for s in self.spans}
        calls = sum(
            1 for s in self.spans
            if s.name == name and s.request in searches
            and by_id[s.parent].name != name
        )
        return calls / len(searches)

    def unattributed_share(self) -> float:
        total = sum(root.seconds for root in self.roots.values())
        own = sum(self.self_seconds[rid] for rid in self.roots)
        return own / total if total else 0.0

    def durations_ms(self, name: str, phase: str | None = None) -> list[float]:
        return [s.seconds * 1000.0 for s in self.spans
                if s.name == name and (phase is None or s.phase == phase)]

    def longest_job(self) -> Span | None:
        jobs = [s for s in self.spans if s.name == JOB_ROOT]
        return max(jobs, key=lambda s: s.seconds) if jobs else None

    def job_busy_seconds(self, job: Span, name: str) -> tuple[int, float]:
        """(span count, total seconds) of ``name`` inside job ``job``."""
        spans = [s for s in self.spans
                 if s.name == name and s.request == job.span_id]
        return len(spans), sum(s.seconds for s in spans)


def overall_p50(replay_result: Replay) -> float:
    return statistics.median(
        [x for values in replay_result.latencies.values() for x in values])

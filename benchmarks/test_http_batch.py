"""Concurrent HTTP search serving + cold start.

Two measurements for the concurrent serving layer, emitted as the
``BENCH_http_batch.json`` trajectory point:

* **Concurrent throughput** — T keep-alive client threads hammer
  ``/registry/{user}/search`` on a real ``serve_http`` socket, all on
  one ``(user, kind)`` shard of an N≈3000-record SQLite registry.  Each
  search is one direct pass (query LRU, one ranking, one hydration of
  the top k); none waits for another.  Gated on exact results, not
  timings: every response, sequential or concurrent, equals the
  brute-force scan's bitwise.  The req/s is recorded, not gated.
* **Cold start** — attaching a ``VectorIndex`` to the same registry:
  one scan of each user's record rows, no record hydrated (zero
  ``all_pes()`` calls).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from repro.ml.bundle import ModelBundle
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search import KIND_DESC, SemanticHit, VectorIndex, exact_scan
from repro.server import LaminarServer
from repro.server.http import serve_http

N_USER = 3000  # records owned by the searching user
N_OTHER = 500  # another tenant's records
DIM = 2048  # matches the embedders' default dimensionality
K = 10
THREADS = 12
REQUESTS_PER_THREAD = 30
QUERY_POOL = [f"synthetic element {i}" for i in range(16)]


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    matrix = rng.standard_normal((n, DIM)).astype(np.float32)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _build_registry(path) -> None:
    rng = np.random.default_rng(2026)
    dao = SqliteDAO(path)
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    for user, count in ((alice, N_USER), (bob, N_OTHER)):
        vectors = _unit_rows(rng, count)
        records = [
            PERecord(
                pe_id=0,
                pe_name=f"{user.user_name}-PE{i}",
                description=f"synthetic element {i} of {user.user_name}",
                pe_code=f"{user.user_name}:{i}".encode("ascii").hex(),
                desc_embedding=vectors[i],
                owners={user.user_id},
            )
            for i in range(count)
        ]
        dao.insert_pes(records)
    dao.close()


class _AttachCounter:
    """DAO proxy counting the full-corpus deserialization passes."""

    def __init__(self, inner):
        self.inner = inner
        self.all_pes_calls = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name == "all_pes":
            def wrapped(*a, **kw):
                self.all_pes_calls += 1
                return attr(*a, **kw)
            return wrapped
        return attr


def _serve(path):
    server = LaminarServer(
        dao=SqliteDAO(path), models=ModelBundle.default(fit=False)
    )
    token = server.issue_token("alice")
    handle = serve_http(server)
    return server, handle, token


def _search_once(conn, token, query, k=K):
    payload = json.dumps({"queryType": "semantic", "k": k}).encode()
    conn.request(
        "GET",
        f"/registry/alice/search/{query.replace(' ', '%20')}/type/pe",
        body=payload,
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {token}",
        },
    )
    reply = conn.getresponse()
    body = json.loads(reply.read().decode())
    assert reply.status == 200, body
    return body["hits"]


def _hammer(handle, token, expected) -> tuple[float, float]:
    """T threads x R keep-alive requests, each checked against
    ``expected[query]``; returns (seconds, req/s)."""
    barrier = threading.Barrier(THREADS + 1)
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        try:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=60
            )
            # connection + embedding warmup outside the timed region
            query = QUERY_POOL[tid % len(QUERY_POOL)]
            assert _search_once(conn, token, query) == expected[query]
            barrier.wait()  # start line
            for i in range(REQUESTS_PER_THREAD):
                query = QUERY_POOL[(tid + i) % len(QUERY_POOL)]
                assert _search_once(conn, token, query) == expected[query]
            barrier.wait()  # finish line
            conn.close()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(THREADS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    barrier.wait()
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join()
    assert not errors, errors
    total = THREADS * REQUESTS_PER_THREAD
    return elapsed, total / elapsed


def _hammer_best(
    handle, token, expected, rounds: int = 2
) -> tuple[float, float]:
    """Best-of-N rounds: damps load spikes from the shared machine."""
    runs = [_hammer(handle, token, expected) for _ in range(rounds)]
    return min(runs, key=lambda r: r[0])


def test_http_concurrent_search_and_cold_start(tmp_path, record, out_dir):
    db = tmp_path / "bench.db"
    _build_registry(db)

    # -- concurrent serving, one direct pass per search -----------------
    server, handle, token = _serve(db)
    # brute-force reference over the fully materialized corpus; every
    # served response below, sequential or concurrent, must equal it
    alice = server.registry.get_user("alice")
    corpus = server.registry.owned_records(alice, PERecord)
    semantic = server.semantic
    expected = {
        query: [
            SemanticHit.of(record, score).to_json()
            for record, score in exact_scan(
                KIND_DESC,
                corpus,
                semantic.embed_query(query),
                K,
                semantic.embed_queries,
            )
        ]
        for query in QUERY_POOL
    }
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    for query in QUERY_POOL:
        assert _search_once(conn, token, query) == expected[query]
    conn.close()
    seconds, rps = _hammer_best(handle, token, expected)
    handle.shutdown()

    # -- cold start: one scan of the record rows ------------------------
    attach_dao = _AttachCounter(SqliteDAO(db))
    attach_service = RegistryService(attach_dao)
    t0 = time.perf_counter()
    attach_service.attach_index(VectorIndex())
    attach_seconds = time.perf_counter() - t0
    assert attach_dao.all_pes_calls == 0  # zero full-corpus deserialization
    attach_dao.inner.close()

    payload = {
        "benchmark": "http_batch",
        "config": {
            "n_user": N_USER,
            "n_other": N_OTHER,
            "dim": DIM,
            "k": K,
            "threads": THREADS,
            "requests_per_thread": REQUESTS_PER_THREAD,
            "query_pool": len(QUERY_POOL),
        },
        "throughput": {
            "rps": round(rps, 1),
            "seconds": round(seconds, 3),
        },
        "cold_start": {
            "attach_seconds": round(attach_seconds, 4),
            "all_pes_calls": 0,
        },
        "bitwise_identical": True,
    }
    (out_dir / "BENCH_http_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "http_batch",
        "\n".join(
            [
                f"Concurrent HTTP search serving  (N={N_USER}, d={DIM}, "
                f"k={K}, {THREADS} threads x {REQUESTS_PER_THREAD} reqs)",
                f"{'one direct pass per search':<34}{rps:>9.1f} req/s",
                "",
                "Cold-start attach  (same registry, from the record rows)",
                f"{'attach':<34}{attach_seconds * 1000:>9.1f} ms"
                "   0 all_pes() calls",
            ]
        ),
    )

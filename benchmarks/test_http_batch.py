"""Concurrent HTTP serving: micro-batched vs single-shot + cold start.

Two measurements for the concurrent serving layer, emitted as the
``BENCH_http_batch.json`` trajectory point:

* **Concurrent throughput** — T keep-alive client threads hammer
  ``/registry/{user}/search`` on a real ``serve_http`` socket against an
  N≈3000-record SQLite registry, once with the micro-batcher disabled
  (window 0: every request flushes alone, the single-shot baseline) and
  once enabled.  Batching amortizes the owned-id projection, the shard
  membership check and the top-k hydration across each batch; results
  must stay bitwise identical to the single-shot path *and* the
  brute-force scan.
* **Cold start** — attaching a ``VectorIndex`` to the same registry
  from the persisted slab snapshot (zero ``all_pes()`` calls) vs the
  O(corpus) rebuild.
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
from repro.search import VectorIndex
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


def _serve(path, *, window: float, max_batch: int = 32):
    server = LaminarServer(
        dao=SqliteDAO(path),
        models=ModelBundle.default(fit=False),
        search_batch_window=window,
        search_batch_max=max_batch,
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


def _hammer(handle, token) -> tuple[float, float]:
    """T threads x R keep-alive requests; returns (seconds, req/s)."""
    barrier = threading.Barrier(THREADS + 1)
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        try:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=60
            )
            # connection + embedding warmup outside the timed region
            _search_once(conn, token, QUERY_POOL[tid % len(QUERY_POOL)])
            barrier.wait()  # start line
            for i in range(REQUESTS_PER_THREAD):
                _search_once(
                    conn, token, QUERY_POOL[(tid + i) % len(QUERY_POOL)]
                )
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


def _hammer_best(handle, token, rounds: int = 2) -> tuple[float, float]:
    """Best-of-N rounds: damps load spikes from the shared machine."""
    runs = [_hammer(handle, token) for _ in range(rounds)]
    return min(runs, key=lambda r: r[0])


def test_http_micro_batching_and_cold_start(tmp_path, record, out_dir):
    db = tmp_path / "bench.db"
    _build_registry(db)

    # -- single-shot baseline (window 0: no coalescing) -----------------
    server_s, handle_s, token_s = _serve(db, window=0.0)
    conn = http.client.HTTPConnection(handle_s.host, handle_s.port, timeout=60)
    single_hits = {q: _search_once(conn, token_s, q) for q in QUERY_POOL}
    conn.close()
    # brute-force reference over the fully materialized corpus
    alice = server_s.registry.get_user("alice")
    corpus = server_s.registry.user_pes(alice)
    for query in QUERY_POOL:
        brute = server_s.semantic.search(query, corpus, k=K)
        assert single_hits[query] == [h.to_json() for h in brute]
    single_seconds, single_rps = _hammer_best(handle_s, token_s)
    single_stats = server_s.batcher.stats()
    handle_s.shutdown()

    # -- micro-batched serving ------------------------------------------
    server_b, handle_b, token_b = _serve(db, window=0.005)
    conn = http.client.HTTPConnection(handle_b.host, handle_b.port, timeout=60)
    batched_hits = {q: _search_once(conn, token_b, q) for q in QUERY_POOL}
    conn.close()
    # bitwise-identical: same ids, same (rounded-from-identical-float)
    # scores as both the single-shot serving path and the brute force
    assert batched_hits == single_hits
    batched_seconds, batched_rps = _hammer_best(handle_b, token_b)
    batched_stats = server_b.batcher.stats()
    handle_b.shutdown()

    throughput_x = batched_rps / single_rps

    # -- cold start: persisted slabs vs O(corpus) rebuild ---------------
    warm_dao = _AttachCounter(SqliteDAO(db))
    warm_service = RegistryService(warm_dao)
    t0 = time.perf_counter()
    warm_mode = warm_service.attach_index(VectorIndex(), persist=False)
    warm_seconds = time.perf_counter() - t0
    assert warm_mode == "fresh"
    assert warm_dao.all_pes_calls == 0  # zero full-corpus deserialization
    warm_dao.inner.close()

    # no slab, no journal, no coverage: every shard rebuilds from its
    # owner's record rows
    cold_dao = SqliteDAO(db)
    with cold_dao._lock, cold_dao._conn:
        cold_dao._conn.execute("DELETE FROM index_shards")
        cold_dao._conn.execute("DELETE FROM index_deltas")
        cold_dao._conn.execute("UPDATE shard_stamps SET tip = NULL")
    cold_service = RegistryService(cold_dao)
    t0 = time.perf_counter()
    cold_mode = cold_service.attach_index(VectorIndex())  # also re-persists
    cold_seconds = time.perf_counter() - t0
    assert cold_mode == "rebuilt"
    cold_dao.close()
    attach_x = cold_seconds / warm_seconds

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
            "batch_window_s": 0.005,
        },
        "throughput": {
            "single_shot_rps": round(single_rps, 1),
            "batched_rps": round(batched_rps, 1),
            "single_shot_seconds": round(single_seconds, 3),
            "batched_seconds": round(batched_seconds, 3),
            "speedup_x": round(throughput_x, 2),
            "single_stats": single_stats,
            "batched_stats": batched_stats,
        },
        "cold_start": {
            "warm_attach_seconds": round(warm_seconds, 4),
            "cold_attach_seconds": round(cold_seconds, 4),
            "speedup_x": round(attach_x, 1),
            "warm_all_pes_calls": 0,
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
                f"{'single-shot (window=0)':<34}{single_rps:>9.1f} req/s",
                f"{'micro-batched (window=5ms)':<34}{batched_rps:>9.1f} req/s"
                f"   {throughput_x:.2f}x",
                f"{'largest batch coalesced':<34}"
                f"{batched_stats['largestBatch']:>9d}",
                "",
                f"Cold-start attach  (same registry, persisted slabs)",
                f"{'rebuild (no snapshot)':<34}{cold_seconds * 1000:>9.1f} ms",
                f"{'persisted slabs (fresh)':<34}{warm_seconds * 1000:>9.1f} ms"
                f"   {attach_x:.1f}x, 0 all_pes() calls",
            ]
        ),
    )
    # the acceptance bar: >=2x concurrent throughput from micro-batching
    assert throughput_x >= 2.0, payload["throughput"]

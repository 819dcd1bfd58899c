"""Bulk vs one-at-a-time registration throughput (the v1 write surface).

``POST /v1/registry/{user}/pes:bulk`` lands a batch with one DAO
``executemany`` transaction and one index ``add_many`` per shard kind,
where the one-at-a-time path pays a SQLite transaction + incremental
index add per record.  This benchmark measures that amortization end to
end through ``LaminarServer.dispatch`` against a real SQLite file, with
client-supplied embeddings so both paths skip the model and the
difference is pure DAO/index work.

Gate: bulk registration >= 2x the one-at-a-time throughput at N >= 300,
with both paths storing the same registry.

Emits ``BENCH_bulk_register.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.ml.bundle import ModelBundle
from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer

N = 500  # records per path (acceptance: N >= 300)
#: embedding width — small on purpose: envelope float validation is
#: symmetric between the two paths, and keeping it cheap makes the
#: measured difference the *asymmetric* work (per-request dispatch,
#: per-record transactions and index adds vs one batch of each)
DIM = 64


@pytest.fixture(scope="module")
def bundle():
    return ModelBundle.default(fit=False)


def make_items(rng) -> list[dict]:
    items = []
    for i in range(N):
        desc = rng.standard_normal(DIM).astype(np.float32)
        code = rng.standard_normal(DIM).astype(np.float32)
        items.append(
            {
                "peName": f"pe{i:04d}",
                "peCode": f"def pe{i:04d}(x): return x + {i}",
                "description": f"benchmark element number {i}",
                "descEmbedding": [float(v) for v in desc / np.linalg.norm(desc)],
                "codeEmbedding": [float(v) for v in code / np.linalg.norm(code)],
            }
        )
    return items


def fresh_server(tmp_path, bundle, name: str):
    server = LaminarServer(dao=SqliteDAO(tmp_path / name), models=bundle)
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "b", "password": "p"})
    )
    token = server.dispatch(
        Request("POST", "/auth/login", {"userName": "b", "password": "p"})
    ).body["token"]
    return server, token


def test_bulk_register_throughput(tmp_path, record, out_dir):
    items = make_items(np.random.default_rng(42))

    # one-at-a-time: N PUTs
    single_server, token = fresh_server(tmp_path, ModelBundle.default(fit=False), "single.db")
    start = time.perf_counter()
    for item in items:
        body = {k: v for k, v in item.items() if k != "peName"}
        response = single_server.dispatch(
            Request(
                "PUT",
                f"/v1/registry/b/pes/{item['peName']}",
                body,
                token=token,
            )
        )
        assert response.status == 201, response.body
    single_seconds = time.perf_counter() - start

    # bulk: one request, one executemany, one add_many per kind
    bulk_server, token = fresh_server(tmp_path, ModelBundle.default(fit=False), "bulk.db")
    start = time.perf_counter()
    response = bulk_server.dispatch(
        Request(
            "POST", "/v1/registry/b/pes:bulk", {"items": items}, token=token
        )
    )
    bulk_seconds = time.perf_counter() - start
    assert response.status == 201, response.body
    assert response.body["count"] == N
    assert all(item["created"] for item in response.body["items"])

    # both paths must store identical registries (same names, same count)
    assert (
        bulk_server.registry.dao.pe_ids_owned_by(1)
        == single_server.registry.dao.pe_ids_owned_by(1)
    )

    speedup = single_seconds / bulk_seconds
    single_rps = N / single_seconds
    bulk_rps = N / bulk_seconds
    text = "\n".join(
        [
            "bulk registration throughput (v1 write surface, SQLite-backed)",
            f"  records             : {N} (d={DIM}, embeddings client-supplied)",
            f"  one-at-a-time       : {single_seconds:8.3f}s  ({single_rps:8.1f} rec/s)",
            f"  pes:bulk            : {bulk_seconds:8.3f}s  ({bulk_rps:8.1f} rec/s)",
            f"  speedup             : {speedup:8.2f}x",
        ]
    )
    record("BENCH_bulk_register", text)
    (out_dir / "BENCH_bulk_register.json").write_text(
        json.dumps(
            {
                "n": N,
                "dim": DIM,
                "singleSeconds": round(single_seconds, 4),
                "bulkSeconds": round(bulk_seconds, 4),
                "singleRecordsPerSecond": round(single_rps, 1),
                "bulkRecordsPerSecond": round(bulk_rps, 1),
                "speedup": round(speedup, 2),
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= 2.0, (
        f"bulk registration should amortize at least 2x over "
        f"one-at-a-time, got {speedup:.2f}x"
    )

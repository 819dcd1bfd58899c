"""Bulk vs one-at-a-time registration throughput (the v1 write surface).

``POST /v1/registry/{user}/pes:bulk`` lands a batch with one DAO
``executemany`` transaction and one index ``add_many`` per shard kind,
where the one-at-a-time path pays a SQLite transaction + incremental
index add per record.  This benchmark measures both paths end to
end through ``LaminarServer.dispatch`` against a real SQLite file, with
client-supplied embeddings at the model's width (2 048: a narrower one
is a 400) so both paths skip the model.

Both paths must store the same registry; the throughput ratio is
printed and recorded, not gated.  Validating and converting each
record's two 2 048-wide vectors is work both paths do once per record,
and it dominates both, so the wall-clock ratio says little about the
amortization itself (1.6x-2.3x, median 1.86x, over seven runs on a
2-CPU host).  That claim — one commit,
``7 + 4 N`` statements and one index ``add_many`` per shard kind for a
bulk of N, against one commit, 11 statements and an index ``add`` per
shard kind for each PUT — is pinned exactly in tier-1
(``tests/registry/test_write_cost.py::
test_a_bulk_amortizes_the_per_record_transaction_and_index_add``).

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

N = 500  # records per path
#: embedding width: the model's, as the width check requires
DIM = 2048


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

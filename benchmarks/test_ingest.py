"""Repository ingestion throughput vs the one-at-a-time PUT path.

The comparison a client actually faces, end to end over real HTTP:
landing a repository either as ONE ``POST /v1/registry/{user}/ingest``
(the background job walks, chunks, embeds and bulk-registers in
bounded batches — one executemany + one index ``add_many`` per batch)
or as one ``PUT /v1/registry/{user}/pes/{name}`` round trip per chunk,
each paying a full HTTP request, dispatch, a per-record transaction
and an incremental index add.  Both paths run the same summarize/embed
model work per record, so the measured gap is the asymmetric
per-request overhead the pipeline amortizes.

Also measured, because it is the design's headline property: search
latency **while the ingest job is running** — batches take the write
lock only for their single bulk insert, so the search hot path stays
live mid-ingest.

Gate: submitting the ingest returns a job id in < 1s (the work is
async).  The throughput ratio against the PUT path is printed and
recorded, not gated: as a wall-clock ratio on a shared 2-CPU host it
read anywhere from 2.2x to 8.0x between runs.  What it stood for — a
batch pays one commit and ``5 + 4 b`` statements for its b records,
where each PUT pays one commit and 11 — is pinned exactly in tier-1
(``tests/registry/test_write_cost.py::
test_an_ingest_amortizes_the_per_record_transaction``).

Emits ``BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.ml.bundle import ModelBundle
from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer
from repro.server.api import quote_segment
from repro.server.http import HttpTransport, serve_http

FILES = 60
FUNCS_PER_FILE = 20  # -> 1200 function chunks (acceptance: >= 1000)
BATCH_SIZE = 256

WORDS = (
    "parse", "merge", "filter", "route", "encode", "decode", "batch",
    "stream", "index", "rank", "split", "join", "hash", "scan", "fold",
)


@pytest.fixture(scope="module")
def bundle():
    return ModelBundle.default(fit=False)


def build_corpus(root):
    """FILES modules of FUNCS_PER_FILE small unique functions."""
    for f in range(FILES):
        lines = [f'"""Benchmark module {f}."""', "", "import os", ""]
        for g in range(FUNCS_PER_FILE):
            word = WORDS[(f + g) % len(WORDS)]
            lines += [
                f"def {word}_{f:02d}_{g:02d}(value):",
                f'    """{word.capitalize()} helper {f}-{g}."""',
                f"    return value + {f * FUNCS_PER_FILE + g}",
                "",
            ]
        target = root / f"pkg{f % 6}" / f"mod{f:02d}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines))


def corpus_chunks(root):
    from repro.ingest.chunker import chunk_file
    from repro.ingest.walker import iter_repo_files

    chunks = []
    for relative, text in iter_repo_files(str(root)):
        if text is None:
            continue
        parsed = chunk_file(relative, text)
        if parsed:
            chunks.extend(parsed)
    return chunks


def fresh_server(tmp_path, bundle, name):
    return LaminarServer(dao=SqliteDAO(tmp_path / name), models=bundle)


def login(transport):
    creds = {"userName": "b", "password": "p"}
    transport.request(Request("POST", "/auth/register", creds))
    return transport.request(
        Request("POST", "/auth/login", creds)
    ).body["token"]


def test_ingest_throughput_and_live_search(tmp_path, bundle, record, out_dir):
    corpus = tmp_path / "corpus"
    build_corpus(corpus)
    chunks = corpus_chunks(corpus)
    assert len(chunks) >= 1000, "benchmark corpus must be repository-scale"

    # --- ingest path: ONE HTTP POST, then the background job does the work
    ingest_server = fresh_server(tmp_path, bundle, "ingest.db")
    with serve_http(ingest_server) as handle:
        transport = HttpTransport(handle.url)
        token = login(transport)
        submit_start = time.perf_counter()
        response = transport.request(
            Request(
                "POST",
                "/v1/registry/b/ingest",
                {"path": str(corpus), "batchSize": BATCH_SIZE},
                token=token,
            )
        )
        submit_seconds = time.perf_counter() - submit_start
        assert response.status == 202, response.body
        job_id = response.body["jobId"]

        # search the live index while the job runs — over HTTP, at a
        # realistic client cadence, not a busy-loop (a spinning poller
        # would only measure its own contention with the job)
        search_latencies = []
        query = {
            "query": "merge and filter a stream",
            "queryType": "semantic",
            "k": 10,
        }
        while True:
            state = transport.request(
                Request("GET", f"/v1/jobs/{job_id}", token=token)
            ).body["job"]["state"]
            search_start = time.perf_counter()
            search = transport.request(
                Request(
                    "POST", "/v1/registry/b/search", dict(query), token=token
                )
            )
            search_latencies.append(time.perf_counter() - search_start)
            assert search.status == 200
            if state in ("succeeded", "failed", "cancelled"):
                break
            time.sleep(0.02)
        assert ingest_server.jobs.join(timeout=600.0)
        job = ingest_server.jobs.get(job_id)
    assert job["state"] == "succeeded", job
    inserted = job["progress"]["chunksInserted"]
    assert inserted == len(chunks)
    ingest_seconds = job["finishedAt"] - job["startedAt"]
    ingest_rps = inserted / ingest_seconds

    # --- baseline: the same chunks, one HTTP PUT round trip each
    put_server = fresh_server(tmp_path, bundle, "single.db")
    with serve_http(put_server) as handle:
        transport = HttpTransport(handle.url)
        token = login(transport)
        start = time.perf_counter()
        for chunk in chunks:
            put = transport.request(
                Request(
                    "PUT",
                    f"/v1/registry/b/pes/{quote_segment(chunk.name)}",
                    {
                        "peCode": chunk.code,
                        "description": chunk.docstring,
                        "peSource": chunk.source_text(),
                        "peImports": list(chunk.imports),
                    },
                    token=token,
                )
            )
            assert put.status == 201, put.body
        single_seconds = time.perf_counter() - start
    single_rps = len(chunks) / single_seconds

    # both paths must land the same corpus
    assert len(put_server.registry.dao.pe_ids_owned_by(1)) == inserted

    speedup = ingest_rps / single_rps
    lat_sorted = sorted(search_latencies)
    p50 = statistics.median(lat_sorted) * 1000
    p95 = lat_sorted[min(len(lat_sorted) - 1, int(len(lat_sorted) * 0.95))] * 1000
    text = "\n".join(
        [
            "repository ingestion throughput (background job, SQLite-backed)",
            f"  chunks              : {len(chunks)} from {FILES} files "
            f"(batchSize {BATCH_SIZE})",
            f"  job id returned in  : {submit_seconds * 1000:8.1f}ms",
            f"  ingest job          : {ingest_seconds:8.3f}s  "
            f"({ingest_rps:8.1f} rec/s)",
            f"  one-at-a-time PUTs  : {single_seconds:8.3f}s  "
            f"({single_rps:8.1f} rec/s)",
            f"  speedup             : {speedup:8.2f}x",
            f"  concurrent search   : {len(search_latencies)} queries, "
            f"p50 {p50:6.1f}ms  p95 {p95:6.1f}ms",
        ]
    )
    record("BENCH_ingest", text)
    (out_dir / "BENCH_ingest.json").write_text(
        json.dumps(
            {
                "chunks": len(chunks),
                "files": FILES,
                "batchSize": BATCH_SIZE,
                "submitSeconds": round(submit_seconds, 4),
                "ingestSeconds": round(ingest_seconds, 4),
                "ingestRecordsPerSecond": round(ingest_rps, 1),
                "singleSeconds": round(single_seconds, 4),
                "singleRecordsPerSecond": round(single_rps, 1),
                "speedup": round(speedup, 2),
                "concurrentSearch": {
                    "queries": len(search_latencies),
                    "p50Ms": round(p50, 2),
                    "p95Ms": round(p95, 2),
                },
            },
            indent=2,
        )
        + "\n"
    )
    assert submit_seconds < 1.0, (
        f"ingest must hand back a job id immediately, took {submit_seconds:.2f}s"
    )

"""ANN recall/QPS: the IVF-flat backend vs the exact reference scan.

The IVF-flat backend (``repro.search.backend.IVFFlatBackend``) probes
the ``nprobe`` nearest of ``nlist`` inverted lists and re-ranks only
their members with the exact dot product — trading a bounded recall
loss for scanning a fraction of the corpus.  This benchmark measures
that trade on an N≥5000 clustered corpus (embedding spaces are strongly
clustered in practice; uniform random vectors would make *any* ANN
structure useless by construction):

* **recall@10** — |ivf top-10 ∩ exact top-10| / 10, averaged over the
  query set, at the shipped default probe fraction;
* **QPS** — single-thread queries/second through each backend's
  ``search`` entry point (training amortized: the IVF state is built
  once, on the first query after a mutation epoch).

Gates (the v1 API's acceptance bar for ``backend="ivf"``):
recall@10 >= 0.95 and IVF QPS >= 2x exact at the benchmarked nprobe,
while nprobe=nlist stays *bitwise identical* to the exact backend.

The second test adds the HNSW graph backend's row: recall@10 at the
shipped (m, m0, ef) configuration plus batched serving-path QPS against
IVF (best-of interleaved rounds), gating recall >= 0.95 and HNSW QPS >=
IVF QPS.

The third records, ungated, what a restart costs each engine: the first
query on a freshly attached index trains the lists or builds the graph,
since neither is persisted.

Emits ``BENCH_ann_recall.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.search import HNSWBackend, IVFFlatBackend, KIND_DESC, VectorIndex

N = 6000  # corpus rows (acceptance: N >= 5000)
DIM = 512  # high-dimensional enough to be GEMV-bound, fast to build
CENTERS = 64  # latent cluster count of the synthetic embedding space
NOISE = 0.25  # intra-cluster spread
K = 10
N_QUERIES = 200
NLIST = 77  # ~sqrt(N), the standard IVF sizing
NPROBE = 4  # ~5% probe fraction
USER = 1


def _clustered_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    # anchors keep their ~sqrt(DIM) natural norm so NOISE is the
    # intra-cluster spread *relative* to the cluster signal
    anchors = rng.standard_normal((CENTERS, DIM)).astype(np.float32)
    assign = rng.integers(0, CENTERS, size=n)
    rows = anchors[assign] + NOISE * rng.standard_normal((n, DIM)).astype(
        np.float32
    )
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _queries(rng: np.random.Generator, corpus: np.ndarray) -> np.ndarray:
    """Perturbed corpus rows — the lookalike queries retrieval serves."""
    picks = rng.integers(0, corpus.shape[0], size=N_QUERIES)
    # corpus rows are unit-norm; 0.5*NOISE/sqrt(DIM) per component keeps
    # the perturbation at half the intra-cluster spread
    queries = corpus[picks] + (0.5 * NOISE / DIM**0.5) * rng.standard_normal(
        (N_QUERIES, DIM)
    ).astype(np.float32)
    return queries / np.linalg.norm(queries, axis=1, keepdims=True)


def _qps(search, queries: np.ndarray) -> float:
    start = time.perf_counter()
    for q in queries:
        search(USER, KIND_DESC, q, K)
    return queries.shape[0] / (time.perf_counter() - start)


def test_ivf_recall_and_qps_vs_exact(record, out_dir):
    rng = np.random.default_rng(2026)
    corpus = _clustered_rows(rng, N)
    ids = list(range(1, N + 1))
    exact = VectorIndex()
    exact.add_many(USER, KIND_DESC, ids, corpus)
    ivf = IVFFlatBackend(exact, nlist=NLIST, nprobe=NPROBE)
    queries = _queries(rng, corpus)

    # --- correctness gates ------------------------------------------------
    # full probe width must be bitwise identical to the exact backend
    full = IVFFlatBackend(exact, nlist=NLIST, nprobe=NLIST)
    probe_q = queries[0]
    exact_ids, exact_scores = exact.search(USER, KIND_DESC, probe_q, K)
    full_ids, full_scores = full.search(USER, KIND_DESC, probe_q, K)
    assert full_ids == exact_ids
    assert np.array_equal(full_scores, exact_scores)

    # --- recall@10 at the benchmarked nprobe ------------------------------
    overlap = 0
    for q in queries:
        want, _ = exact.search(USER, KIND_DESC, q, K)
        got, _ = ivf.search(USER, KIND_DESC, q, K)
        overlap += len(set(want) & set(got))
    recall = overlap / (K * N_QUERIES)

    # --- QPS (training already amortized by the recall pass) --------------
    exact_qps = _qps(exact.search, queries)
    ivf_qps = _qps(ivf.search, queries)
    speedup = ivf_qps / exact_qps

    text = "\n".join(
        [
            "ANN backend: IVF-flat vs exact reference "
            f"(N={N}, d={DIM}, {CENTERS} latent clusters)",
            f"  nlist={NLIST}  nprobe={NPROBE} "
            f"(~{NPROBE / NLIST:.0%} probe fraction)",
            f"  recall@{K}: {recall:.4f}   (gate: >= 0.95)",
            f"  exact QPS: {exact_qps:,.0f}",
            f"  ivf   QPS: {ivf_qps:,.0f}   ({speedup:.1f}x, gate: >= 2x)",
            f"  ivf trainings: {ivf.trainings}  "
            f"approx/exact queries: {ivf.approx_queries}/{ivf.exact_queries}",
            "  nprobe=nlist parity: bitwise identical to exact",
        ]
    )
    record("BENCH_ann_recall", text)
    (out_dir / "BENCH_ann_recall.json").write_text(
        json.dumps(
            {
                "benchmark": "ann_recall",
                "n": N,
                "dim": DIM,
                "centers": CENTERS,
                "k": K,
                "n_queries": N_QUERIES,
                "nlist": NLIST,
                "nprobe": NPROBE,
                "recall_at_10": round(recall, 4),
                "exact_qps": round(exact_qps, 1),
                "ivf_qps": round(ivf_qps, 1),
                "speedup": round(speedup, 2),
                "full_probe_bitwise_exact": True,
            },
            indent=2,
        )
        + "\n"
    )

    assert recall >= 0.95, f"recall@{K} {recall:.4f} below the 0.95 gate"
    assert speedup >= 2.0, f"IVF speedup {speedup:.2f}x below the 2x gate"


# --- HNSW row ------------------------------------------------------------

HNSW_M = 16  # entry-layer density ~1/16 of the corpus
HNSW_M0 = 96  # base-layer degree: candidates per routed entry
HNSW_EF = 4  # routed entries expanded per query
BATCH = 32  # largest SearchBatcher flush: one per serve_http worker
ROUNDS = 5  # interleaved best-of rounds (single-core QPS is noisy)


def _batched_qps(backend, owned, queries: np.ndarray) -> float:
    ks = [K] * BATCH
    start = time.perf_counter()
    for lo in range(0, queries.shape[0], BATCH):
        chunk = list(queries[lo : lo + BATCH])
        got = backend.search_among_many(
            USER, KIND_DESC, owned, chunk, ks[: len(chunk)]
        )
        assert got is not None
    return queries.shape[0] / (time.perf_counter() - start)


def test_hnsw_recall_and_batched_qps_vs_ivf(record, out_dir):
    """The graph backend must beat IVF on the production serving path.

    Both backends are measured through ``search_among_many`` at the
    batcher's widest flush — the shape deployed traffic actually
    takes — with the rounds interleaved in one process and the best of
    ``ROUNDS`` kept per backend (single-core QPS jitters ±30%, and
    best-of-N compares the backends' attainable throughput rather than
    whichever round the scheduler disliked).  Gates (the v1 acceptance
    bar for ``backend="hnsw"``): recall@10 >= 0.95 and HNSW QPS >= IVF
    QPS at the benchmarked configurations.
    """
    rng = np.random.default_rng(2026)
    corpus = _clustered_rows(rng, N)
    ids = list(range(1, N + 1))
    exact = VectorIndex()
    exact.add_many(USER, KIND_DESC, ids, corpus)
    ivf = IVFFlatBackend(exact, nlist=NLIST, nprobe=NPROBE)
    hnsw = HNSWBackend(exact, m=HNSW_M, m0=HNSW_M0, ef_search=HNSW_EF)
    queries = _queries(rng, corpus)

    # --- recall@10 (also amortizes the lazy build/training) ---------------
    build_start = time.perf_counter()
    overlap_hnsw = overlap_ivf = 0
    for q in queries:
        want, _ = exact.search(USER, KIND_DESC, q, K)
        got_hnsw, _ = hnsw.search(USER, KIND_DESC, q, K)
        got_ivf, _ = ivf.search(USER, KIND_DESC, q, K)
        overlap_hnsw += len(set(want) & set(got_hnsw))
        overlap_ivf += len(set(want) & set(got_ivf))
    recall_hnsw = overlap_hnsw / (K * N_QUERIES)
    recall_ivf = overlap_ivf / (K * N_QUERIES)
    warm_seconds = time.perf_counter() - build_start
    assert hnsw.builds == 1  # one graph build serves the whole run

    # --- batched serving QPS, interleaved best-of rounds ------------------
    ivf_qps = hnsw_qps = 0.0
    for _ in range(ROUNDS):
        ivf_qps = max(ivf_qps, _batched_qps(ivf, ids, queries))
        hnsw_qps = max(hnsw_qps, _batched_qps(hnsw, ids, queries))
    ratio = hnsw_qps / ivf_qps

    text = "\n".join(
        [
            "ANN backend: HNSW graph vs IVF-flat, batched serving path "
            f"(N={N}, d={DIM}, {CENTERS} latent clusters, batch={BATCH})",
            f"  hnsw m={HNSW_M} m0={HNSW_M0} ef={HNSW_EF}   "
            f"ivf nlist={NLIST} nprobe={NPROBE}",
            f"  recall@{K}: hnsw {recall_hnsw:.4f}  ivf {recall_ivf:.4f}"
            "   (gate: hnsw >= 0.95)",
            f"  best-of-{ROUNDS} QPS: hnsw {hnsw_qps:,.0f}  "
            f"ivf {ivf_qps:,.0f}   ({ratio:.2f}x, gate: >= 1x)",
            f"  graph builds: {hnsw.builds} "
            f"(warm pass incl. build: {warm_seconds:.2f}s)",
        ]
    )
    record("BENCH_ann_recall_hnsw", text)
    path = out_dir / "BENCH_ann_recall.json"
    payload = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "ann_recall"
    }
    payload["hnsw"] = {
        "m": HNSW_M,
        "m0": HNSW_M0,
        "ef_search": HNSW_EF,
        "batch": BATCH,
        "rounds": ROUNDS,
        "recall_at_10": round(recall_hnsw, 4),
        "ivf_recall_at_10": round(recall_ivf, 4),
        "hnsw_qps": round(hnsw_qps, 1),
        "ivf_qps": round(ivf_qps, 1),
        "qps_ratio": round(ratio, 2),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")

    assert recall_hnsw >= 0.95, (
        f"hnsw recall@{K} {recall_hnsw:.4f} below the 0.95 gate"
    )
    assert ratio >= 1.0, (
        f"hnsw batched QPS {hnsw_qps:,.0f} below ivf {ivf_qps:,.0f}"
    )


# --- first query after a restart -------------------------------------------

RESTARTS = 3  # fresh attaches per engine


def test_first_query_after_attach(out_dir, tmp_path):
    """What a restart costs an approximate engine: nothing is restored,
    so the first query on a freshly attached index trains the shard's
    IVF lists or builds its HNSW graph before it ranks.

    Each of ``RESTARTS`` rounds attaches a new index to the registry
    file (as a restarted server does) and times that engine's first
    query, then a second one over the built structure.  No gate: the
    numbers record the trade.  Training is deterministic, so every
    round's first answer must be the same.
    """
    from repro.registry.dao import SqliteDAO
    from repro.registry.entities import PERecord
    from repro.registry.service import RegistryService
    from repro.search import create_backend

    rng = np.random.default_rng(2026)
    corpus = _clustered_rows(rng, N)
    query = _queries(rng, corpus)[0]
    path = tmp_path / "registry.db"
    dao = SqliteDAO(path)
    user = RegistryService(dao).register_user("ann", "pw")
    dao.insert_pes(
        [
            PERecord(
                pe_id=0,
                pe_name=f"PE{i}",
                description=f"element {i}",
                pe_code=f"{i}".encode("ascii").hex(),
                desc_embedding=corpus[i],
                owners={user.user_id},
            )
            for i in range(N)
        ]
    )
    options = {
        "ivf": {"nlist": NLIST, "nprobe": NPROBE},
        "hnsw": {"m": HNSW_M, "m0": HNSW_M0, "ef_search": HNSW_EF},
    }
    results: dict[str, dict] = {}
    for name, opts in options.items():
        attach_ms, first_ms, second_ms, answers = [], [], [], set()
        for _ in range(RESTARTS):
            index = VectorIndex()
            start = time.perf_counter()
            mode = RegistryService(dao).attach_index(index, persist=False)
            attach_ms.append((time.perf_counter() - start) * 1e3)
            assert mode in ("fresh", "rebuilt")
            backend = create_backend(name, index, **opts)
            start = time.perf_counter()
            ids, _scores = backend.search(user.user_id, KIND_DESC, query, K)
            first_ms.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            backend.search(user.user_id, KIND_DESC, query, K)
            second_ms.append((time.perf_counter() - start) * 1e3)
            answers.add(tuple(ids))
            assert backend.approx_queries == 2
        assert len(answers) == 1  # deterministic rebuild
        results[name] = {
            "attach_ms": [round(v, 1) for v in attach_ms],
            "first_query_ms": [round(v, 1) for v in first_ms],
            "second_query_ms": [round(v, 2) for v in second_ms],
        }
    dao.close()

    lines = [
        "ANN first query after a fresh attach (nothing restored; "
        f"N={N}, d={DIM}, {RESTARTS} attaches per engine)",
    ]
    for name, row in results.items():
        lines.append(
            f"  {name:4}  attach ms {row['attach_ms']}  first query ms "
            f"{row['first_query_ms']}  second query ms {row['second_query_ms']}"
        )
    print("\n" + "\n".join(lines) + "\n")
    path = out_dir / "BENCH_ann_recall.json"
    payload = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "ann_recall"
    }
    payload["first_query_after_attach"] = {"restarts": RESTARTS, **results}
    path.write_text(json.dumps(payload, indent=2) + "\n")

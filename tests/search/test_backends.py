"""IndexBackend protocol, backend registry and the IVF-flat engine."""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.search import (
    KIND_DESC,
    HNSWBackend,
    IVFFlatBackend,
    IndexBackend,
    SearchBatcher,
    VectorIndex,
    backend_names,
    build_backends,
    create_backend,
)


def clustered_rows(rng, n, dim=32, centers=8, noise=0.15):
    """Unit rows drawn around a few cluster centers (IVF's home turf)."""
    anchors = rng.standard_normal((centers, dim)).astype(np.float32)
    rows = np.empty((n, dim), dtype=np.float32)
    for i in range(n):
        vec = anchors[i % centers] + noise * rng.standard_normal(dim).astype(
            np.float32
        )
        rows[i] = vec / np.linalg.norm(vec)
    return rows


@pytest.fixture()
def populated():
    """An exact index with one 400-row clustered shard."""
    rng = np.random.default_rng(11)
    rows = clustered_rows(rng, 400)
    ids = list(range(1, 401))
    base = VectorIndex()
    base.add_many("u", KIND_DESC, ids, rows)
    return base, ids, rows, rng


class TestRegistry:
    def test_exact_ivf_and_hnsw_registered(self):
        names = backend_names()
        assert names[0] == "exact"
        assert "ivf" in names
        assert "hnsw" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown index backend"):
            create_backend("annoy-when")

    def test_create_by_name(self):
        exact = create_backend("exact")
        assert isinstance(exact, VectorIndex)
        ivf = create_backend("ivf", exact, nprobe=2)
        assert isinstance(ivf, IVFFlatBackend)
        assert ivf.base is exact
        hnsw = create_backend("hnsw", exact, m=4)
        assert isinstance(hnsw, HNSWBackend)
        assert hnsw.base is exact and hnsw.m == 4

    def test_build_backends_share_one_exact_index(self):
        backends = build_backends()
        assert set(backends) == set(backend_names())
        assert backends["ivf"].base is backends["exact"]
        assert backends["hnsw"].base is backends["exact"]
        # a mutation through the exact index is visible to the wrapper
        backends["exact"].add("u", KIND_DESC, 1, np.ones(4, np.float32))
        assert backends["ivf"].size("u", KIND_DESC) == 1
        assert backends["hnsw"].size("u", KIND_DESC) == 1

    def test_all_satisfy_the_protocol(self):
        assert isinstance(VectorIndex(), IndexBackend)
        assert isinstance(IVFFlatBackend(), IndexBackend)
        assert isinstance(HNSWBackend(), IndexBackend)

    def test_state_store_routing_attribute(self):
        # the service persists graph state next to (not inside) the IVF
        # store — keyed off this attribute
        assert HNSWBackend().state_store == "hnsw"
        assert getattr(IVFFlatBackend(), "state_store", "ivf") == "ivf"


class TestIVFParity:
    def test_full_probe_bitwise_identical_to_exact(self, populated):
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=16)
        for _ in range(5):
            q = rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            exact_ids, exact_scores = base.search_among(
                "u", KIND_DESC, ids, q, 10
            )
            ivf_ids, ivf_scores = ivf.search_among("u", KIND_DESC, ids, q, 10)
            assert ivf_ids == exact_ids
            assert np.array_equal(ivf_scores, exact_scores)

    def test_k_none_serves_exact_full_ordering(self, populated):
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=2)
        q = rng.standard_normal(32).astype(np.float32)
        got = ivf.search_among("u", KIND_DESC, ids, q, None)
        want = base.search_among("u", KIND_DESC, ids, q, None)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_small_shards_serve_exact(self):
        base = VectorIndex()
        rng = np.random.default_rng(3)
        rows = clustered_rows(rng, 20)
        base.add_many("u", KIND_DESC, list(range(20)), rows)
        ivf = IVFFlatBackend(base, nprobe=1)  # min_train_rows default 64
        q = rows[0]
        got = ivf.search_among("u", KIND_DESC, list(range(20)), q, 5)
        want = base.search_among("u", KIND_DESC, list(range(20)), q, 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert ivf.trainings == 0  # never clustered

    def test_probed_scores_are_exact_rerank(self, populated):
        """IVF-flat never approximates *scores* — only the candidate set."""
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=4)
        q = rng.standard_normal(32).astype(np.float32)
        q /= np.linalg.norm(q)
        exact_ids, exact_scores = base.search_among("u", KIND_DESC, ids, q, 20)
        by_id = dict(zip(exact_ids, exact_scores.tolist()))
        ivf_ids, ivf_scores = ivf.search_among("u", KIND_DESC, ids, q, 20)
        for rid, score in zip(ivf_ids, ivf_scores.tolist()):
            if rid in by_id:
                assert score == by_id[rid]

    def test_high_recall_on_clustered_data(self, populated):
        base, ids, rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=4)
        hits = 0
        trials = 20
        for i in range(trials):
            q = rows[i * 7] + 0.05 * rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            exact_ids, _ = base.search_among("u", KIND_DESC, ids, q, 10)
            ivf_ids, _ = ivf.search_among("u", KIND_DESC, ids, q, 10)
            hits += len(set(exact_ids) & set(ivf_ids))
        assert hits / (10 * trials) >= 0.9


class TestIVFMaintenance:
    def test_mutation_invalidates_training(self, populated):
        base, ids, _rows, rng = populated
        # retrain_fraction=0: eager retraining on any mutation
        ivf = IVFFlatBackend(base, nlist=16, nprobe=2, retrain_fraction=0)
        q = rng.standard_normal(32).astype(np.float32)
        ivf.search_among("u", KIND_DESC, ids, q, 5)
        assert ivf.trainings == 1
        new_vec = np.ones(32, dtype=np.float32) / np.sqrt(32.0)
        base.add("u", KIND_DESC, 999, new_vec)
        got = ivf.search_among("u", KIND_DESC, ids + [999], new_vec, 5)
        assert ivf.trainings == 2  # retrained after the add
        assert got is not None and got[0][0] == 999  # the new row is found

    def test_recent_mutations_serve_exact_until_retrain_amortizes(
        self, populated
    ):
        """Stale lists never serve; cheap writes don't retrain per query."""
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(
            base, nlist=16, nprobe=2, retrain_fraction=0.02
        )  # 400 rows -> retrain after 8 accrued mutations
        q = rng.standard_normal(32).astype(np.float32)
        ivf.search_among("u", KIND_DESC, ids, q, 5)
        assert ivf.trainings == 1
        new_vec = np.ones(32, dtype=np.float32) / np.sqrt(32.0)
        base.add("u", KIND_DESC, 999, new_vec)
        got = ivf.search_among("u", KIND_DESC, ids + [999], new_vec, 5)
        # one mutation is below the threshold: no retrain, but the
        # query still finds the new row through the exact scan
        assert ivf.trainings == 1
        assert got is not None and got[0][0] == 999
        want = base.search_among("u", KIND_DESC, ids + [999], new_vec, 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        # enough further mutations amortize a retrain
        for rid in range(1000, 1010):
            base.add("u", KIND_DESC, rid, new_vec)
        all_ids = ids + [999] + list(range(1000, 1010))
        ivf.search_among("u", KIND_DESC, all_ids, q, 5)
        assert ivf.trainings == 2

    def test_read_heavy_traffic_recovers_approximate_serving(
        self, populated
    ):
        """One write must not pin the backend to exact scans forever:
        after ~nlist stale-served queries the lists retrain."""
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=2)
        q = rng.standard_normal(32).astype(np.float32)
        ivf.search_among("u", KIND_DESC, ids, q, 5)
        assert ivf.trainings == 1
        base.add("u", KIND_DESC, 999, np.ones(32, dtype=np.float32))
        all_ids = ids + [999]
        # a single write is below the write threshold, so reads serve
        # exactly — but only for ~nlist queries, then a retrain fires
        for _ in range(20):
            ivf.search_among("u", KIND_DESC, all_ids, q, 5)
            if ivf.trainings == 2:
                break
        assert ivf.trainings == 2

    def test_degenerate_probe_width_never_trains(self, populated):
        base, ids, _rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=64)  # nprobe >= nlist
        q = rng.standard_normal(32).astype(np.float32)
        got = ivf.search_among("u", KIND_DESC, ids, q, 5)
        want = base.search_among("u", KIND_DESC, ids, q, 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert ivf.trainings == 0  # the k-means was never paid

    def test_removed_id_never_returned(self, populated):
        base, ids, rows, _rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=16)
        base.remove("u", KIND_DESC, ids[0])
        remaining = ids[1:]
        got = ivf.search_among("u", KIND_DESC, remaining, rows[0], 10)
        assert got is not None and ids[0] not in got[0]

    def test_membership_mismatch_returns_none(self, populated):
        base, ids, rows, _rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=2)
        assert ivf.search_among("u", KIND_DESC, ids[:10], rows[0], 5) is None
        assert (
            ivf.search_among("u", KIND_DESC, ids + [12345], rows[0], 5) is None
        )

    def test_invalid_k_rejected(self, populated):
        base, ids, rows, _rng = populated
        ivf = IVFFlatBackend(base)
        with pytest.raises(ValidationError, match="k must be positive"):
            ivf.search_among("u", KIND_DESC, ids, rows[0], 0)

    def test_clear_drops_ivf_state(self, populated):
        base, ids, rows, _rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=2)
        ivf.search_among("u", KIND_DESC, ids, rows[0], 5)
        ivf.clear("u")
        assert ivf.size("u", KIND_DESC) == 0
        with ivf._states_lock:
            assert not ivf._states

    def test_snapshot_delegates_to_base(self, populated):
        base, _ids, _rows, _rng = populated
        ivf = IVFFlatBackend(base)
        assert ivf.snapshot().keys() == base.snapshot().keys()


class TestIVFBatchServing:
    def test_search_among_many_matches_single_shot(self, populated):
        base, ids, rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=4)
        queries = []
        for i in range(6):
            q = rows[i * 13] + 0.05 * rng.standard_normal(32).astype(
                np.float32
            )
            queries.append(q / np.linalg.norm(q))
        ks = [5, 10, 3, None, 5, 7]
        batched = ivf.search_among_many("u", KIND_DESC, ids, queries, ks)
        assert batched is not None
        for (got_ids, got_scores), q, k in zip(batched, queries, ks):
            want_ids, want_scores = ivf.search_among("u", KIND_DESC, ids, q, k)
            assert got_ids == want_ids
            assert np.array_equal(got_scores, want_scores)

    def test_batcher_with_ivf_backend_matches_single_shot(self, populated):
        base, ids, rows, rng = populated
        ivf = IVFFlatBackend(base, nlist=16, nprobe=4)
        records = {rid: {"id": rid} for rid in ids}
        batcher = SearchBatcher(window=0.05, max_batch=8)

        def serve(qvec):
            return batcher.submit(
                index=ivf,
                user="u",
                kind=KIND_DESC,
                owned_ids=lambda: sorted(records),
                k=5,
                query_vector=lambda: qvec,
                resolve=lambda wanted: [
                    records[rid] for rid in wanted if rid in records
                ],
                rid_of=lambda r: r["id"],
                build_hit=lambda r, s: (r["id"], s),
                fallback=lambda recs, q: [],
            )

        queries = [
            rows[i * 17] / np.linalg.norm(rows[i * 17]) for i in range(6)
        ]
        results = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def worker(i):
            barrier.wait()
            results[i] = serve(queries[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for q, got in zip(queries, results):
            assert got == serve(q)


class TestHNSWParity:
    def test_k_none_serves_exact_full_ordering(self, populated):
        base, ids, _rows, rng = populated
        hnsw = HNSWBackend(base, m=8, ef_search=4)
        q = rng.standard_normal(32).astype(np.float32)
        got = hnsw.search_among("u", KIND_DESC, ids, q, None)
        want = base.search_among("u", KIND_DESC, ids, q, None)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_small_shards_serve_exact(self):
        base = VectorIndex()
        rng = np.random.default_rng(3)
        rows = clustered_rows(rng, 20)
        base.add_many("u", KIND_DESC, list(range(20)), rows)
        hnsw = HNSWBackend(base)  # min_build_rows default 64
        q = rows[0]
        got = hnsw.search_among("u", KIND_DESC, list(range(20)), q, 5)
        want = base.search_among("u", KIND_DESC, list(range(20)), q, 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert hnsw.builds == 0  # the graph was never built

    def test_results_are_exact_rerank(self, populated):
        """HNSW never approximates *scores* — only the candidate set.

        Every returned score is a true float32 dot product, matching
        the exact backend's score for the same id to accumulation
        (last-ulp) precision — BLAS may reduce a subset product in a
        different order than the full-shard scan — and the returned
        order is descending score with ascending-id tie-breaking.
        """
        base, ids, _rows, rng = populated
        hnsw = HNSWBackend(base, m=8, m0=16, ef_search=4)
        for _ in range(5):
            q = rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            exact_ids, exact_scores = base.search_among(
                "u", KIND_DESC, ids, q, None
            )
            by_id = dict(zip(exact_ids, exact_scores.tolist()))
            got_ids, got_scores = hnsw.search_among("u", KIND_DESC, ids, q, 10)
            for rid, score in zip(got_ids, got_scores.tolist()):
                assert score == pytest.approx(by_id[rid], abs=1e-6)
            ranked = list(zip(got_scores.tolist(), got_ids))
            for (s_a, id_a), (s_b, id_b) in zip(ranked, ranked[1:]):
                assert s_a > s_b or (s_a == s_b and id_a < id_b)

    def test_high_recall_on_clustered_data(self, populated):
        base, ids, rows, rng = populated
        hnsw = HNSWBackend(base, m=8, m0=32, ef_search=6)
        hits = 0
        trials = 20
        for i in range(trials):
            q = rows[i * 7] + 0.05 * rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            exact_ids, _ = base.search_among("u", KIND_DESC, ids, q, 10)
            got_ids, _ = hnsw.search_among("u", KIND_DESC, ids, q, 10)
            hits += len(set(exact_ids) & set(got_ids))
        assert hits / (10 * trials) >= 0.9

    def test_deterministic_across_instances(self, populated):
        """Same shard, same options -> identical graph and results (the
        level hash and the exact adjacency build use no RNG)."""
        base, ids, rows, _rng = populated
        a = HNSWBackend(base, m=8, m0=16, ef_search=4)
        b = HNSWBackend(base, m=8, m0=16, ef_search=4)
        for i in range(5):
            q = rows[i * 31] / np.linalg.norm(rows[i * 31])
            got_a = a.search_among("u", KIND_DESC, ids, q, 10)
            got_b = b.search_among("u", KIND_DESC, ids, q, 10)
            assert got_a[0] == got_b[0]
            assert np.array_equal(got_a[1], got_b[1])


class TestHNSWMaintenance:
    def test_append_extends_graph_in_place(self, populated):
        base, ids, rows, rng = populated
        hnsw = HNSWBackend(base, m=8, m0=32, ef_search=6, rebuild_fraction=0)
        q = rng.standard_normal(32).astype(np.float32)
        hnsw.search_among("u", KIND_DESC, ids, q, 5)
        assert hnsw.builds == 1
        # a duplicate of an existing row lands inside its cluster, so
        # the incrementally linked adjacency must reach it
        new_vec = rows[0].copy()
        base.add("u", KIND_DESC, 999, new_vec)
        got = hnsw.search_among("u", KIND_DESC, ids + [999], new_vec, 5)
        assert hnsw.builds == 1 and hnsw.extends == 1  # linked, not rebuilt
        assert got is not None and 999 in got[0]  # the new row is found
        # a non-append mutation still invalidates the graph: eager
        # rebuild at rebuild_fraction=0
        base.remove("u", KIND_DESC, ids[0])
        hnsw.search_among("u", KIND_DESC, ids[1:] + [999], q, 5)
        assert hnsw.builds == 2

    def test_extended_graph_matches_full_rebuild(self, populated):
        """Conformance: insert-time extension serves results bitwise
        identical to a graph built from scratch over the grown slab."""
        base, ids, rows, rng = populated
        opts = dict(m=8, ef_search=4, rebuild_fraction=0.02)
        hnsw = HNSWBackend(base, **opts)
        q = rng.standard_normal(32).astype(np.float32)
        hnsw.search_among("u", KIND_DESC, ids, q, 5)
        assert hnsw.builds == 1
        new_ids = list(ids)
        for step in range(3):
            vec = rng.standard_normal(32).astype(np.float32)
            vec /= np.linalg.norm(vec)
            base.add("u", KIND_DESC, 999 + step, vec)
            new_ids.append(999 + step)
        got = hnsw.search_among("u", KIND_DESC, new_ids, q, 10)
        # the appends routed + linked into the existing graph in place
        assert hnsw.builds == 1 and hnsw.extends == 1
        fresh = HNSWBackend(base, **opts)
        want = fresh.search_among("u", KIND_DESC, new_ids, q, 10)
        assert fresh.builds == 1 and fresh.extends == 0
        assert got is not None and want is not None
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        for trial in range(5):
            probe = rows[trial * 13] + 0.05 * rng.standard_normal(32).astype(
                np.float32
            )
            probe /= np.linalg.norm(probe)
            got = hnsw.search_among("u", KIND_DESC, new_ids, probe, 10)
            want = fresh.search_among("u", KIND_DESC, new_ids, probe, 10)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])

    def test_removed_id_never_returned(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, m0=32, ef_search=8)
        base.remove("u", KIND_DESC, ids[0])
        remaining = ids[1:]
        got = hnsw.search_among("u", KIND_DESC, remaining, rows[0], 10)
        assert got is not None and ids[0] not in got[0]

    def test_membership_mismatch_returns_none(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, ef_search=4)
        assert hnsw.search_among("u", KIND_DESC, ids[:10], rows[0], 5) is None
        assert (
            hnsw.search_among("u", KIND_DESC, ids + [12345], rows[0], 5)
            is None
        )

    def test_invalid_k_rejected(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base)
        with pytest.raises(ValidationError, match="k must be positive"):
            hnsw.search_among("u", KIND_DESC, ids, rows[0], 0)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValidationError, match="m must be at least 2"):
            HNSWBackend(m=1)

    def test_clear_drops_graph_state(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, ef_search=4)
        hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        hnsw.clear("u")
        assert hnsw.size("u", KIND_DESC) == 0
        with hnsw._states_lock:
            assert not hnsw._states

    def test_stats_surface_entry_count(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, ef_search=4)
        hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        info = hnsw.stats()["u/desc"]
        assert 0 < info["hnswEntries"] < 400


class TestHNSWStateRoundTrip:
    def test_export_adopt_round_trip(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, m0=16, ef_search=4)
        hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        assert hnsw.builds == 1
        states = hnsw.export_states()
        assert ("u", KIND_DESC) in states
        fresh = HNSWBackend(base, m=8, m0=16, ef_search=4)
        assert fresh.adopt_states(states) == 1
        got = fresh.search_among("u", KIND_DESC, ids, rows[0], 5)
        want = hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert fresh.builds == 0  # the adopted graph served directly

    def test_adopt_rejects_malformed_state(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, m0=16, ef_search=4)
        hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        (levels, neighbors), = hnsw.export_states().values()
        fresh = HNSWBackend(base, m=8, m0=16)
        bad_rows = neighbors.copy()
        bad_rows[0, 0] = 400  # out of range for the 400-row slab
        assert (
            fresh.adopt_states({("u", KIND_DESC): (levels[:-1], neighbors)})
            == 0
        )
        assert (
            fresh.adopt_states({("u", KIND_DESC): (levels, bad_rows)}) == 0
        )

    def test_stale_export_omitted_after_mutation(self, populated):
        base, ids, rows, _rng = populated
        hnsw = HNSWBackend(base, m=8, ef_search=4)
        hnsw.search_among("u", KIND_DESC, ids, rows[0], 5)
        base.add("u", KIND_DESC, 999, np.ones(32, np.float32))
        assert hnsw.export_states() == {}


class TestHNSWBatchServing:
    def test_search_among_many_matches_single_shot(self, populated):
        base, ids, rows, rng = populated
        hnsw = HNSWBackend(base, m=8, m0=32, ef_search=6)
        queries = []
        for i in range(6):
            q = rows[i * 13] + 0.05 * rng.standard_normal(32).astype(
                np.float32
            )
            queries.append(q / np.linalg.norm(q))
        ks = [5, 10, 3, None, 5, 7]
        batched = hnsw.search_among_many("u", KIND_DESC, ids, queries, ks)
        assert batched is not None
        for (got_ids, got_scores), q, k in zip(batched, queries, ks):
            want_ids, want_scores = hnsw.search_among(
                "u", KIND_DESC, ids, q, k
            )
            assert got_ids == want_ids
            assert np.allclose(got_scores, want_scores, atol=1e-6)


class TestEmbedMany:
    def test_embed_many_bitwise_equals_embed_one(self, fast_bundle):
        model = fast_bundle.code_search
        texts = ["find prime numbers", "sort a list", "find prime numbers"]
        batch = model.embed_many(texts, kind="text")
        for i, text in enumerate(texts):
            assert np.array_equal(batch[i], model.embed_one(text, kind="text"))

    def test_batcher_embeds_distinct_queries_in_one_call(self):
        """The flush leader makes ONE embed_many call for a batch.

        Mirrors the production call shape: every request passes a
        *fresh bound method* (Python mints a new bound-method object
        per attribute access, exactly like ``searcher.embed_queries``),
        so this also guards the (function, instance) grouping key.
        """

        class Embedder:
            def __init__(self):
                self.calls = []

            def embed_queries(self, texts):
                self.calls.append(list(texts))
                out = np.zeros((len(texts), 8), dtype=np.float32)
                for i, text in enumerate(texts):
                    out[i, hash(text) % 8] = 1.0
                return out

        embedder = Embedder()
        index = VectorIndex()
        rids = list(range(1, 6))
        for rid in rids:
            vec = np.zeros(8, dtype=np.float32)
            vec[rid % 8] = 1.0
            index.add("u", KIND_DESC, rid, vec)
        records = {rid: {"id": rid} for rid in rids}
        # window far longer than the test: the leader is released by the
        # size cap (the fourth arrival), never by the clock
        batcher = SearchBatcher(window=60.0, max_batch=4)
        texts = ["alpha", "beta", "alpha", "gamma"]
        results = [None] * len(texts)

        def submit(user, owned_ids, text, embed_many):
            return batcher.submit(
                index=index,
                user=user,
                kind=KIND_DESC,
                owned_ids=owned_ids,
                k=3,
                query_vector=lambda: embed_many([text])[0],
                resolve=lambda wanted: [
                    records[rid] for rid in wanted if rid in records
                ],
                rid_of=lambda r: r["id"],
                build_hit=lambda r, s: (r["id"], s),
                fallback=lambda recs, q: [],
                embed_key=("t", text),
                embed_text=text,
                embed_many=embed_many,
            )

        # A leader only waits for company while another search is in
        # flight, so park one on a different shard key inside its flush:
        # the first of the four then waits instead of flushing alone,
        # and every schedule ends in one flush of all four.
        parked, release = threading.Event(), threading.Event()

        def park():
            parked.set()
            release.wait(30)
            return []

        blocker = threading.Thread(
            target=submit,
            args=("parked", park, "unused", embedder.embed_queries),
        )
        blocker.start()
        assert parked.wait(30)

        def worker(i):
            # a fresh bound method per request, as production passes
            results[i] = submit(
                "u", lambda: sorted(records), texts[i],
                embedder.embed_queries,
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(texts))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        release.set()
        blocker.join(30)
        assert not blocker.is_alive()
        assert not any(t.is_alive() for t in threads)
        assert all(result is not None for result in results)
        # one flush carried all four requests and embedded its three
        # distinct texts in ONE model call (the duplicate coalesces
        # through the shared embed_key)
        assert len(embedder.calls) == 1
        assert sorted(embedder.calls[0]) == ["alpha", "beta", "gamma"]
        stats = batcher.stats()
        assert stats["batchedRequests"] == 4
        assert stats["batchEmbeds"] == 1

    def test_production_searcher_batches_distinct_queries(self, fast_bundle):
        """End-to-end: concurrent searches through a real searcher hit
        the model once per flush, not once per request."""
        from repro.search import SemanticSearcher

        calls = []
        searcher = SemanticSearcher(fast_bundle.code_search)
        original = type(fast_bundle.code_search).embed_many

        def counting_embed_many(model_self, texts, kind="auto"):
            calls.append(list(texts))
            return original(model_self, texts, kind)

        index = VectorIndex()
        records = {}
        for rid in range(1, 9):
            desc = f"record about topic {rid}"
            vec = searcher.embed_description(desc)
            index.add("u", KIND_DESC, rid, vec)
            records[rid] = type("R", (), {
                "pe_id": rid, "pe_name": f"r{rid}", "description": desc,
                "description_origin": "user", "desc_embedding": vec,
            })()
        batcher = SearchBatcher(window=0.25, max_batch=4)
        queries = ["find alpha", "find beta", "find gamma", "find delta"]
        results = [None] * len(queries)
        barrier = threading.Barrier(len(queries))
        patched = type(fast_bundle.code_search)
        patched.embed_many = counting_embed_many
        try:
            def worker(i):
                barrier.wait()
                results[i] = searcher.search_topk(
                    queries[i],
                    index=index,
                    user="u",
                    owned_ids=lambda: sorted(records),
                    resolve=lambda ids: [
                        records[r] for r in ids if r in records
                    ],
                    k=3,
                    batcher=batcher,
                )

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            patched.embed_many = original
        assert all(r is not None for r in results)
        stats = batcher.stats()
        if stats["batchedRequests"] > 0:
            # at least one flush embedded multiple distinct queries in
            # one model call — the satellite's whole point
            assert stats["batchEmbeds"] > 0
            assert any(len(call) > 1 for call in calls)

    def test_batch_embed_populates_query_lru(self):
        seen = []

        def embed_many(texts):
            seen.extend(texts)
            return np.ones((len(texts), 4), dtype=np.float32)

        index = VectorIndex()
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher(window=0.0)
        kwargs = dict(
            index=index,
            user="u",
            kind=KIND_DESC,
            owned_ids=lambda: [1],
            k=1,
            query_vector=lambda: embed_many(["q"])[0],
            resolve=lambda wanted: [{"id": 1}],
            rid_of=lambda r: r["id"],
            build_hit=lambda r, s: (r["id"], s),
            fallback=lambda recs, q: [],
            embed_key=("t", "q"),
            embed_text="q",
            embed_many=embed_many,
        )
        batcher.submit(**kwargs)
        assert seen == ["q"]
        batcher.submit(**kwargs)  # LRU hit: no second embed
        assert seen == ["q"]

    def test_missing_embed_key_falls_back_to_direct_embedding(self):
        """An embed spec without a cache key must not share a batch
        slot — each request embeds through its own thunk instead."""
        calls = []

        def embed_many(texts):
            calls.append(list(texts))
            return np.ones((len(texts), 4), dtype=np.float32)

        index = VectorIndex()
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher(window=0.0)
        own_vectors = []

        def make_qv(tag):
            def qv():
                vec = np.full(4, float(tag), dtype=np.float32)
                own_vectors.append(tag)
                return vec

            return qv

        for tag in (1, 2):
            batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                owned_ids=lambda: [1],
                k=1,
                query_vector=make_qv(tag),
                resolve=lambda wanted: [{"id": 1}],
                rid_of=lambda r: r["id"],
                build_hit=lambda r, s: (r["id"], s),
                fallback=lambda recs, q: [],
                embed_key=None,  # incomplete spec
                embed_text=f"text{tag}",
                embed_many=embed_many,
            )
        assert calls == []  # batch embedder never invoked
        assert own_vectors == [1, 2]  # each request used its own thunk

    def test_embed_failure_propagates_to_submitter(self):
        def embed_many(texts):
            raise RuntimeError("model down")

        index = VectorIndex()
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher(window=0.0)
        with pytest.raises(RuntimeError, match="model down"):
            batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                owned_ids=lambda: [1],
                k=1,
                query_vector=lambda: np.ones(4, np.float32),
                resolve=lambda wanted: [{"id": 1}],
                rid_of=lambda r: r["id"],
                build_hit=lambda r, s: (r["id"], s),
                fallback=lambda recs, q: [],
                embed_key=("t", "q"),
                embed_text="q",
                embed_many=embed_many,
            )

"""Index/brute-force parity: identical ids and scores on every query.

The contract of :class:`repro.search.index.VectorIndex` is that serving
a query from the pre-stacked shard is *observationally identical* to the
historical brute-force scan — same ids, same scores (within 1e-6), same
stable insertion-order tie-breaking — across k regimes, duplicate
scores, empty corpora, and post-remove/re-add states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.models import ReACCRetriever, UnixCoderCodeSearch
from repro.registry.entities import PERecord
from repro.search import (
    KIND_CODE,
    KIND_DESC,
    CodeHit,
    CodeSearcher,
    SearchBatcher,
    SemanticSearcher,
    VectorIndex,
    exact_scan,
)
from tests.helpers import index_shards, resident_index

DIM = 24


def unit_vectors(rng, n, duplicate_every=0):
    """Random unit rows; optionally repeat rows to force duplicate scores."""
    matrix = rng.standard_normal((n, DIM)).astype(np.float32)
    if duplicate_every:
        for i in range(duplicate_every, n, duplicate_every):
            matrix[i] = matrix[i - duplicate_every]
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / norms


def brute_force(qvec, vectors, k):
    """The reference linear scan: stable sort over insertion order."""
    sims = vectors @ qvec
    order = np.argsort(-sims, kind="stable")
    if k is not None:
        order = order[:k]
    return order.tolist(), sims[order]


def build_index(ids, vectors, user="u"):
    index = resident_index((user, KIND_DESC))
    for rid, vec in zip(ids, vectors):
        index.add(user, KIND_DESC, rid, vec)
    return index


class TestRawParity:
    """VectorIndex.search_among vs the linear scan over identical vectors."""

    N = 57

    @pytest.fixture()
    def corpus(self):
        rng = np.random.default_rng(11)
        vectors = unit_vectors(rng, self.N, duplicate_every=5)
        ids = list(range(100, 100 + self.N))
        return ids, vectors, rng

    @pytest.mark.parametrize("k", [1, 5, 57, None])
    def test_topk_parity(self, corpus, k):
        ids, vectors, rng = corpus
        index = build_index(ids, vectors)
        for _ in range(10):
            qvec = unit_vectors(rng, 1)[0]
            expected_rows, expected_scores = brute_force(qvec, vectors, k)
            got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
            assert got_ids == [ids[r] for r in expected_rows]
            np.testing.assert_allclose(got_scores, expected_scores, atol=1e-6)

    def test_duplicate_scores_rank_by_insertion_order(self, corpus):
        ids, vectors, _ = corpus
        # a query equal to a duplicated corpus row: several exact ties at
        # the top, which must come back in insertion order
        qvec = vectors[5]
        index = build_index(ids, vectors)
        got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k=3)
        expected_rows, _ = brute_force(qvec, vectors, 3)
        assert got_ids == [ids[r] for r in expected_rows]
        assert got_scores[0] == pytest.approx(got_scores[1], abs=1e-6)
        assert got_ids[0] < got_ids[1]  # tie broken by insertion order

    def test_empty_index_parity(self):
        index = resident_index(("u", KIND_DESC))
        qvec = unit_vectors(np.random.default_rng(0), 1)[0]
        for k in (1, 5, None):
            got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
            assert got_ids == [] and got_scores.size == 0

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_post_remove_parity(self, corpus, k):
        ids, vectors, rng = corpus
        index = build_index(ids, vectors)
        removed = set(ids[::3])
        for rid in removed:
            index.remove("u", KIND_DESC, rid)
        keep = [i for i, rid in enumerate(ids) if rid not in removed]
        live_vectors = vectors[keep]
        live_ids = [ids[i] for i in keep]
        for _ in range(5):
            qvec = unit_vectors(rng, 1)[0]
            expected_rows, expected_scores = brute_force(qvec, live_vectors, k)
            got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
            assert got_ids == [live_ids[r] for r in expected_rows]
            np.testing.assert_allclose(got_scores, expected_scores, atol=1e-6)

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_remove_then_readd_parity(self, corpus, k):
        ids, vectors, rng = corpus
        index = build_index(ids, vectors)
        # remove a block, then re-add it: rows live in ascending-id
        # order, so the re-added block returns to its original position
        # and the reference is simply the id-ordered corpus
        for rid in ids[10:20]:
            index.remove("u", KIND_DESC, rid)
        for offset in range(10, 20):
            index.add("u", KIND_DESC, ids[offset], vectors[offset])
        for _ in range(5):
            qvec = unit_vectors(rng, 1)[0]
            expected_rows, expected_scores = brute_force(qvec, vectors, k)
            got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
            assert got_ids == [ids[r] for r in expected_rows]
            np.testing.assert_allclose(got_scores, expected_scores, atol=1e-6)

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_out_of_order_adds_rank_like_id_ordered_scan(self, corpus, k):
        """The cross-user dedup case: a user acquires an *older* record
        after newer ones; shard rows stay in id order, so results match
        the brute scan over the id-ordered record list."""
        ids, vectors, rng = corpus
        order = rng.permutation(len(ids))
        index = resident_index(("u", KIND_DESC))
        for i in order:
            index.add("u", KIND_DESC, ids[i], vectors[i])
        assert index_shards(index)[("u", KIND_DESC)][0].tolist() == ids
        for _ in range(5):
            qvec = unit_vectors(rng, 1)[0]
            expected_rows, expected_scores = brute_force(qvec, vectors, k)
            got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
            assert got_ids == [ids[r] for r in expected_rows]
            np.testing.assert_allclose(got_scores, expected_scores, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.one_of(st.none(), st.integers(min_value=1, max_value=70)),
        seed=st.integers(min_value=0, max_value=2**16),
        duplicate_every=st.sampled_from([0, 2, 3]),
    )
    def test_parity_property(self, n, k, seed, duplicate_every):
        rng = np.random.default_rng(seed)
        vectors = unit_vectors(rng, n, duplicate_every=duplicate_every)
        ids = list(range(n))
        index = build_index(ids, vectors)
        qvec = unit_vectors(rng, 1)[0]
        expected_rows, expected_scores = brute_force(qvec, vectors, k)
        got_ids, got_scores = index.search_among("u", KIND_DESC, qvec, k)
        assert got_ids == expected_rows
        np.testing.assert_allclose(got_scores, expected_scores, atol=1e-6)


def make_pes(rng, n, model):
    """PE records with real (stored) embeddings, some duplicated."""
    records = []
    for i in range(n):
        description = f"processing element variant {i % (n // 2 or 1)}"
        record = PERecord(
            pe_id=i + 1,
            pe_name=f"PE{i}",
            description=description,
            pe_code="eA==",
            pe_source=f"class PE{i}:\n    pass\n",
        )
        record.desc_embedding = model.embed_one(description, kind="text")
        record.code_embedding = model.embed_one(record.pe_source, kind="code")
        records.append(record)
    return records


def index_pes(records, user=1):
    """Populate an index the way the registry service would."""
    index = resident_index((user, KIND_DESC), (user, KIND_CODE))
    for record in records:
        if record.desc_embedding is not None:
            index.add(user, KIND_DESC, record.pe_id, record.desc_embedding)
        if record.code_embedding is not None:
            index.add(user, KIND_CODE, record.pe_id, record.code_embedding)
    return index


def served(searcher, kind, query, records, index, k=None, user=1):
    """Serve ``query`` the way the server does: rank ids through a
    batcher, over an index that holds ``records`` (id-ordered), then
    hydrate the winners."""
    by_id = {record.pe_id: record for record in records}
    ranked = SearchBatcher().submit(
        index=index,
        user=user,
        kind=kind,
        current=lambda rank: (rank(), False),
        k=k,
        embed_many=searcher.embed_queries,
        embed_key=(kind, searcher.model.name, query),
        embed_text=query,
    )
    return [(by_id[rid], score) for rid, score in ranked]


def brute(searcher, kind, query, records, k=None):
    """The exact scan over ``records``."""
    return exact_scan(
        kind, records, searcher.embed_queries([query])[0], k,
        searcher.embed_queries,
    )


def assert_same_ranking(indexed, brute_force):
    assert [r.pe_id for r, _ in indexed] == [r.pe_id for r, _ in brute_force]
    for (_, a), (_, b) in zip(indexed, brute_force):
        assert a == pytest.approx(b, abs=1e-6)


class TestSearcherParity:
    """The served (indexed) path agrees with the exact scan."""

    @pytest.fixture(scope="class")
    def semantic(self):
        return SemanticSearcher(UnixCoderCodeSearch())

    @pytest.fixture(scope="class")
    def code(self):
        return CodeSearcher(ReACCRetriever())

    @pytest.mark.parametrize("k", [1, 5, 20, None])
    def test_semantic_search_parity(self, semantic, k):
        rng = np.random.default_rng(3)
        records = make_pes(rng, 20, semantic.model)
        index = index_pes(records)
        query = "processing element variant 3"
        assert_same_ranking(
            served(semantic, KIND_DESC, query, records, index, k),
            brute(semantic, KIND_DESC, query, records, k),
        )

    @pytest.mark.parametrize("k", [1, 5, None])
    def test_code_search_parity(self, code, k):
        rng = np.random.default_rng(4)
        records = make_pes(rng, 15, code.model)
        index = index_pes(records)
        query = "class PE3:"
        indexed = served(code, KIND_CODE, query, records, index, k)
        brute_force = brute(code, KIND_CODE, query, records, k)
        assert_same_ranking(indexed, brute_force)
        for (a, a_score), (b, b_score) in zip(indexed, brute_force):
            assert (
                CodeHit.of(a, a_score, query).continuation
                == CodeHit.of(b, b_score, query).continuation
            )

    def test_missing_embedding_cached_back_brute_force(self, semantic):
        rng = np.random.default_rng(6)
        records = make_pes(rng, 6, semantic.model)
        records[1].desc_embedding = None
        brute(semantic, KIND_DESC, "variant", records)
        assert records[1].desc_embedding is not None

    def test_removed_record_never_resurrected_by_search(self, semantic):
        """A search whose record store still holds a concurrently
        removed record neither serves it nor puts it back in the
        shard."""
        rng = np.random.default_rng(9)
        records = make_pes(rng, 6, semantic.model)
        index = index_pes(records)
        index.remove(1, KIND_DESC, records[3].pe_id)  # concurrent removal
        hits = served(semantic, KIND_DESC, "variant", records, index)
        assert records[3].pe_id not in [r.pe_id for r, _ in hits]
        assert len(hits) == 5
        assert records[3].pe_id not in index_shards(index)[(1, KIND_DESC)][0]
        assert index.stats()["1/desc"]["live"] == 5

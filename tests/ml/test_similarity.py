"""Tests for vectorized cosine retrieval helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ValidationError
from repro.ml.similarity import cosine_similarity_matrix, cosine_topk, rank_of
from repro.ml.vectorize import l2_normalize


def _unit(rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    return l2_normalize(rng.normal(size=(rows, dim)).astype(np.float32))


class TestSimilarityMatrix:
    def test_shape(self):
        sims = cosine_similarity_matrix(_unit(3, 16), _unit(5, 16))
        assert sims.shape == (3, 5)

    def test_identity_on_same_matrix(self):
        matrix = _unit(4, 16)
        sims = cosine_similarity_matrix(matrix, matrix)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-5)

    def test_1d_query_promoted(self):
        matrix = _unit(4, 16)
        sims = cosine_similarity_matrix(matrix[0], matrix)
        assert sims.shape == (1, 4)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            cosine_similarity_matrix(_unit(2, 8), _unit(2, 16))

    @given(
        arrays(np.float32, (4, 8), elements=st.floats(-1, 1, width=32)),
    )
    @settings(max_examples=40, deadline=None)
    # squares of these entries are subnormal in float32: the row norm
    # came out 1.6 % short and the cosine read 1.032
    @example(raw=np.full((4, 8), 1.0061857e-22, dtype=np.float32))
    def test_bounded_for_normalized_inputs(self, raw):
        matrix = l2_normalize(raw)
        sims = cosine_similarity_matrix(matrix, matrix)
        assert np.all(sims <= 1.0 + 1e-4)
        assert np.all(sims >= -1.0 - 1e-4)


class TestTopK:
    def test_orders_by_similarity(self):
        corpus = _unit(20, 16, seed=1)
        query = corpus[7]
        indices, scores = cosine_topk(query, corpus, k=5)
        assert indices[0] == 7
        assert scores[0] == pytest.approx(1.0, abs=1e-5)
        assert all(scores[i] >= scores[i + 1] for i in range(4))

    def test_k_larger_than_corpus(self):
        corpus = _unit(3, 8)
        indices, _ = cosine_topk(corpus[0], corpus, k=10)
        assert len(indices) == 3

    def test_k_zero_rejected(self):
        corpus = _unit(3, 8)
        with pytest.raises(ValidationError):
            cosine_topk(corpus[0], corpus, k=0)

    def test_partial_selection_matches_full_sort(self):
        corpus = _unit(50, 16, seed=2)
        query = _unit(1, 16, seed=3)[0]
        indices, _ = cosine_topk(query, corpus, k=10)
        sims = corpus @ query
        expected = np.argsort(-sims)[:10]
        np.testing.assert_array_equal(indices, expected)


class TestRankOf:
    def test_self_rank_is_one(self):
        corpus = _unit(10, 16, seed=4)
        assert rank_of(corpus[3], corpus, 3) == 1

    def test_pessimistic_tie_breaking(self):
        base = _unit(1, 16, seed=5)[0]
        corpus = np.stack([base, base, _unit(1, 16, seed=6)[0]])
        # identical vectors at 0 and 1: target index 1 ranks AFTER index 0
        assert rank_of(base, corpus, 1) == 2
        assert rank_of(base, corpus, 0) == 1

"""Tests for hashing vectorization and IDF weighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.ml.vectorize import HashingVectorizer, IdfWeighter, l2_normalize

features = st.lists(st.text(min_size=1, max_size=12), max_size=30)


class TestHashingVectorizer:
    def test_deterministic(self):
        v = HashingVectorizer(dim=128, salt="s")
        a = v.transform_one(["x", "y", "x"])
        b = v.transform_one(["x", "y", "x"])
        np.testing.assert_array_equal(a, b)

    def test_counts_accumulate(self):
        v = HashingVectorizer(dim=128, salt="s")
        one = v.transform_one(["tok"])
        two = v.transform_one(["tok", "tok"])
        np.testing.assert_allclose(two, one * 2)

    def test_salt_changes_space(self):
        a = HashingVectorizer(dim=128, salt="a").transform_one(["tok"])
        b = HashingVectorizer(dim=128, salt="b").transform_one(["tok"])
        assert not np.array_equal(a, b)

    def test_batch_transform_shape(self):
        v = HashingVectorizer(dim=64, salt="s")
        matrix = v.transform([["a"], ["b", "c"], []])
        assert matrix.shape == (3, 64)
        assert matrix.dtype == np.float32
        np.testing.assert_array_equal(matrix[2], np.zeros(64))

    def test_weights_mapping_applied(self):
        v = HashingVectorizer(dim=64, salt="s")
        unweighted = v.transform_one(["a"])
        weighted = v.transform_one(["a"], weights={"a": 3.0})
        np.testing.assert_allclose(weighted, unweighted * 3.0)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValidationError):
            HashingVectorizer(dim=0)

    @given(features)
    @settings(max_examples=60, deadline=None)
    def test_vector_norm_bounded_by_feature_count(self, feats):
        v = HashingVectorizer(dim=256, salt="s")
        vec = v.transform_one(feats)
        assert np.linalg.norm(vec) <= len(feats) + 1e-6


class TestIdfWeighter:
    def test_unfitted_weight_is_one(self):
        assert IdfWeighter().weight("anything") == 1.0

    def test_common_features_downweighted(self):
        idf = IdfWeighter().fit([["common", "rare1"], ["common"], ["common", "x"]])
        assert idf.weight("common") < idf.weight("rare1")

    def test_unseen_gets_max_weight(self):
        idf = IdfWeighter().fit([["a"], ["a", "b"]])
        assert idf.weight("never-seen") >= idf.weight("b") >= idf.weight("a")

    def test_mapping_view(self):
        idf = IdfWeighter().fit([["a", "b"], ["a"]])
        mapping = idf.as_mapping()
        assert mapping.get("a") == pytest.approx(idf.weight("a"))
        assert len(mapping) == 2

    def test_is_fitted_flag(self):
        idf = IdfWeighter()
        assert not idf.is_fitted
        idf.fit([["x"]])
        assert idf.is_fitted


class TestNormalize:
    def test_rows_unit_norm(self):
        matrix = np.array([[3.0, 4.0], [1.0, 0.0]], dtype=np.float32)
        normalized = l2_normalize(matrix)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), [1.0, 1.0])

    def test_zero_rows_stay_zero(self):
        matrix = np.zeros((2, 4), dtype=np.float32)
        normalized = l2_normalize(matrix)
        assert not np.isnan(normalized).any()
        np.testing.assert_array_equal(normalized, matrix)

    def test_1d_vector(self):
        vec = l2_normalize(np.array([3.0, 4.0], dtype=np.float32))
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0)

    def test_1d_zero_vector(self):
        vec = l2_normalize(np.zeros(4, dtype=np.float32))
        assert not np.isnan(vec).any()

    # entries whose float32 squares are subnormal: the plain norm of
    # such a row is 1.6 % short
    TINY = 1.0061857e-22

    def test_1d_tiny_vector_is_unit(self):
        vec = l2_normalize(np.full(8, self.TINY, dtype=np.float32))
        assert vec.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-6)

    def test_tiny_rows_are_unit(self):
        matrix = np.full((4, 8), self.TINY, dtype=np.float32)
        normalized = l2_normalize(matrix)
        np.testing.assert_allclose(
            np.linalg.norm(normalized, axis=1), 1.0, rtol=1e-6
        )

    @pytest.mark.parametrize("shape", [(4,), (1, 4)])
    def test_row_whose_squares_underflow_to_zero(self, shape):
        # 1e-24 squared is below float32's smallest subnormal: the
        # plain norm is 0 and the row would come back unnormalized
        raw = np.array([1e-24, 0.0, -1e-24, 0.0], dtype=np.float32)
        normalized = l2_normalize(raw.reshape(shape)).reshape(-1)
        half = np.float32(np.sqrt(0.5))
        np.testing.assert_allclose(normalized, [half, 0, -half, 0], rtol=1e-6)

    def test_normal_row_beside_tiny_row_is_bitwise_plain(self):
        matrix = np.array(
            [[0.3, -0.4, 0.5, 0.1], [self.TINY, 0.0, self.TINY, 0.0]],
            dtype=np.float32,
        )
        normalized = l2_normalize(matrix)
        plain = matrix[0] / np.linalg.norm(matrix, axis=1, keepdims=True)[0]
        assert normalized[0].tobytes() == plain.tobytes()
        np.testing.assert_allclose(
            np.linalg.norm(normalized[1]), 1.0, rtol=1e-6
        )
        assert matrix[1, 0] == np.float32(self.TINY)  # input untouched

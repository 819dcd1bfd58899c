"""Unit tests for the incremental vector index (repro.search.index)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.search import KIND_CODE, KIND_DESC, EmbeddingLRU, VectorIndex
from tests.helpers import index_shards, resident_index

#: the one shard most cases write: resident before their first add
U = ("u", KIND_DESC)


def unit(rng, dim=16):
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / np.linalg.norm(vec)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestMutation:
    def test_add_then_search(self, rng):
        index = resident_index(U)
        vec = unit(rng)
        index.add("u", KIND_DESC, 1, vec)
        ids, scores = index.search_among("u", KIND_DESC, vec)
        assert ids == [1]
        assert scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_add_same_id_updates_in_place(self, rng):
        index = resident_index(U)
        index.add("u", KIND_DESC, 1, unit(rng))
        replacement = unit(rng)
        index.add("u", KIND_DESC, 1, replacement)
        assert index.stats()["u/desc"]["live"] == 1
        ids, scores = index.search_among("u", KIND_DESC, replacement)
        assert ids == [1] and scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_remove_drops_id(self, rng):
        index = resident_index(U)
        q = unit(rng)
        index.add("u", KIND_DESC, 1, unit(rng))
        index.add("u", KIND_DESC, 2, unit(rng))
        assert index.remove("u", KIND_DESC, 1)
        ids, _ = index.search_among("u", KIND_DESC, q)
        assert ids == [2]
        assert index.stats()["u/desc"]["live"] == 1

    def test_remove_missing_is_false(self):
        index = VectorIndex()
        assert not index.remove("u", KIND_DESC, 99)
        assert not index.remove("nobody", KIND_DESC, 1)

    def test_growth_beyond_initial_capacity(self, rng):
        index = resident_index(U)
        for rid in range(100):
            index.add("u", KIND_DESC, rid, unit(rng))
        assert index.stats()["u/desc"]["live"] == 100
        assert index_shards(index)[U][0].tolist() == list(range(100))

    def test_removal_preserves_insertion_order(self, rng):
        index = resident_index(U)
        for rid in range(200):
            index.add("u", KIND_DESC, rid, unit(rng))
        for rid in range(0, 200, 2):
            index.remove("u", KIND_DESC, rid)
        ids, _ = index_shards(index)[U]
        assert ids.tolist() == list(range(1, 200, 2))
        assert index.stats()["u/desc"]["live"] == 100

    def test_shards_isolated_per_user_and_kind(self, rng):
        index = resident_index(U)
        q = unit(rng)
        index.add("u", KIND_DESC, 1, q)
        assert index.search_among("v", KIND_DESC, q) is None
        assert index.search_among("u", KIND_CODE, q) is None

    def test_dimension_mismatch_rejected(self, rng):
        index = resident_index(U)
        index.add("u", KIND_DESC, 1, unit(rng, dim=8))
        with pytest.raises(ValidationError):
            index.add("u", KIND_DESC, 2, unit(rng, dim=16))

    def test_non_unit_vectors_stored_verbatim(self, rng):
        """Raw dot-product semantics, exactly like the brute-force scan —
        the index must never renormalize caller-supplied vectors."""
        index = resident_index(U)
        vec = unit(rng)
        index.add("u", KIND_DESC, 1, vec * 42.0)
        _, scores = index.search_among("u", KIND_DESC, vec)
        assert scores[0] == pytest.approx(42.0, abs=1e-3)


class TestAddMany:
    """Bulk shard construction (the attach-time fast path)."""

    def test_bulk_matches_incremental(self, rng):
        vectors = np.stack([unit(rng) for _ in range(20)])
        ids = list(range(1, 21))
        bulk, incremental = resident_index(U), resident_index(U)
        bulk.add_many("u", KIND_DESC, ids, vectors)
        for rid, vec in zip(ids, vectors):
            incremental.add("u", KIND_DESC, rid, vec)
        query = unit(rng)
        got = bulk.search_among("u", KIND_DESC, query, k=5)
        want = incremental.search_among("u", KIND_DESC, query, k=5)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        assert index_shards(bulk)[U][0].tolist() == ids

    def test_unsorted_ids_fall_back_to_incremental_path(self, rng):
        vectors = np.stack([unit(rng) for _ in range(4)])
        index = resident_index(U)
        index.add_many("u", KIND_DESC, [4, 2, 9, 1], vectors)
        assert index_shards(index)[U][0].tolist() == [1, 2, 4, 9]

    def test_bulk_into_existing_shard_merges(self, rng):
        index = resident_index(U)
        index.add("u", KIND_DESC, 5, unit(rng))
        index.add_many(
            "u", KIND_DESC, [1, 9], np.stack([unit(rng), unit(rng)])
        )
        assert index_shards(index)[U][0].tolist() == [1, 5, 9]

    def test_incremental_adds_after_bulk(self, rng):
        index = resident_index(U)
        index.add_many(
            "u", KIND_DESC, [1, 2, 3], np.stack([unit(rng)] * 3)
        )
        index.add("u", KIND_DESC, 2, unit(rng))  # in-place update
        index.add("u", KIND_DESC, 10, unit(rng))  # append past capacity
        assert index_shards(index)[U][0].tolist() == [1, 2, 3, 10]

    def test_length_mismatch_rejected(self, rng):
        index = VectorIndex()
        with pytest.raises(ValidationError, match="ids"):
            index.add_many("u", KIND_DESC, [1, 2], np.stack([unit(rng)]))

    def test_empty_batch_is_noop(self):
        index = VectorIndex()
        index.add_many("u", KIND_DESC, [], np.empty((0, 8), dtype=np.float32))
        assert index.stats() == {}


class TestSearch:
    def test_k_validation(self, rng):
        index = resident_index(U)
        index.add("u", KIND_DESC, 1, unit(rng))
        with pytest.raises(ValidationError):
            index.search_among("u", KIND_DESC, unit(rng), k=0)

    def test_empty_shard(self, rng):
        index = resident_index(U)
        ids, scores = index.search_among("u", KIND_DESC, unit(rng), k=5)
        assert ids == [] and scores.shape == (0,)

    def test_k_larger_than_corpus(self, rng):
        index = resident_index(U)
        for rid in range(3):
            index.add("u", KIND_DESC, rid, unit(rng))
        ids, _ = index.search_among("u", KIND_DESC, unit(rng), k=50)
        assert len(ids) == 3

    def test_scores_descending(self, rng):
        index = resident_index(U)
        for rid in range(50):
            index.add("u", KIND_DESC, rid, unit(rng))
        _, scores = index.search_among("u", KIND_DESC, unit(rng), k=10)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_removed_id_never_returned(self, rng):
        index = resident_index(U)
        vectors = [unit(rng) for _ in range(30)]
        for rid, vec in enumerate(vectors):
            index.add("u", KIND_DESC, rid, vec)
        index.remove("u", KIND_DESC, 12)
        query = vectors[12]  # the removed row would rank first
        for k in (1, 5, None):
            answers = [
                index.search_among("u", KIND_DESC, query, k),
                index.search_among("u", KIND_DESC, query, k),
                *index.search_among_many("u", KIND_DESC, [query], [k]),
            ]
            for ids, _scores in answers:
                assert 12 not in ids
                assert len(ids) == (29 if k is None else k)

    def test_indexes_fed_alike_answer_bitwise(self, rng):
        vectors = np.stack([unit(rng) for _ in range(40)])
        first, second = VectorIndex(), VectorIndex()
        first.fill(1, {U: (range(40), vectors)})
        second.fill(1, {U: (range(40), vectors)})
        for _ in range(5):
            query = unit(rng)
            got = first.search_among("u", KIND_DESC, query, 7)
            want = second.search_among("u", KIND_DESC, query, 7)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()


class TestResidency:
    """A shard is resident only as a complete copy of its rows."""

    def test_a_shard_that_is_not_resident_takes_no_write(self, rng):
        index = VectorIndex()
        index.add("u", KIND_DESC, 1, unit(rng))
        index.add_many("u", KIND_DESC, [2, 3], np.stack([unit(rng)] * 2))
        assert not index.remove("u", KIND_DESC, 1)
        assert index.stats() == {}
        assert index.search_among("u", KIND_DESC, unit(rng)) is None
        assert index.search_among_many("u", KIND_DESC, [unit(rng)], [2]) is None

    def test_a_fill_installs_complete_shards(self, rng):
        vectors = np.stack([unit(rng) for _ in range(4)])
        index = VectorIndex()
        assert index.fill(7, {U: ([4, 2, 9, 1], vectors), ("v", KIND_CODE): ((), ())})
        assert index.version == 7
        assert index_shards(index)[U][0].tolist() == [1, 2, 4, 9]
        ids, scores = index.search_among("u", KIND_DESC, vectors[2], 1)
        assert ids == [9] and scores[0] == pytest.approx(1.0, abs=1e-6)
        ids, scores = index.search_among("v", KIND_CODE, unit(rng))
        assert ids == [] and scores.size == 0

    def test_a_fill_at_another_version_drops_every_resident_shard(self, rng):
        index = VectorIndex()
        index.fill(1, {U: ([1], [unit(rng)]), ("v", KIND_DESC): ([2], [unit(rng)])})
        assert not index.fill(1, {("w", KIND_DESC): ((), ())})
        assert set(index.stats()) == {"u/desc", "v/desc", "w/desc"}
        assert index.fill(2, {("v", KIND_DESC): ([3], [unit(rng)])})
        assert index.version == 2
        assert set(index.stats()) == {"v/desc"}
        assert index_shards(index)[("v", KIND_DESC)][0].tolist() == [3]
        assert index.search_among("u", KIND_DESC, unit(rng)) is None

    def test_an_empty_shard_takes_its_first_rows_width(self, rng):
        index = resident_index(U)
        assert index.stats()["u/desc"]["dim"] == 0
        index.add("u", KIND_DESC, 5, unit(rng, dim=8))
        assert index.stats()["u/desc"]["dim"] == 8
        with pytest.raises(ValidationError):
            index.add("u", KIND_DESC, 6, unit(rng, dim=16))

    def test_an_emptied_shard_serves_empty_not_none(self, rng):
        index = resident_index(U)
        index.add("u", KIND_DESC, 1, unit(rng))
        assert index.remove("u", KIND_DESC, 1)
        ids, scores = index.search_among("u", KIND_DESC, unit(rng), 3)
        assert ids == [] and scores.size == 0
        assert [ids for ids, _ in index.search_among_many(
            "u", KIND_DESC, [unit(rng)] * 2, [1, None]
        )] == [[], []]

    def test_resident_search_among_matches_plain_search(self, rng):
        index = resident_index(U)
        for rid in range(10):
            index.add("u", KIND_DESC, rid, unit(rng))
        q = unit(rng)
        ids, scores = index.search_among("u", KIND_DESC, q, k=4)
        plain_ids, plain_scores = index.search_among("u", KIND_DESC, q, k=4)
        assert ids == plain_ids
        np.testing.assert_array_equal(scores, plain_scores)


class TestLayout:
    def test_shards_hold_ascending_ids_and_verbatim_rows(self, rng):
        index = resident_index(
            *[(user, kind) for user in (1, 2) for kind in (KIND_DESC, KIND_CODE)],
            ("gone", KIND_DESC),
        )
        rows = {}
        for user in (1, 2):
            for kind in (KIND_DESC, KIND_CODE):
                three, one = unit(rng), unit(rng)
                index.add_many(user, kind, [3, 1], np.stack([three, one]))
                rows[(user, kind)] = np.stack([one, three])
        index.add("gone", KIND_DESC, 1, unit(rng))
        index.remove("gone", KIND_DESC, 1)
        everything = index_shards(index)
        assert set(everything) == set(rows)  # the emptied shard is omitted
        for key, (ids, matrix) in everything.items():
            assert ids.tolist() == [1, 3]  # ascending id, rows verbatim
            assert matrix.tobytes() == rows[key].tobytes()


class TestQueryCache:
    def test_lru_hit_skips_compute(self):
        cache = EmbeddingLRU(maxsize=2)
        assert cache.get("a") is None  # miss: the caller embeds
        cache.put("a", np.ones(4, dtype=np.float32))
        np.testing.assert_array_equal(cache.get("a"), np.ones(4))
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = EmbeddingLRU(maxsize=2)
        zero = np.zeros(2, dtype=np.float32)
        cache.put("a", zero)
        cache.put("b", zero)
        assert cache.get("a") is not None  # refresh a
        cache.put("c", zero)  # evicts b
        misses = cache.misses
        assert cache.get("b") is None
        assert cache.misses == misses + 1
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingLRU(maxsize=0)

    def test_index_query_cache_round_trip(self):
        index = VectorIndex()
        vec = index.query_cache.put("key", np.ones(3, dtype=np.float64))
        assert vec.dtype == np.float32
        assert index.query_cache.get("key") is vec

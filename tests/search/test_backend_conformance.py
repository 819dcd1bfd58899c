"""Conformance suite every backend passes.

Each case runs on the exact index and on both approximate views (IVF,
HNSW) built through the backend registry.  Shards here hold 23 rows —
below the views' training threshold — so every backend must serve the
exact ranking bitwise, keep the membership contract (``None`` on any
mismatch, so callers fall back to brute force), route mutations to the
one copy of the vectors, and stay consistent under concurrent readers.
The ``TestShardView`` cases pin what the two views share through
``_ShardView``: writes, persistence, dirty tracking and the query LRU
all live in the base index; a view's own state is in memory only.
"""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.search import VectorIndex, create_backend
from repro.search.index import KIND_CODE, KIND_DESC, KIND_WORKFLOW

DIM = 16
KINDS = (KIND_DESC, KIND_CODE, KIND_WORKFLOW)
USERS = (1, 2, 3, 7)
ROWS = 23
BACKENDS = ("exact", "ivf", "hnsw")
VIEWS = ("ivf", "hnsw")


def _vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, DIM)).astype(np.float32)


def _populate(targets, users=USERS, per_shard=ROWS):
    """Feed identical (user, kind) slabs into every index-like target;
    returns ``{(user, kind): rows}`` for brute-force references."""
    slabs = {}
    seed = 0
    for user in users:
        for kind in KINDS:
            seed += 1
            rows = _vectors(per_shard, seed=seed)
            rids = list(range(1, per_shard + 1))
            for target in targets:
                target.add_many(user, kind, rids, rows)
            slabs[(user, kind)] = rows
    return slabs


def _pair(name):
    """(reference VectorIndex, backend under test) fed identical slabs."""
    reference = VectorIndex()
    backend = create_backend(name)
    slabs = _populate([reference, backend])
    return reference, backend, slabs


def _brute_ids(rows, rids, query, k):
    """Descending score, ascending-id tie-break, over a plain matrix."""
    sims = rows @ query
    order = np.lexsort((np.asarray(rids), -sims))
    return [rids[i] for i in order[:k]]


def _assert_same(got, want):
    assert got is not None and want is not None
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


class TestExactParity:
    @pytest.mark.parametrize("k", [1, 5, ROWS, None])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_search_among_bitwise_identical(self, name, k):
        reference, backend, slabs = _pair(name)
        rids = list(range(1, ROWS + 1))
        for (user, kind), rows in slabs.items():
            query = _vectors(1, seed=1000 + user)[0]
            want = reference.search_among(user, kind, rids, query, k)
            got = backend.search_among(user, kind, rids, query, k)
            _assert_same(got, want)
            assert got[0] == _brute_ids(rows, rids, query, k)
            np.testing.assert_allclose(
                got[1], np.sort(rows @ query)[::-1][: len(got[0])], rtol=1e-6
            )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_search_among_many_bitwise_identical(self, name):
        reference, backend, _slabs = _pair(name)
        rids = list(range(1, ROWS + 1))
        queries = [_vectors(1, seed=2000 + i)[0] for i in range(4)]
        queries.append(queries[0])  # a duplicate coalesces, same answer
        ks = [1, 5, None, ROWS, 1]
        for user in USERS:
            want = reference.search_among_many(
                user, KIND_DESC, rids, queries, ks
            )
            got = backend.search_among_many(user, KIND_DESC, rids, queries, ks)
            assert len(got) == len(want) == len(queries)
            for got_one, want_one in zip(got, want):
                _assert_same(got_one, want_one)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_unverified_search_matches_search_among(self, name):
        _reference, backend, _slabs = _pair(name)
        rids = list(range(1, ROWS + 1))
        query = _vectors(1, seed=3)[0]
        for kind in KINDS:
            _assert_same(
                backend.search(1, kind, query, 7),
                backend.search_among(1, kind, rids, query, 7),
            )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_tie_break_is_ascending_id(self, name):
        backend = create_backend(name)
        top = np.zeros(DIM, dtype=np.float32)
        top[0] = 2.0
        tied = np.zeros(DIM, dtype=np.float32)
        tied[0] = 1.0
        # equal scores must rank by ascending id whatever the add order
        for rid, vec in ((9, tied), (5, tied), (7, top), (2, tied)):
            backend.add("u", KIND_DESC, rid, vec)
        query = np.zeros(DIM, dtype=np.float32)
        query[0] = 1.0
        ids, scores = backend.search_among("u", KIND_DESC, [2, 5, 7, 9], query)
        assert ids == [7, 2, 5, 9]
        assert scores.tolist() == [2.0, 1.0, 1.0, 1.0]
        ids, _ = backend.search_among("u", KIND_DESC, [2, 5, 7, 9], query, 2)
        assert ids == [7, 2]


class TestMembership:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_membership_mismatch_returns_none(self, name):
        _reference, backend, _slabs = _pair(name)
        query = _vectors(1, seed=5)[0]
        rids = list(range(1, ROWS + 1))
        assert backend.search_among(1, KIND_DESC, rids[:-1], query, 3) is None
        assert backend.search_among(1, KIND_DESC, rids + [999], query, 3) is None
        assert (
            backend.search_among(1, KIND_DESC, rids[:-1] + [999], query, 3)
            is None
        )
        assert backend.search_among(99, KIND_DESC, rids, query, 3) is None
        assert (
            backend.search_among_many(1, KIND_DESC, [1, 2], [query], [3])
            is None
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_mutations_route_and_parity_survives_removals(self, name):
        reference, backend, _slabs = _pair(name)
        user = USERS[0]
        for rid in (3, 11, 20):
            assert reference.remove(user, KIND_DESC, rid)
            assert backend.remove(user, KIND_DESC, rid)
        assert not backend.remove(user, KIND_DESC, 3)  # already gone
        extra = _vectors(1, seed=77)[0]
        reference.add(user, KIND_DESC, 99, extra)
        backend.add(user, KIND_DESC, 99, extra)
        rids = [r for r in range(1, ROWS + 1) if r not in (3, 11, 20)] + [99]
        query = _vectors(1, seed=6)[0]
        _assert_same(
            backend.search_among(user, KIND_DESC, rids, query, 7),
            reference.search_among(user, KIND_DESC, rids, query, 7),
        )
        # the stale candidate list (still naming a removed id) must not
        # serve: the caller falls back instead of resurrecting id 3
        stale = list(range(1, ROWS + 1))
        assert backend.search_among(user, KIND_DESC, stale, query, 7) is None
        # other kinds of the same user are untouched by the removals
        full = list(range(1, ROWS + 1))
        assert backend.search_among(user, KIND_CODE, full, query, 7) is not None

    @pytest.mark.parametrize("name", BACKENDS)
    def test_emptied_shard_serves_empty_not_none(self, name):
        _reference, backend, _slabs = _pair(name)
        for rid in range(1, ROWS + 1):
            assert backend.remove(2, KIND_WORKFLOW, rid)
        query = _vectors(1, seed=8)[0]
        ids, scores = backend.search_among(2, KIND_WORKFLOW, [], query, 5)
        assert ids == [] and scores.size == 0
        batch = backend.search_among_many(
            2, KIND_WORKFLOW, [], [query, query], [1, None]
        )
        assert [ids for ids, _ in batch] == [[], []]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_concurrent_queries_across_tenants(self, name):
        reference, backend, _slabs = _pair(name)
        rids = list(range(1, ROWS + 1))
        failures = []

        def worker(user, seed):
            query = _vectors(1, seed=seed)[0]
            for kind in KINDS:
                want = reference.search_among(user, kind, rids, query, 5)
                got = backend.search_among(user, kind, rids, query, 5)
                if got is None or got[0] != want[0] or (
                    got[1].tobytes() != want[1].tobytes()
                ):
                    failures.append((user, kind))

        threads = [
            threading.Thread(target=worker, args=(user, 3000 + n))
            for n, user in enumerate(USERS * 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures

    @pytest.mark.parametrize("name", BACKENDS)
    def test_batch_length_and_k_validated(self, name):
        _reference, backend, _slabs = _pair(name)
        rids = list(range(1, ROWS + 1))
        query = _vectors(1, seed=9)[0]
        with pytest.raises(ValidationError, match="queries"):
            backend.search_among_many(1, KIND_DESC, rids, [query], [1, 2])
        with pytest.raises(ValidationError, match="k must be positive"):
            backend.search_among_many(1, KIND_DESC, rids, [query], [0])
        with pytest.raises(ValidationError, match="k must be positive"):
            backend.search_among(1, KIND_DESC, rids, query, -1)


class TestShardView:
    @pytest.mark.parametrize("name", VIEWS)
    def test_writes_land_in_the_base(self, name):
        view = create_backend(name)
        base = view.base
        view.add("u", KIND_DESC, 4, _vectors(1, seed=1)[0])
        view.add_many("u", KIND_DESC, [1, 2], _vectors(2, seed=2))
        assert base.ids("u", KIND_DESC) == [1, 2, 4]
        assert view.ids("u", KIND_DESC) == [1, 2, 4]
        assert view.remove("u", KIND_DESC, 2) is True
        assert view.remove("u", KIND_DESC, 2) is False
        assert base.ids("u", KIND_DESC) == [1, 4]
        # and the other way round: a base write is what the view serves
        base.add("u", KIND_DESC, 9, _vectors(1, seed=3)[0])
        assert view.search_among("u", KIND_DESC, [1, 4, 9], _vectors(1)[0])

    @pytest.mark.parametrize("name", VIEWS)
    def test_snapshot_is_the_base_snapshot(self, name):
        view = create_backend(name)
        _populate([view], users=(1, 2), per_shard=4)
        for kwargs in ({}, {"user": 2}, {"keys": {(1, KIND_CODE)}}):
            got = view.snapshot(**kwargs)
            want = view.base.snapshot(**kwargs)
            assert set(got) == set(want)
            for key, (ids, matrix) in want.items():
                assert got[key][0].tolist() == ids.tolist()
                assert got[key][1].tobytes() == matrix.tobytes()
        assert set(view.snapshot(user=2)) == {(2, kind) for kind in KINDS}
        assert set(view.snapshot(keys={(1, KIND_CODE)})) == {(1, KIND_CODE)}

    @pytest.mark.parametrize("name", VIEWS)
    def test_dirty_tracking_is_shared(self, name):
        view = create_backend(name)
        view.add("u", KIND_DESC, 1, _vectors(1)[0])
        view.base.add("v", KIND_CODE, 1, _vectors(1)[0])
        want = {("u", KIND_DESC), ("v", KIND_CODE)}
        assert view.dirty_keys() == want == view.base.dirty_keys()
        assert view.consume_dirty() == want
        assert view.base.dirty_keys() == set()
        view.remove("u", KIND_DESC, 1)
        assert view.base.consume_dirty() == {("u", KIND_DESC)}

    @pytest.mark.parametrize("name", VIEWS)
    def test_query_cache_is_shared(self, name):
        view = create_backend(name)
        assert view.query_cache is view.base.query_cache
        first = view.query_cache.put("q", _vectors(1, seed=6)[0])
        second = view.base.query_cache.get("q")
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("name", VIEWS)
    def test_stats_extend_the_base_stats(self, name):
        view = create_backend(name)
        _populate([view], users=(1,), per_shard=4)
        extra = {"ivf": "ivfLists", "hnsw": "hnswEntries"}[name]
        stats = view.stats()
        base_stats = view.base.stats()
        assert set(stats) == set(base_stats)
        for shard, info in stats.items():
            assert info.pop(extra) == 0  # small shards never build
            assert info == base_stats[shard]

    @pytest.mark.parametrize("name", VIEWS)
    def test_small_shards_build_no_state(self, name):
        view = create_backend(name)
        _populate([view], users=(1,))
        rids = list(range(1, ROWS + 1))
        view.search_among(1, KIND_DESC, rids, _vectors(1)[0], 3)
        assert view.exact_queries == 1 and view.approx_queries == 0
        assert view._states == {}

    @pytest.mark.parametrize("name", VIEWS)
    def test_unknown_shard(self, name):
        view = create_backend(name)
        query = _vectors(1)[0]
        ids, scores = view.search("nobody", KIND_DESC, query, 3)
        assert ids == [] and scores.size == 0
        assert view.search_among("nobody", KIND_DESC, [1], query, 3) is None
        assert view.ids("nobody", KIND_DESC) == []
        assert view.snapshot() == {}

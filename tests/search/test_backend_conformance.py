"""Conformance of the exact index against a brute-force scan.

Every case feeds identical 23-row slabs into one :class:`VectorIndex`
and checks what the serving layer relies on: the ranking equals a
plain descending-score, ascending-id scan for every ``k``; the batched
and plain entry points answer bitwise like ``search_among``; a shard
that is not resident answers ``None`` (so callers fill it first); and
concurrent readers see the serial answers.

Each case runs once per *layout*: the same final slabs reached through
every write path the registry uses — a bulk write into a new user's
empty shard, one ``add`` per row, out-of-order ids (mid-inserts), churn
(removals, re-inserts and in-place updates) and the fill path (each row
encoded as the store keeps it, the shard decoded in one batch and
installed whole, as attach and a refill read it).  All of them must leave the shard contiguous and
id-ordered, so every layout answers bitwise alike.
"""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.registry.veccodec import decode_many, encode_vector
from repro.search.index import KIND_CODE, KIND_DESC, KIND_WORKFLOW
from tests.helpers import index_shards, resident_index

DIM = 16
KINDS = (KIND_DESC, KIND_CODE, KIND_WORKFLOW)
USERS = (1, 2, 3, 7)
ROWS = 23
RIDS = list(range(1, ROWS + 1))


def _vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, DIM)).astype(np.float32)


def _bulk(index, user, kind, rows):
    index.add_many(user, kind, RIDS, rows)


def _one_by_one(index, user, kind, rows):
    for rid, row in zip(RIDS, rows):
        index.add(user, kind, rid, row)


def _shuffled(index, user, kind, rows):
    # out-of-order ids miss the bulk fast path: rows mid-insert
    order = np.random.default_rng(len(rows)).permutation(len(rows))
    index.add_many(user, kind, [RIDS[i] for i in order], rows[order])


def _churned(index, user, kind, rows):
    index.add_many(user, kind, RIDS, -rows)  # wrong rows, fixed below
    for decoy in (40, 50):
        index.add(user, kind, decoy, rows[0])
    for rid in (5, 12, 17):
        assert index.remove(user, kind, rid)
    for rid, row in zip(RIDS, rows):  # updates in place or re-inserts
        index.add(user, kind, rid, row)
    for decoy in (40, 50):
        assert index.remove(user, kind, decoy)


def _decoded(index, user, kind, rows):
    blobs = [encode_vector(row) for row in rows]
    index.fill(index.version, {(user, kind): (RIDS, decode_many(blobs))})


LAYOUTS = {
    "bulk": _bulk,
    "one-by-one": _one_by_one,
    "shuffled": _shuffled,
    "churned": _churned,
    "decoded": _decoded,
}


@pytest.fixture(params=list(LAYOUTS))
def populated(request):
    """An index holding one slab per (user, kind), written through one
    layout; returns it with ``{(user, kind): rows}`` for brute-force
    references."""
    write = LAYOUTS[request.param]
    index = resident_index(*[(user, kind) for user in USERS for kind in KINDS])
    slabs = {}
    seed = 0
    for user in USERS:
        for kind in KINDS:
            seed += 1
            rows = _vectors(ROWS, seed=seed)
            write(index, user, kind, rows)
            slabs[(user, kind)] = rows
    return index, slabs


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
    def test_search_among_matches_brute_force(self, populated, k):
        index, slabs = populated
        for (user, kind), rows in slabs.items():
            query = _vectors(1, seed=1000 + user)[0]
            got = index.search_among(user, kind, query, k)
            assert got[0] == _brute_ids(rows, RIDS, query, k)
            np.testing.assert_allclose(
                got[1], np.sort(rows @ query)[::-1][: len(got[0])], rtol=1e-6
            )

    def test_search_among_many_bitwise_identical(self, populated):
        index, _slabs = populated
        queries = [_vectors(1, seed=2000 + i)[0] for i in range(4)]
        queries.append(queries[0])  # a duplicate coalesces, same answer
        ks = [1, 5, None, ROWS, 1]
        for user in USERS:
            got = index.search_among_many(user, KIND_DESC, queries, ks)
            assert len(got) == len(queries)
            for got_one, query, k in zip(got, queries, ks):
                _assert_same(
                    got_one, index.search_among(user, KIND_DESC, query, k)
                )

    def test_plain_search_matches_search_among(self, populated):
        index, _slabs = populated
        query = _vectors(1, seed=3)[0]
        for kind in KINDS:
            _assert_same(
                index.search(1, kind, query, 7),
                index.search_among(1, kind, query, 7),
            )

    def test_tie_break_is_ascending_id(self):
        index = resident_index(("u", KIND_DESC))
        top = np.zeros(DIM, dtype=np.float32)
        top[0] = 2.0
        tied = np.zeros(DIM, dtype=np.float32)
        tied[0] = 1.0
        # equal scores must rank by ascending id whatever the add order
        for rid, vec in ((9, tied), (5, tied), (7, top), (2, tied)):
            index.add("u", KIND_DESC, rid, vec)
        query = np.zeros(DIM, dtype=np.float32)
        query[0] = 1.0
        ids, scores = index.search_among("u", KIND_DESC, query)
        assert ids == [7, 2, 5, 9]
        assert scores.tolist() == [2.0, 1.0, 1.0, 1.0]
        ids, _ = index.search_among("u", KIND_DESC, query, 2)
        assert ids == [7, 2]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_ties_at_the_kth_score_rank_by_ascending_id(self, k):
        # scores 3, 2, 2, 2, 1, 1, 1, 0 over ids added newest first: the
        # partial selection must pull in every row tied with the k-th
        # score, so each cut keeps the lowest ids of the tied run
        levels = {8: 0.0, 1: 3.0, 6: 2.0, 3: 2.0, 4: 2.0, 7: 1.0, 2: 1.0, 5: 1.0}
        index = resident_index(("u", KIND_DESC))
        for rid in sorted(levels, reverse=True):
            vec = np.zeros(DIM, dtype=np.float32)
            vec[0] = levels[rid]
            index.add("u", KIND_DESC, rid, vec)
        query = np.zeros(DIM, dtype=np.float32)
        query[0] = 1.0
        full = [1, 3, 4, 6, 2, 5, 7, 8]
        ids, scores = index.search_among("u", KIND_DESC, query, k)
        assert ids == full[:k]
        assert scores.tolist() == [levels[rid] for rid in full[:k]]

    def test_layout_holds_the_slabs_verbatim(self, populated):
        index, slabs = populated
        exported = index_shards(index)
        assert set(exported) == set(slabs)
        for key, (ids, matrix) in exported.items():
            assert ids.tolist() == RIDS
            assert matrix.tobytes() == slabs[key].tobytes()


class TestMembership:
    def test_a_shard_that_is_not_resident_returns_none(self, populated):
        index, _slabs = populated
        query = _vectors(1, seed=5)[0]
        assert index.search_among(99, KIND_DESC, query, 3) is None
        assert index.search_among_many(99, KIND_DESC, [query], [3]) is None
        assert index.search_among(1, KIND_DESC, query, 3) is not None

    def test_parity_survives_removals(self, populated):
        index, slabs = populated
        user = USERS[0]
        for rid in (3, 11, 20):
            assert index.remove(user, KIND_DESC, rid)
        assert not index.remove(user, KIND_DESC, 3)  # already gone
        extra = _vectors(1, seed=77)[0]
        index.add(user, KIND_DESC, 99, extra)
        keep = [r for r in RIDS if r not in (3, 11, 20)]
        rids = keep + [99]
        slab = slabs[(user, KIND_DESC)]
        rows = np.vstack([slab[r - 1] for r in keep] + [extra])
        query = _vectors(1, seed=6)[0]
        got = index.search_among(user, KIND_DESC, query, 7)
        assert got[0] == _brute_ids(rows, rids, query, 7)
        # other kinds of the same user are untouched by the removals
        assert index.search_among(user, KIND_CODE, query, 7)[0] == (
            _brute_ids(slabs[(user, KIND_CODE)], RIDS, query, 7)
        )

    def test_emptied_shard_serves_empty_not_none(self, populated):
        index, _slabs = populated
        for rid in RIDS:
            assert index.remove(2, KIND_WORKFLOW, rid)
        query = _vectors(1, seed=8)[0]
        ids, scores = index.search_among(2, KIND_WORKFLOW, query, 5)
        assert ids == [] and scores.size == 0
        batch = index.search_among_many(
            2, KIND_WORKFLOW, [query, query], [1, None]
        )
        assert [ids for ids, _ in batch] == [[], []]

    def test_concurrent_queries_across_tenants(self, populated):
        index, _slabs = populated
        jobs = [(user, 3000 + n) for n, user in enumerate(USERS * 5)]
        serial = {
            (user, seed, kind): index.search_among(
                user, kind, _vectors(1, seed=seed)[0], 5
            )
            for user, seed in jobs
            for kind in KINDS
        }
        failures = []

        def worker(user, seed):
            query = _vectors(1, seed=seed)[0]
            for kind in KINDS:
                want = serial[(user, seed, kind)]
                got = index.search_among(user, kind, query, 5)
                if got is None or got[0] != want[0] or (
                    got[1].tobytes() != want[1].tobytes()
                ):
                    failures.append((user, kind))

        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures

    def test_batch_length_and_k_validated(self, populated):
        index, _slabs = populated
        query = _vectors(1, seed=9)[0]
        with pytest.raises(ValidationError, match="queries"):
            index.search_among_many(1, KIND_DESC, [query], [1, 2])
        with pytest.raises(ValidationError, match="k must be positive"):
            index.search_among_many(1, KIND_DESC, [query], [0])
        with pytest.raises(ValidationError, match="k must be positive"):
            index.search_among(1, KIND_DESC, query, -1)

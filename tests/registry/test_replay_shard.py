"""``_replay_shard`` against the per-record loop it replaced.

The production replay resolves last-writer-wins over the concatenated
(base, chain) ids with numpy — the base slab is ids only and counts as
a run of adds — and reads the vectors of the winning ids from the
record table in one fetch; :func:`replay_reference` below is the
dict-per-record implementation, kept as the reference: same output
bytes (ascending ids, C-contiguous float32 rows) and the same
``ValueError`` for every torn chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.dao import _OP_ADD, _OP_REMOVE, _pick_rows, _replay_shard
from repro.registry.veccodec import decode_many, encode_vector


def replay_reference(base, deltas, records):
    rows = set()
    tip = None
    if base is not None:
        tip, ids = base
        rows.update(ids.tolist())
    for counter, op, rids in deltas:
        if tip is not None and counter <= tip:
            raise ValueError("non-increasing delta chain")
        tip = counter
        if op == _OP_REMOVE:
            rows.difference_update(rids.tolist())
        elif op == _OP_ADD:
            rows.update(rids.tolist())
        else:
            raise ValueError(f"unknown delta op {op!r}")
    if tip is None:
        raise ValueError("empty shard chain")
    ordered = sorted(rows)
    for rid in ordered:
        if rid not in records:
            raise ValueError("shard id without a record row")
    for rid in ordered:
        if records[rid] is None:
            raise ValueError("shard id without a record vector")
    if len({records[rid].shape[0] for rid in ordered}) > 1:
        raise ValueError("record vector dimension mismatch")
    if not rows:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, 0), dtype=np.float32),
            int(tip),
        )
    ids_out = np.asarray(ordered, dtype=np.int64)
    matrix_out = np.ascontiguousarray(
        np.stack([records[rid] for rid in ordered]), dtype=np.float32
    )
    return ids_out, matrix_out, int(tip)


def fetch_from(records, asked=None):
    """Replay's ``fetch`` over a record table ``{id: vector | None}``,
    through the helpers the DAO fills its shards with: the vectors are
    stored as encoded blobs, as in a record row."""
    scan_ids = np.asarray(sorted(records), dtype=np.int64)
    column = [
        None if records[rid] is None else encode_vector(records[rid])
        for rid in sorted(records)
    ]

    def fetch(ids):
        if asked is not None:
            asked.extend(ids.tolist())
        return decode_many(_pick_rows(scan_ids, column, ids))

    return fetch


def production(base, deltas, records):
    return _replay_shard(base, deltas, fetch_from(records))


def outcome(replay, base, deltas, records):
    """What a replay produced, comparable across implementations."""
    try:
        ids, matrix, tip = replay(base, deltas, records)
    except ValueError as exc:
        return ("error", str(exc))
    assert ids.dtype == np.int64
    assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
    return (ids.tobytes(), matrix.shape, matrix.tobytes(), tip)


@st.composite
def chains(draw):
    """A base slab (or none), a chain over a small id space, so ids
    collide across base, adds and removes, and the record table the
    adds point into; occasionally torn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    id_space = draw(st.integers(1, 12))

    def batch(n):
        return rng.integers(0, id_space, size=n).astype(np.int64)

    def vectors(n, width=dim):
        return rng.standard_normal((n, width)).astype(np.float32)

    records = {}
    for rid in range(id_space):
        fault = draw(st.sampled_from([None] * 20 + ["gone", "bare", "wide"]))
        if fault == "bare":
            records[rid] = None  # the row exists, without this vector
        elif fault != "gone":
            records[rid] = vectors(1, dim + 1 if fault == "wide" else dim)[0]
    base = None
    counter = 0
    if draw(st.booleans()):
        counter = draw(st.integers(1, 5))
        # duplicate and unsorted base ids are legal input
        base = (counter, batch(draw(st.integers(0, 10))))
    deltas = []
    for _ in range(draw(st.integers(0, 12))):
        fault = draw(st.sampled_from([None] * 27 + ["counter", "op"]))
        counter += 0 if fault == "counter" else draw(st.integers(1, 3))
        op = draw(st.sampled_from([_OP_ADD, _OP_REMOVE]))
        deltas.append(
            (counter, "upsert" if fault == "op" else op,
             batch(draw(st.integers(0, 4))))
        )
    return base, deltas, records


@settings(max_examples=300, deadline=None)
@given(chains())
def test_vectorised_replay_equals_the_per_record_loop(chain):
    assert outcome(production, *chain) == outcome(replay_reference, *chain)


RECORDS = {
    1: np.ones(2, np.float32),
    2: None,
    3: np.ones(3, np.float32),
}


@pytest.mark.parametrize(
    "deltas, message",
    [
        ([(3, _OP_ADD, np.array([1]))], "non-increasing delta chain"),
        ([(4, _OP_ADD, np.array([1])), (4, _OP_REMOVE, np.array([1]))],
         "non-increasing delta chain"),
        ([(4, _OP_ADD, np.array([2]))], "shard id without a record vector"),
        ([(4, _OP_ADD, np.array([9]))], "shard id without a record row"),
        ([(4, _OP_ADD, np.array([3]))], "record vector dimension mismatch"),
        ([(4, "upsert", np.array([1]))], "unknown delta op 'upsert'"),
    ],
)
def test_torn_chains_raise_the_same_errors(deltas, message):
    base = (3, np.array([1], dtype=np.int64))
    for replay in (production, replay_reference):
        with pytest.raises(ValueError, match=message):
            replay(base, deltas, RECORDS)


def test_only_winning_adds_are_fetched():
    """An add beaten by a later remove is never looked up: a deleted
    record's old journal rows do not tear the chain."""
    asked = []
    base = (3, np.array([7, 8], dtype=np.int64))
    deltas = [
        (4, _OP_ADD, np.array([1, 9])),
        (5, _OP_REMOVE, np.array([9, 8])),
        (6, _OP_ADD, np.array([1])),
    ]
    ids, matrix, tip = _replay_shard(
        base, deltas, fetch_from({**RECORDS, 7: np.ones(2, np.float32)}, asked)
    )
    assert (ids.tolist(), matrix.shape, tip) == ([1, 7], (2, 2), 6)
    assert asked == [1, 7]


def test_no_base_and_no_chain_is_an_empty_shard_chain():
    for replay in (production, replay_reference):
        with pytest.raises(ValueError, match="empty shard chain"):
            replay(None, [], RECORDS)


def test_chain_that_empties_the_shard_asks_for_no_vector():
    """Nothing at rest says how wide an empty shard was: it is (0, 0),
    and a base id whose record is long gone does not tear it."""
    base = (1, np.array([5], dtype=np.int64))
    deltas = [(2, _OP_REMOVE, np.array([5], dtype=np.int64))]
    ids, matrix, tip = production(base, deltas, RECORDS)
    assert ids.shape == (0,) and matrix.shape == (0, 0) and tip == 2


@pytest.mark.parametrize(
    "base_id, message",
    [
        (9, "shard id without a record row"),
        (2, "shard id without a record vector"),
        (3, "record vector dimension mismatch"),
    ],
)
def test_base_id_the_record_table_cannot_back_tears_the_shard(
    base_id, message
):
    """A base slab is trusted for membership only: each of its ids is
    filled from its record row like a journaled add."""
    base = (3, np.array([1, base_id], dtype=np.int64))
    for replay in (production, replay_reference):
        with pytest.raises(ValueError, match=message):
            replay(base, [], RECORDS)

"""``_replay_shard`` against the per-record loop it replaced.

The production replay resolves last-writer-wins over the concatenated
(base, chain) ids with numpy; :func:`replay_reference` below is the
dict-per-record implementation it replaced, kept as the reference: same
output bytes (ascending ids, C-contiguous float32 rows) and the same
``ValueError`` for every torn chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.dao import _OP_ADD, _OP_REMOVE, _replay_shard


def replay_reference(base, deltas):
    rows = {}
    dim = None
    tip = None
    if base is not None:
        tip, ids, matrix = base
        if matrix.ndim != 2 or ids.shape[0] != matrix.shape[0]:
            raise ValueError("base slab shape mismatch")
        dim = int(matrix.shape[1]) if matrix.shape[0] else None
        for row, rid in enumerate(ids.tolist()):
            rows[int(rid)] = matrix[row]
    for counter, op, rids, vectors in deltas:
        if tip is not None and counter <= tip:
            raise ValueError("non-increasing delta chain")
        tip = counter
        if op == _OP_REMOVE:
            for rid in rids.tolist():
                rows.pop(int(rid), None)
        elif op == _OP_ADD:
            if vectors is None or vectors.ndim != 2:
                raise ValueError("add delta without vectors")
            if rids.shape[0] != vectors.shape[0]:
                raise ValueError("add delta shape mismatch")
            if dim is not None and vectors.shape[1] != dim:
                raise ValueError("delta dimension mismatch")
            dim = int(vectors.shape[1])
            for row, rid in enumerate(rids.tolist()):
                rows[int(rid)] = vectors[row]
        else:
            raise ValueError(f"unknown delta op {op!r}")
    if tip is None:
        raise ValueError("empty shard chain")
    if not rows:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, dim or 0), dtype=np.float32),
            int(tip),
        )
    ordered = sorted(rows)
    ids_out = np.asarray(ordered, dtype=np.int64)
    matrix_out = np.ascontiguousarray(
        np.stack([rows[rid] for rid in ordered]), dtype=np.float32
    )
    return ids_out, matrix_out, int(tip)


def outcome(replay, base, deltas):
    """What a replay produced, comparable across implementations."""
    try:
        ids, matrix, tip = replay(base, deltas)
    except ValueError as exc:
        return ("error", str(exc))
    assert ids.dtype == np.int64
    assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
    return (ids.tobytes(), matrix.shape, matrix.tobytes(), tip)


@st.composite
def chains(draw):
    """A base slab (or none) and a chain over a small id space, so ids
    collide across base, adds and removes; occasionally torn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    id_space = draw(st.integers(1, 12))

    def batch(n, width=dim):
        ids = rng.integers(0, id_space, size=n).astype(np.int64)
        return ids, rng.standard_normal((n, width)).astype(np.float32)

    base = None
    counter = 0
    if draw(st.booleans()):
        counter = draw(st.integers(1, 5))
        # duplicate and unsorted base ids are legal input: last row wins
        base = (counter, *batch(draw(st.integers(0, 10))))
    deltas = []
    for _ in range(draw(st.integers(0, 12))):
        fault = draw(st.sampled_from([None] * 27 + ["counter", "dim", "op"]))
        counter += 0 if fault == "counter" else draw(st.integers(1, 3))
        n = draw(st.integers(0, 4))
        if fault == "op":
            deltas.append((counter, "upsert", *batch(n)))
        elif draw(st.booleans()):
            width = dim + 1 if fault == "dim" else dim
            deltas.append((counter, _OP_ADD, *batch(n, width)))
        else:
            deltas.append((counter, _OP_REMOVE, batch(n)[0], None))
    return base, deltas


@settings(max_examples=300, deadline=None)
@given(chains())
def test_vectorised_replay_equals_the_per_record_loop(chain):
    base, deltas = chain
    assert outcome(_replay_shard, base, deltas) == outcome(
        replay_reference, base, deltas
    )


@pytest.mark.parametrize(
    "deltas, message",
    [
        ([(3, _OP_ADD, np.array([1]), np.ones((1, 2), np.float32))],
         "non-increasing delta chain"),
        ([(4, _OP_ADD, np.array([1]), None)], "add delta without vectors"),
        ([(4, _OP_ADD, np.array([1, 2]), np.ones((1, 2), np.float32))],
         "add delta shape mismatch"),
        ([(4, _OP_ADD, np.array([1]), np.ones((1, 3), np.float32))],
         "delta dimension mismatch"),
        ([(4, "upsert", np.array([1]), None)], "unknown delta op 'upsert'"),
    ],
)
def test_torn_chains_raise_the_same_errors(deltas, message):
    base = (3, np.array([7], dtype=np.int64), np.ones((1, 2), np.float32))
    for replay in (_replay_shard, replay_reference):
        with pytest.raises(ValueError, match=message):
            replay(base, deltas)


def test_no_base_and_no_chain_is_an_empty_shard_chain():
    for replay in (_replay_shard, replay_reference):
        with pytest.raises(ValueError, match="empty shard chain"):
            replay(None, [])


def test_chain_that_empties_the_shard_keeps_its_width():
    base = (1, np.array([5], dtype=np.int64), np.ones((1, 4), np.float32))
    deltas = [(2, _OP_REMOVE, np.array([5], dtype=np.int64), None)]
    ids, matrix, tip = _replay_shard(base, deltas)
    assert ids.shape == (0,) and matrix.shape == (0, 4) and tip == 2

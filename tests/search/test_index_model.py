"""Model test: every write to a ``VectorIndex`` against a dict reference.

A Hypothesis state machine fills, adds, adds in batches and removes on
two shards of one index (batches unsorted, with repeated ids, below the
tail or empty; removes of absent ids, one at a time and as one shard
``drop``; rows of another width, which an empty shard takes and any
other refuses).  After every step each
resident shard must hold exactly the reference's rows, in ascending id
order and byte for byte, ``stats()`` must count them, and a fixed query
must rank them bitwise as the brute-force :func:`exact_scan` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ValidationError
from repro.registry.entities import PERecord
from repro.search import KIND_CODE, KIND_DESC, VectorIndex, exact_scan
from tests.helpers import index_shards, resident_index

KEYS = (("u", KIND_DESC), ("u", KIND_CODE))
WIDTHS = (4, 6)

keys = st.sampled_from(KEYS)
ids = st.integers(0, 24)
widths = st.sampled_from(WIDTHS)


def row(rid: int, width: int, salt: int) -> np.ndarray:
    """A deterministic float32 row (not unit: stored verbatim)."""
    rng = np.random.default_rng([rid, width, salt])
    return rng.standard_normal(width).astype(np.float32)


def query(width: int) -> np.ndarray:
    return np.random.default_rng(width).standard_normal(width).astype(
        np.float32
    )


class IndexModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.index = VectorIndex()
        self.version = 0
        #: resident shards: key -> {id: row}
        self.ref: dict[tuple[str, str], dict[int, np.ndarray]] = {}

    def width(self, key) -> int | None:
        rows = self.ref[key]
        return next(iter(rows.values())).shape[0] if rows else None

    def write(self, key, pairs) -> None:
        """What an accepted add or add_many of ``pairs`` does: the last
        row of a repeated id wins; a shard not resident takes nothing."""
        if key in self.ref:
            self.ref[key].update(pairs)

    def refuses(self, key, vec_width) -> bool:
        if key not in self.ref:
            return False
        width = self.width(key)
        return width is not None and width != vec_width

    @rule(
        key=keys,
        rids=st.lists(ids, unique=True, max_size=8),
        width=widths,
        moved=st.booleans(),
        salt=st.integers(0, 3),
    )
    def fill(self, key, rids, width, moved, salt):
        rows = [row(rid, width, salt) for rid in rids]
        self.version += moved
        self.index.fill(self.version, {key: (rids, rows)})
        if moved:
            self.ref.clear()
        self.ref[key] = dict(zip(rids, rows))

    @rule(key=keys, rid=ids, width=widths, salt=st.integers(0, 3))
    def add(self, key, rid, width, salt):
        vec = row(rid, width, salt)
        if self.refuses(key, width):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                self.index.add(*key, rid, vec)
            return
        self.index.add(*key, rid, vec)
        self.write(key, [(rid, vec)])

    @rule(
        key=keys,
        rids=st.lists(ids, max_size=10),
        width=widths,
        salt=st.integers(0, 3),
    )
    def add_many(self, key, rids, width, salt):
        # a repeated id gets a different row each time: the last must win
        vecs = [row(rid, width, salt + 7 * n) for n, rid in enumerate(rids)]
        batch = np.array(vecs, dtype=np.float32).reshape(len(rids), width)
        if rids and self.refuses(key, width):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                self.index.add_many(*key, rids, batch)
            return
        self.index.add_many(*key, rids, batch)
        self.write(key, list(zip(rids, vecs)))

    @rule(key=keys, rid=ids)
    def remove(self, key, rid):
        present = rid in self.ref.get(key, {})
        assert self.index.remove(*key, rid) == present
        if present:
            del self.ref[key][rid]

    @rule(key=keys, rids=st.lists(ids, max_size=6))
    def drop_many(self, key, rids):
        """``_Shard.drop`` of a batch (``remove`` drops one id)."""
        if key not in self.ref:
            return
        gone = set(rids) & set(self.ref[key])
        with self.index._lock:
            shard = self.index._shards[key]
            assert shard.drop(np.array(rids, dtype=np.int64)) == len(gone)
        for rid in gone:
            del self.ref[key][rid]

    @invariant()
    def shards_equal_the_reference(self):
        shards = index_shards(self.index)
        stats = self.index.stats()
        assert set(stats) == {f"{u}/{k}" for u, k in self.ref}
        assert set(shards) == {key for key, rows in self.ref.items() if rows}
        for key, rows in self.ref.items():
            assert stats[f"{key[0]}/{key[1]}"]["live"] == len(rows)
            if not rows:
                continue
            got_ids, matrix = shards[key]
            want = sorted(rows)
            assert got_ids.tolist() == want
            want_rows = np.stack([rows[rid] for rid in want])
            assert matrix.tobytes() == want_rows.tobytes()

    @invariant()
    def ranking_equals_exact_scan(self):
        for key in KEYS:
            if key not in self.ref:
                assert self.index.search_among(*key, query(4), 5) is None
                continue
            rows = self.ref[key]
            width = self.width(key) or 4
            got = self.index.search_among(*key, query(width), 5)
            field = {KIND_DESC: "desc_embedding", KIND_CODE: "code_embedding"}
            records = [
                PERecord(rid, "", "", "", **{field[key[1]]: rows[rid]})
                for rid in sorted(rows)
            ]
            want = exact_scan(key[1], records, query(width), 5, None)
            assert got[0] == [r.pe_id for r, _ in want]
            assert got[1].tobytes() == np.array(
                [s for _, s in want], dtype=np.float32
            ).tobytes()


IndexModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestIndexModel = IndexModel.TestCase


def test_a_batch_into_a_non_empty_shard_is_one_write(monkeypatch):
    """``add_many`` into a shard that holds rows lands in one step: it
    enters ``VectorIndex.add`` for none of its rows."""
    index = resident_index(KEYS[0])
    index.add_many(*KEYS[0], [10, 20], np.ones((2, 4), dtype=np.float32))
    entered = []
    original = VectorIndex.add
    monkeypatch.setattr(
        VectorIndex,
        "add",
        lambda self, *args: entered.append(args) or original(self, *args),
    )
    batch = np.arange(24, dtype=np.float32).reshape(6, 4)
    index.add_many(*KEYS[0], [30, 5, 20, 40, 5, 50], batch)
    assert entered == []
    assert index.ids(*KEYS[0]) == [5, 10, 20, 30, 40, 50]
    _, matrix = index_shards(index)[KEYS[0]]
    assert matrix[0].tobytes() == batch[4].tobytes()  # the last row of 5
    assert matrix[2].tobytes() == batch[2].tobytes()  # 20, overwritten

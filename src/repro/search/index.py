"""Incremental vector index for registry search (the hot path of §4.2–4.3).

The brute-force scan (:func:`repro.search.serving.exact_scan`) rebuilds
an ``(N, D)`` similarity matrix from Python records on *every* query —
a Python-level loop over the corpus followed by a full ``argsort``.
:class:`VectorIndex` removes that cost from the query path:

* embeddings live in pre-stacked float32 **shards**, one per
  ``(user, kind)`` pair (``desc`` / ``code`` for PEs, ``wf-desc`` for
  workflows), so a query is a single BLAS matrix-vector product (the
  package's embedders emit L2-normalized rows, making that product the
  cosine similarity; vectors are stored verbatim so scores match the
  brute-force scan bit for bit);
* writes are incremental and keyed by record id: ``add`` / ``add_many``
  insert a batch in any id order, or update present ids in place, and
  ``remove`` drops one, each in one vectorized step on the shard (the
  registry's monotonic ids make a write an append, one slice
  assignment), so registry mutations never trigger a full rebuild.  Live
  rows stay *contiguous and in ascending-id order*, and the sorted id
  array is the only id-to-row map, which makes the scoring call see
  exactly the matrix the brute-force rebuild would produce from the
  same id-ordered records — scores are bitwise identical, so even
  floating-point near-ties rank the same;
* top-k retrieval uses ``np.argpartition`` (O(N) selection) instead of a
  full O(N log N) sort, while reproducing the brute-force scan's stable
  tie-break (equal scores rank by insertion order) *exactly*;
* a small LRU cache keeps recently embedded query vectors, so repeated
  queries skip the embedder entirely.

The index is a cache of the record rows.  A shard is *resident* only as
a complete copy of its ``(user, kind)`` rows, installed by :meth:`fill`;
``add``, ``add_many`` and ``remove`` change resident shards only, so a
write to a shard that is not resident touches only the store.
:attr:`VectorIndex.version` is the store's ``data_version`` the
resident shards are current at: a fill at another version drops every
resident shard first.

All operations are guarded by one reentrant lock per index, making the
structure safe for the threaded HTTP server: a search never observes a
torn shard, and a removed id is never returned once ``remove`` returned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import ValidationError

# the shard kinds, re-exported: how each reads its records is
# repro.registry.entities.SHARD_KINDS
from repro.registry.entities import (  # lint: disable=RPR101 — re-exported
    KIND_CODE,
    KIND_DESC,
    KIND_WORKFLOW,
)

#: initial shard capacity (rows)
_INITIAL_CAPACITY = 8


def _as_vector(vector: np.ndarray) -> np.ndarray:
    """float32 row exactly as given — no renormalization.

    The embedders in this package emit L2-normalized rows, which is what
    makes the dot products cosine similarities; storing vectors verbatim
    keeps index scores bitwise identical to the brute-force scan even
    for caller-supplied non-unit embeddings.
    """
    return np.asarray(vector, dtype=np.float32).reshape(-1)


def _rows(
    rids: Sequence[int], vectors: np.ndarray | Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``rids`` as int64 and ``vectors`` as a float32 matrix of as many
    rows (any shape when there are no ids)."""
    ids = np.asarray(rids, dtype=np.int64).reshape(-1)
    matrix = np.asarray(vectors, dtype=np.float32)
    if ids.shape[0] and (matrix.ndim != 2 or matrix.shape[0] != ids.shape[0]):
        raise ValidationError(
            f"got {ids.shape[0]} ids for vectors of shape {matrix.shape}"
        )
    return ids, matrix


class EmbeddingLRU:
    """Small thread-safe LRU of query embeddings keyed by (kind, text)."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValidationError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> np.ndarray | None:
        """The cached vector for ``key``, or None (the search embeds a
        miss and stores it with :meth:`put`)."""
        with self._lock:
            cached = self._data.get(key)
            if cached is not None:
                self._data.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            return None

    def put(self, key: Hashable, vector: np.ndarray) -> np.ndarray:
        """Insert one precomputed vector (idempotent)."""
        vec = np.asarray(vector, dtype=np.float32)
        with self._lock:
            self._data[key] = vec
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return vec


class _Shard:
    """One (user, kind) slab: contiguous rows in ascending-id order.

    The sorted ``ids`` array is the shard's only id-to-row map
    (``searchsorted``).  Rows are kept sorted by record id — for the
    registry's monotonic ids that *is* insertion order, and it stays
    correct even when a dedup ownership grant adds an older record to a
    user's shard after newer ones.  Keeping live rows contiguous and
    id-ordered is what makes the scoring call *bitwise identical* to the
    brute-force matrix rebuild over the same (id-ordered) records — BLAS
    rounding is position-dependent, so any other layout (e.g. tombstoned
    rows) would let floating-point near-ties rank differently than the
    reference scan.

    Every write is one :meth:`put` or one :meth:`drop` of a whole batch;
    neither loops over rows in Python.
    """

    __slots__ = ("key", "matrix", "ids", "size")

    def __init__(self, key: tuple[Hashable, str]) -> None:
        self.key = key
        # width 0 until the first rows arrive
        self.matrix = np.zeros((_INITIAL_CAPACITY, 0), dtype=np.float32)
        self.ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.size = 0

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def _find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``ids``' sorted position among the live ids, and
        whether it is live there."""
        pos = self.ids[: self.size].searchsorted(ids)
        live = (pos < self.size) & (self.ids.take(pos, mode="clip") == ids)
        return pos, live

    # -- mutation ---------------------------------------------------------
    def put(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Insert or overwrite ``rows`` under ``ids`` in one step.

        A repeated id keeps its last row.  Present ids are overwritten in
        place; new ids that sort after the tail (the registry's appends)
        land in one slice, and any others are merged in order.  Capacity
        grows at most once, to the next power of two.  An empty shard
        takes the width of its first rows; any other width is refused.
        """
        if ids.shape[0] > 1 and not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ranked = ids[order]
            order = order[np.append(ranked[1:] != ranked[:-1], True)]
            ids, rows = ids[order], rows[order]
        if rows.shape[1] != self.dim:
            if self.size:
                user, kind = self.key
                raise ValidationError(
                    f"dimension mismatch for shard ({user!r}, {kind!r}): "
                    f"index d={self.dim} vs vector d={rows.shape[1]}"
                )
            self.matrix = np.zeros(
                (self.ids.shape[0], rows.shape[1]), dtype=np.float32
            )
        pos, present = self._find(ids)
        if np.count_nonzero(present):
            self.matrix[pos[present]] = rows[present]
            fresh = ~present
            ids, rows, pos = ids[fresh], rows[fresh], pos[fresh]
            if not ids.shape[0]:
                return
        size, count = self.size, self.size + ids.shape[0]
        if count > self.matrix.shape[0]:
            capacity = 1 << (count - 1).bit_length()
            matrix = np.zeros((capacity, self.dim), dtype=np.float32)
            matrix[:size] = self.matrix[:size]
            grown = np.zeros(capacity, dtype=np.int64)
            grown[:size] = self.ids[:size]
            self.matrix, self.ids = matrix, grown
        first = int(pos[0])
        if first < size:  # some sort below the tail: shift it up in order
            at = pos + np.arange(ids.shape[0])
            moved = np.ones(count - first, dtype=bool)
            moved[at - first] = False
            self.matrix[first:count][moved] = self.matrix[first:size].copy()
            self.ids[first:count][moved] = self.ids[first:size].copy()
            self.matrix[at], self.ids[at] = rows, ids
        else:
            self.matrix[size:count], self.ids[size:count] = rows, ids
        self.size = count

    def drop(self, ids: np.ndarray) -> int:
        """Remove whichever of ``ids`` are live, compacting the rows
        after the first of them in one step; returns how many went."""
        pos, present = self._find(ids)
        if not np.count_nonzero(present):
            return 0
        gone = pos[present]
        first = int(gone.min())
        keep = np.ones(self.size - first, dtype=bool)
        keep[gone - first] = False
        count = first + int(keep.sum())
        self.matrix[first:count] = self.matrix[first : self.size][keep]
        self.ids[first:count] = self.ids[first : self.size][keep]
        dropped, self.size = self.size - count, count
        return dropped

    # -- query ------------------------------------------------------------
    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(nq, d) @ slab -> (nq, size)."""
        return queries @ self.matrix[: self.size].T

    def topk_rows(self, sims: np.ndarray, k: int | None) -> np.ndarray:
        """Row indices of the top-k scores, brute-force-identical order.

        Equal scores rank by ascending record id (row order), matching
        ``np.argsort(-sims, kind="stable")`` over id-ordered records —
        but the truncated path only sorts the O(k) winners after an O(N)
        ``argpartition`` selection.
        """
        if self.size == 0:
            return np.empty(0, dtype=np.int64)
        if k is None or k >= self.size:
            return np.argsort(-sims, kind="stable")
        part = np.argpartition(-sims, k - 1)[:k]
        threshold = sims[part].min()
        # pull in *every* row tied with the k-th score so the stable
        # tie-break picks the same winners as the full sort would
        candidates = np.flatnonzero(sims >= threshold)
        candidates = candidates[np.argsort(-sims[candidates], kind="stable")]
        return candidates[:k]


class VectorIndex:
    """Sharded, incrementally maintained cosine-similarity index.

    Shards are keyed by ``(user, kind)``; record ids are unique within a
    shard.  Vectors are stored as float32 exactly as supplied (the
    embedders in this package emit L2-normalized rows, making the dot
    product a cosine similarity), so scoring one query is exactly one
    matrix-vector product.  What a shard holds is owned by the registry
    service, which fills it from the record rows (:meth:`fill`) and
    keeps a resident shard in step with every write of its own; readers
    rank through :meth:`search_among`, which answers ``None`` for a
    shard that is not resident.

    This exact scan is the only ranking engine: IVF-flat and HNSW were
    measured against it and deleted, because neither was faster at any
    corpus size a workload or paper table reaches (warm
    ``search_among``, d 2 048, 2-CPU host: 96 rows at k 10 took 76 µs
    exact, 169 µs IVF, 411 µs HNSW; 194 rows at k 100 took 208, 537 and
    812 µs) and both failed e2e restart or needle probes.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._shards: dict[tuple[Hashable, str], _Shard] = {}
        #: the store's ``data_version`` the resident shards are current
        #: at (None before the first fill)
        self.version: int | None = None
        self.query_cache = EmbeddingLRU()

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def fill(
        self,
        version: int | None,
        shards: Mapping[
            tuple[Hashable, str],
            tuple[Sequence[int], np.ndarray | Sequence[np.ndarray]],
        ],
    ) -> bool:
        """Install ``shards`` — ``{(user, kind): (ids, vectors)}``, each
        a complete copy of its rows as of the store's ``version`` — and
        return whether ``version`` differs from :attr:`version`.

        If it does, another connection has committed since the resident
        shards were read, so every one of them is dropped first and
        ``version`` recorded: each refills on its next search.
        """
        built = {}
        for key, (rids, vectors) in shards.items():
            built[key] = _Shard(key)
            ids, matrix = _rows(rids, vectors)
            if ids.shape[0]:
                built[key].put(ids, matrix)
        with self._lock:
            moved = version != self.version
            if moved:
                self._shards.clear()
                self.version = version
            self._shards.update(built)
            return moved

    # ------------------------------------------------------------------
    # Mutation (resident shards only)
    # ------------------------------------------------------------------
    def add(
        self, user: Hashable, kind: str, rid: int, vector: np.ndarray
    ) -> None:
        """Insert or update (idempotent by ``rid``) one vector of a
        resident shard: :meth:`add_many` of one row."""
        self.add_many(user, kind, [rid], _as_vector(vector)[np.newaxis])

    def add_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        vectors: np.ndarray | Sequence[np.ndarray],
    ) -> None:
        """Insert or update a batch of one resident shard's rows, in any
        id order, in one :meth:`_Shard.put`; nothing when the shard is
        not resident."""
        ids, matrix = _rows(rids, vectors)
        if ids.shape[0] == 0:
            return
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is not None:
                shard.put(ids, matrix)

    def remove(self, user: Hashable, kind: str, rid: int) -> bool:
        """Drop one record from a resident shard; returns whether it was
        present."""
        with self._lock:
            shard = self._shards.get((user, kind))
            return shard is not None and bool(
                shard.drop(np.array([rid], dtype=np.int64))
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                f"{user}/{kind}": {
                    "live": shard.size,
                    "capacity": shard.matrix.shape[0],
                    "dim": shard.dim,
                }
                for (user, kind), shard in self._shards.items()
            }

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_topk(
        shard: _Shard, qvec: np.ndarray, k: int | None
    ) -> tuple[list[int], np.ndarray]:
        if shard.size == 0:
            return [], np.empty(0, dtype=np.float32)
        sims = shard.scores(qvec[np.newaxis, :])[0]
        rows = shard.topk_rows(sims, k)
        return [int(i) for i in shard.ids[rows]], sims[rows].astype(
            np.float32, copy=False
        )

    def search_among(
        self,
        user: Hashable,
        kind: str,
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray] | None:
        """Top-k ``(ids, scores)`` of one query on the resident ``(user,
        kind)`` shard, or ``None`` when the shard is not resident (the
        caller fills it and asks again)."""
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        qvec = _as_vector(query)
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return None
            return self._shard_topk(shard, qvec, k)

    def search_among_many(
        self,
        user: Hashable,
        kind: str,
        queries: Sequence[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]] | None:
        """:meth:`search_among` for a whole batch of queries on one
        shard, or ``None`` when the shard is not resident.

        Each query is ranked exactly as :meth:`search_among` ranks it,
        under one lock hold, so the results are bitwise identical to the
        single-shot path.  No search calls it; kept only because the e2e
        tracer names it, ROADMAP item 0a deletes it.
        """
        for k in ks:
            if k is not None and k <= 0:
                raise ValidationError(f"k must be positive, got {k}")
        if len(queries) != len(ks):
            raise ValidationError(
                f"got {len(queries)} queries for {len(ks)} k values"
            )
        qvecs = [_as_vector(query) for query in queries]
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return None
            return [self._shard_topk(shard, q, k) for q, k in zip(qvecs, ks)]

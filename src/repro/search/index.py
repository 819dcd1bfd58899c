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
* ``add`` / ``remove`` are incremental and keyed by record id (``add``
  of a present id updates its row in place) — insertion and removal
  shift at most the row tail (appends, the common case for the
  registry's monotonic ids, are O(1) amortized), so registry mutations
  never trigger a full rebuild.  Live rows stay
  *contiguous and in ascending-id order*, which makes the scoring call
  see exactly the matrix the brute-force rebuild would produce from the
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

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class _Shard:
    """One (user, kind) slab: contiguous rows in ascending-id order.

    Rows are kept sorted by record id — for the registry's monotonic
    ids that *is* insertion order, and it stays correct even when a
    dedup ownership grant adds an older record to a user's shard after
    newer ones.  Insertion/removal shift the tail one row.  Keeping
    live rows contiguous and id-ordered is what makes the scoring call
    *bitwise identical* to the brute-force matrix rebuild over the same
    (id-ordered) records — BLAS rounding is position-dependent, so any
    other layout (e.g. tombstoned rows) would let floating-point
    near-ties rank differently than the reference scan.
    """

    __slots__ = (
        "matrix",
        "ids",
        "size",
        "row_of",
        "dim",
    )

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.matrix = np.zeros((_INITIAL_CAPACITY, dim), dtype=np.float32)
        self.ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.size = 0
        self.row_of: dict[int, int] = {}

    @classmethod
    def of(cls, ids: np.ndarray, matrix: np.ndarray) -> "_Shard":
        """A shard holding ``matrix``'s rows under ``ids``, stacked at
        once: no per-row ``searchsorted``, shifting or regrowth.  Rows
        are taken in ascending-id order (the store's scan order; sorted
        here otherwise); no rows make an empty shard of width 0, which
        takes the width of its first row."""
        count = int(ids.shape[0])
        if count == 0:
            return cls(0)
        if not bool(np.all(ids[:-1] < ids[1:])):
            order = np.argsort(ids, kind="stable")
            ids, matrix = ids[order], matrix[order]
        shard = cls(int(matrix.shape[1]))
        capacity = max(_INITIAL_CAPACITY, 1 << (count - 1).bit_length())
        shard.matrix = np.zeros((capacity, shard.dim), dtype=np.float32)
        shard.matrix[:count] = matrix
        shard.ids = np.zeros(capacity, dtype=np.int64)
        shard.ids[:count] = ids
        shard.size = count
        shard.row_of = {int(rid): row for row, rid in enumerate(ids)}
        return shard

    # -- mutation ---------------------------------------------------------
    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, self.matrix.shape[0] * 2)
        matrix = np.zeros((capacity, self.dim), dtype=np.float32)
        matrix[: self.size] = self.matrix[: self.size]
        ids = np.zeros(capacity, dtype=np.int64)
        ids[: self.size] = self.ids[: self.size]
        self.matrix, self.ids = matrix, ids

    def add(self, rid: int, vector: np.ndarray) -> None:
        row = self.row_of.get(rid)
        if row is not None:  # update in place, keeping the row position
            self.matrix[row] = vector
            return
        if self.size == self.matrix.shape[0]:
            self._grow()
        pos = int(np.searchsorted(self.ids[: self.size], rid))
        if pos < self.size:  # mid-insert: shift the tail up one row
            self.matrix[pos + 1 : self.size + 1] = self.matrix[
                pos : self.size
            ].copy()
            self.ids[pos + 1 : self.size + 1] = self.ids[pos : self.size].copy()
            for shifted in range(pos + 1, self.size + 1):
                self.row_of[int(self.ids[shifted])] = shifted
        self.matrix[pos] = vector
        self.ids[pos] = rid
        self.row_of[rid] = pos
        self.size += 1

    def remove(self, rid: int) -> bool:
        row = self.row_of.pop(rid, None)
        if row is None:
            return False
        last = self.size - 1
        if row != last:
            self.matrix[row:last] = self.matrix[row + 1 : self.size]
            self.ids[row:last] = self.ids[row + 1 : self.size]
            for shifted in range(row, last):
                self.row_of[int(self.ids[shifted])] = shifted
        self.size = last
        return True

    # -- query ------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return self.size

    def live_ids(self) -> list[int]:
        return self.ids[: self.size].tolist()

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
            ids = np.asarray(rids, dtype=np.int64).reshape(-1)
            matrix = np.asarray(vectors, dtype=np.float32)
            if ids.shape[0] and (
                matrix.ndim != 2 or matrix.shape[0] != ids.shape[0]
            ):
                raise ValidationError(
                    f"got {ids.shape[0]} ids for vectors of shape "
                    f"{matrix.shape}"
                )
            built[key] = _Shard.of(ids, matrix)
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
        resident shard; nothing when the shard is not resident."""
        vec = _as_vector(vector)
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return
            if shard.size == 0 and shard.dim != vec.shape[0]:
                shard = self._shards[(user, kind)] = _Shard(vec.shape[0])
            elif shard.dim != vec.shape[0]:
                raise ValidationError(
                    f"dimension mismatch for shard ({user!r}, {kind!r}): "
                    f"index d={shard.dim} vs vector d={vec.shape[0]}"
                )
            shard.add(int(rid), vec)

    def add_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        vectors: np.ndarray | Sequence[np.ndarray],
    ) -> None:
        """Insert a batch of one resident shard's rows; nothing when the
        shard is not resident.

        An empty shard and ascending ``rids`` (a bulk write's fresh ids)
        take :meth:`_Shard.of`'s stacking path; any other case adds row
        by row, which preserves the id-ordered layout invariant.
        """
        ids = np.asarray(rids, dtype=np.int64).reshape(-1)
        matrix = np.asarray(vectors, dtype=np.float32)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.shape[0] != ids.shape[0]:
            raise ValidationError(
                f"got {ids.shape[0]} ids for {matrix.shape[0]} vectors"
            )
        if ids.shape[0] == 0:
            return
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return
            if shard.size == 0 and bool(np.all(ids[:-1] < ids[1:])):
                self._shards[(user, kind)] = _Shard.of(ids, matrix)
                return
            for rid, vector in zip(ids.tolist(), matrix):
                self.add(user, kind, rid, vector)

    def remove(self, user: Hashable, kind: str, rid: int) -> bool:
        """Drop one record from a resident shard; returns whether it was
        present."""
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return False
            return shard.remove(int(rid))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, user: Hashable, kind: str, rid: int) -> bool:
        with self._lock:
            shard = self._shards.get((user, kind))
            return shard is not None and int(rid) in shard.row_of

    def size(self, user: Hashable, kind: str) -> int:
        with self._lock:
            shard = self._shards.get((user, kind))
            return 0 if shard is None else shard.live_count

    def ids(self, user: Hashable, kind: str) -> list[int]:
        """Live record ids in ascending order (the ranking tie-break)."""
        with self._lock:
            shard = self._shards.get((user, kind))
            return [] if shard is None else shard.live_ids()

    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                f"{user}/{kind}": {
                    "live": shard.live_count,
                    "capacity": shard.matrix.shape[0],
                    "dim": shard.dim,
                }
                for (user, kind), shard in self._shards.items()
            }

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def search(
        self,
        user: Hashable,
        kind: str,
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray]:
        """Top-k ``(ids, scores)`` for one query vector; a shard that is
        not resident answers empty.

        Results are ordered by descending similarity with stable
        ascending-id tie-breaking — identical ids *and* scores to a
        linear scan over the same vectors in id order.
        """
        return self.search_among(user, kind, query, k) or (
            [], np.empty(0, dtype=np.float32)
        )

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

        Every query is scored under the same lock hold, each as its own
        ``(1, D)`` product — the identical computation
        :meth:`search_among` performs — so the per-query results are
        bitwise identical to the single-shot path (a joint ``(Q, D)``
        product would not be: BLAS accumulation order differs between
        matrix-vector and matrix-matrix kernels, which lets
        floating-point near-ties rank differently).  The amortization is
        everything *around* the product: one lock acquisition and one
        shard lookup for the whole batch.

        No search calls it (each ranks one query through
        :meth:`search_among`); kept only because the e2e tracer names
        it, ROADMAP item 0a deletes it.
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
            # identical queries (trending searches landing in one batch)
            # are scored once — the same bytes produce the same product,
            # so sharing the result stays bitwise exact; distinct (k,
            # vector) pairs still select their own top-k
            cache: dict[tuple[bytes, int | None], tuple] = {}
            results = []
            for qvec, k in zip(qvecs, ks):
                key = (qvec.tobytes(), k)
                hit = cache.get(key)
                if hit is None:
                    hit = self._shard_topk(shard, qvec, k)
                    cache[key] = hit
                results.append(hit)
            return results

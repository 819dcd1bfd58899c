"""Incremental vector index for registry search (the hot path of §4.2–4.3).

The brute-force searchers rebuild an ``(N, D)`` similarity matrix from
Python records on *every* query — a Python-level loop over the corpus
followed by a full ``argsort``.  :class:`VectorIndex` removes that cost
from the query path:

* embeddings live in pre-stacked float32 **shards**, one per
  ``(user, kind)`` pair (``desc`` / ``code`` for PEs, ``wf-desc`` for
  workflows), so a query is a single BLAS matrix-vector product (the
  package's embedders emit L2-normalized rows, making that product the
  cosine similarity; vectors are stored verbatim so scores match the
  brute-force scan bit for bit);
* ``add`` / ``remove`` / ``update`` are incremental and keyed by record
  id — insertion and removal shift at most the row tail (appends, the
  common case for the registry's monotonic ids, are O(1) amortized), so
  registry mutations never trigger a full rebuild.  Live rows stay
  *contiguous and in ascending-id order*, which makes the scoring call
  see exactly the matrix the brute-force rebuild would produce from the
  same id-ordered records — scores are bitwise identical, so even
  floating-point near-ties rank the same;
* top-k retrieval uses ``np.argpartition`` (O(N) selection) instead of a
  full O(N log N) sort, while reproducing the brute-force scan's stable
  tie-break (equal scores rank by insertion order) *exactly*;
* multi-query batches score as one ``(Q, D) @ (D, N)`` product;
* a small LRU cache keeps recently embedded query vectors, so repeated
  queries skip the embedder entirely.

All operations are guarded by one reentrant lock per index, making the
structure safe for the threaded HTTP server: a search never observes a
torn shard, and a removed id is never returned once ``remove`` returned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.errors import ValidationError

#: shard kinds used by the registry wiring
KIND_DESC = "desc"
KIND_CODE = "code"
KIND_WORKFLOW = "wf-desc"

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

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        with self._lock:
            cached = self._data.get(key)
            if cached is not None:
                self._data.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        vector = np.asarray(compute(), dtype=np.float32)
        with self._lock:
            self._data[key] = vector
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return vector

    def get(self, key: Hashable) -> np.ndarray | None:
        """Peek without computing (used by the batch embedder to split
        a batch's queries into cache hits and one bulk embed call)."""
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

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

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
        "version",
        "last_nonappend_version",
    )

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.matrix = np.zeros((_INITIAL_CAPACITY, dim), dtype=np.float32)
        self.ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.size = 0
        self.row_of: dict[int, int] = {}
        #: bumped on every row mutation; approximate backends key their
        #: derived structures (e.g. IVF lists) off (shard, version)
        self.version = 0
        #: version of the most recent mutation that was *not* a pure
        #: tail append (in-place update, mid-insert, remove).  A derived
        #: structure built at version V can be extended incrementally
        #: iff ``last_nonappend_version <= V`` — every row it indexed
        #: still sits at the same position with the same bytes.
        self.last_nonappend_version = 0

    # -- mutation ---------------------------------------------------------
    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, self.matrix.shape[0] * 2)
        matrix = np.zeros((capacity, self.dim), dtype=np.float32)
        matrix[: self.size] = self.matrix[: self.size]
        ids = np.zeros(capacity, dtype=np.int64)
        ids[: self.size] = self.ids[: self.size]
        self.matrix, self.ids = matrix, ids

    def add(self, rid: int, vector: np.ndarray) -> None:
        self.version += 1
        row = self.row_of.get(rid)
        if row is not None:  # update in place, keeping the row position
            self.last_nonappend_version = self.version
            self.matrix[row] = vector
            return
        if self.size == self.matrix.shape[0]:
            self._grow()
        pos = int(np.searchsorted(self.ids[: self.size], rid))
        if pos < self.size:  # mid-insert: shift the tail up one row
            self.last_nonappend_version = self.version
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
        self.version += 1
        self.last_nonappend_version = self.version
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
    matrix-vector product.  Shard membership is owned by the registry
    service — searchers only read, via :meth:`search_among`, which
    verifies the candidate set and searches under a single lock hold.
    """

    #: backend-registry name: this is the exact reference backend every
    #: approximate engine is measured against (see repro.search.backend)
    name = "exact"

    #: truncated top-k is a *prefix* of the full ranking (stable
    #: descending order, ascending-id tie-break) — pagination may cap k
    #: at the page boundary without changing which hits appear
    prefix_stable_topk = True

    def __init__(self, query_cache_size: int = 256) -> None:
        self._lock = threading.RLock()
        self._shards: dict[tuple[Hashable, str], _Shard] = {}
        self.query_cache = EmbeddingLRU(query_cache_size)
        #: shard keys mutated since the last :meth:`consume_dirty` —
        #: the persistence layer flushes exactly these, never O(corpus)
        self._dirty: set[tuple[Hashable, str]] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(
        self, user: Hashable, kind: str, rid: int, vector: np.ndarray
    ) -> None:
        """Insert or update (idempotent by ``rid``) one vector."""
        vec = _as_vector(vector)
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                shard = _Shard(vec.shape[0])
                self._shards[(user, kind)] = shard
            elif shard.dim != vec.shape[0]:
                raise ValidationError(
                    f"dimension mismatch for shard ({user!r}, {kind!r}): "
                    f"index d={shard.dim} vs vector d={vec.shape[0]}"
                )
            shard.add(int(rid), vec)
            self._dirty.add((user, kind))

    update = add

    def add_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        vectors: np.ndarray | Sequence[np.ndarray],
    ) -> None:
        """Bulk insert one shard's rows in a single vectorized pass.

        The attach-time fast path: when the shard does not exist yet and
        ``rids`` arrive in strictly ascending order (the DAO's natural
        id order), the whole slab is stacked at once — no per-row
        ``searchsorted``, shifting or geometric regrowth.  Any other
        case falls back to per-row :meth:`add`, which preserves the
        id-ordered layout invariant.

        ``rids`` may be an int64 ndarray (the DAO hands slabs back that
        way) — it is consumed vectorized, with no per-id Python
        conversion loop on the fast path.
        """
        ids = np.asarray(rids, dtype=np.int64).reshape(-1)
        matrix = np.asarray(vectors, dtype=np.float32)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.shape[0] != ids.shape[0]:
            raise ValidationError(
                f"got {ids.shape[0]} ids for {matrix.shape[0]} vectors"
            )
        count = int(ids.shape[0])
        if count == 0:
            return
        with self._lock:
            shard = self._shards.get((user, kind))
            ascending = bool(np.all(ids[:-1] < ids[1:]))
            if shard is None and ascending:
                shard = _Shard(int(matrix.shape[1]))
                capacity = max(_INITIAL_CAPACITY, 1 << (count - 1).bit_length())
                shard.matrix = np.zeros((capacity, shard.dim), dtype=np.float32)
                shard.matrix[:count] = matrix
                shard.ids = np.zeros(capacity, dtype=np.int64)
                shard.ids[:count] = ids
                shard.size = count
                shard.row_of = {int(rid): row for row, rid in enumerate(ids)}
                self._shards[(user, kind)] = shard
                self._dirty.add((user, kind))
                return
            for rid, vector in zip(ids.tolist(), matrix):
                self.add(user, kind, rid, vector)

    def remove(self, user: Hashable, kind: str, rid: int) -> bool:
        """Drop one record from a shard; returns whether it was present."""
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return False
            removed = shard.remove(int(rid))
            if removed:
                self._dirty.add((user, kind))
            return removed

    def remove_everywhere(self, user: Hashable, rid: int) -> None:
        """Drop a record id from every shard of one user."""
        with self._lock:
            for (shard_user, kind), shard in self._shards.items():
                if shard_user == user and shard.remove(int(rid)):
                    self._dirty.add((shard_user, kind))

    def clear(self, user: Hashable | None = None) -> None:
        with self._lock:
            if user is None:
                self._dirty.update(self._shards)
                self._shards.clear()
            else:
                for key in [k for k in self._shards if k[0] == user]:
                    del self._shards[key]
                    self._dirty.add(key)
        self.query_cache.clear()

    # ------------------------------------------------------------------
    # Dirty tracking (the persistence layer's O(delta) contract)
    # ------------------------------------------------------------------
    def dirty_keys(self) -> set[tuple[Hashable, str]]:
        """Shard keys mutated since the last :meth:`consume_dirty`."""
        with self._lock:
            return set(self._dirty)

    def consume_dirty(self) -> set[tuple[Hashable, str]]:
        """Return and clear the dirty shard-key set.

        The caller owns flushing exactly these keys; a key whose shard
        no longer exists (or is empty) means the persisted slab should
        be dropped, not rewritten.
        """
        with self._lock:
            dirty = self._dirty
            self._dirty = set()
            return dirty

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, user: Hashable, kind: str, rid: int) -> bool:
        with self._lock:
            shard = self._shards.get((user, kind))
            return shard is not None and int(rid) in shard.row_of

    def missing_ids(
        self, user: Hashable, kind: str, rids: Sequence[int]
    ) -> set[int]:
        """The subset of ``rids`` without a live row, in one lock hold."""
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None:
                return {int(rid) for rid in rids}
            return {int(rid) for rid in rids if int(rid) not in shard.row_of}

    def size(self, user: Hashable, kind: str) -> int:
        with self._lock:
            shard = self._shards.get((user, kind))
            return 0 if shard is None else shard.live_count

    def ids(self, user: Hashable, kind: str) -> list[int]:
        """Live record ids in ascending order (the ranking tie-break)."""
        with self._lock:
            shard = self._shards.get((user, kind))
            return [] if shard is None else shard.live_ids()

    def export_shards(
        self,
        user: Hashable | None = None,
        keys: set[tuple[Hashable, str]] | None = None,
    ) -> dict[tuple[Hashable, str], tuple[np.ndarray, np.ndarray]]:
        """Snapshot live slabs as ``{(user, kind): (ids, matrix)}``.

        ``ids`` is the ascending int64 id vector and ``matrix`` the
        matching float32 rows — exactly the layout :meth:`add_many`
        bulk-stacks on import, so a persisted slab round-trips into an
        identical shard (bitwise: vectors are copied verbatim).  Empty
        shards are omitted.  Copies are taken under the lock, so the
        snapshot is never torn by concurrent mutation.  ``keys``
        restricts the export to specific shard keys (the dirty-set
        flush path), ``user`` to one tenant.
        """
        with self._lock:
            return {
                key: (
                    shard.ids[: shard.size].copy(),
                    shard.matrix[: shard.size].copy(),
                )
                for key, shard in self._shards.items()
                if shard.size > 0
                and (user is None or key[0] == user)
                and (keys is None or key in keys)
            }

    def snapshot(
        self,
        user: Hashable | None = None,
        keys: set[tuple[Hashable, str]] | None = None,
    ) -> dict[tuple[Hashable, str], tuple[np.ndarray, np.ndarray]]:
        """Protocol name for :meth:`export_shards` (see
        :class:`repro.search.backend.IndexBackend`)."""
        return self.export_shards(user, keys)

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
        """Top-k ``(ids, scores)`` for one query vector.

        Results are ordered by descending similarity with stable
        ascending-id tie-breaking — identical ids *and* scores to a
        linear scan over the same vectors in id order.
        """
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        qvec = _as_vector(query)
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None or shard.live_count == 0:
                return [], np.empty(0, dtype=np.float32)
            return self._shard_topk(shard, qvec, k)

    @staticmethod
    def _shard_topk(
        shard: _Shard, qvec: np.ndarray, k: int | None
    ) -> tuple[list[int], np.ndarray]:
        sims = shard.scores(qvec[np.newaxis, :])[0]
        rows = shard.topk_rows(sims, k)
        return [int(i) for i in shard.ids[rows]], sims[rows].astype(
            np.float32, copy=False
        )

    def _verified_shard(
        self, user: Hashable, kind: str, rids: Sequence[int]
    ) -> _Shard | None:
        """The shard for ``(user, kind)`` iff it holds *exactly* ``rids``.

        Must be called (and the returned shard used) under ``self._lock``
        — this is the membership verification every ``search_among*``
        variant (exact or approximate) performs before ranking.
        """
        shard = self._shards.get((user, kind))
        if shard is None or shard.size != len(rids):
            return None
        row_of = shard.row_of
        for rid in rids:
            if int(rid) not in row_of:
                return None
        return shard

    def search_among(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray] | None:
        """Atomic membership-checked search for the searcher fast path.

        Returns top-k ``(ids, scores)`` only if the shard holds *exactly*
        the records in ``rids`` — verified and searched under one lock
        hold, so a concurrent add/remove can never make the result
        under-filled or include a stale id.  Returns ``None`` when the
        shard and candidate set disagree (caller passed a subset, some
        records were never indexed, or the registry mutated since the
        caller snapshotted it); the caller then serves the query brute
        force, which is always exact.
        """
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        qvec = _as_vector(query)
        with self._lock:
            shard = self._verified_shard(user, kind, rids)
            if shard is None:
                return None
            if shard.size == 0:
                return [], np.empty(0, dtype=np.float32)
            return self._shard_topk(shard, qvec, k)

    def search_among_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        queries: Sequence[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]] | None:
        """Membership-checked search for a whole micro-batch of queries.

        The batched counterpart of :meth:`search_among`: one candidate
        set (all queries come from the same (user, kind) serving key),
        verified *once*, with every query scored under the same lock
        hold.  Each query is scored as its own ``(1, D)`` product — the
        identical computation :meth:`search_among` performs — so the
        per-query results are bitwise identical to the single-shot path
        (a joint ``(Q, D)`` product would not be: BLAS accumulation
        order differs between matrix-vector and matrix-matrix kernels,
        which lets floating-point near-ties rank differently).  The
        amortization is everything *around* the product: one lock
        acquisition, one membership verification and one shard lookup
        for the whole batch.

        Returns ``None`` when the shard and candidate set disagree; the
        caller then serves every query brute force, which is exact.
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
            shard = self._verified_shard(user, kind, rids)
            if shard is None:
                return None
            if shard.size == 0:
                empty = ([], np.empty(0, dtype=np.float32))
                return [empty for _ in qvecs]
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

    def search_batch(
        self,
        user: Hashable,
        kind: str,
        queries: np.ndarray | Sequence[np.ndarray],
        k: int | None = None,
    ) -> list[tuple[list[int], np.ndarray]]:
        """Top-k per query for a whole batch, scored as one matrix product."""
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        matrix = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        with self._lock:
            shard = self._shards.get((user, kind))
            if shard is None or shard.live_count == 0:
                empty = (list(), np.empty(0, dtype=np.float32))
                return [empty for _ in range(matrix.shape[0])]
            sims = shard.scores(matrix)
            out = []
            for row_sims in sims:
                rows = shard.topk_rows(row_sims, k)
                out.append(
                    (
                        [int(i) for i in shard.ids[rows]],
                        row_sims[rows].astype(np.float32, copy=False),
                    )
                )
            return out

    def cached_query_vector(
        self, key: Hashable, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Embed-once helper: LRU-cached query vector for ``key``."""
        return self.query_cache.get_or_compute(key, compute)

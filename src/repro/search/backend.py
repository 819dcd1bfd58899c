"""Index backends behind one retrieval protocol.

The serving layer (:class:`~repro.search.serving.SearchBatcher`, the
controllers and the ``repro search`` CLI) used to construct
:class:`~repro.search.index.VectorIndex` directly, hard-wiring the exact
BLAS scan as the only ranking engine.  This module separates the *query
API* from the *index implementation* behind it:

* :class:`IndexBackend` — the structural protocol every ranking engine
  implements: incremental mutation (``add``/``add_many``/``remove``),
  membership-checked retrieval (``search_among``/``search_among_many``)
  and slab export (``snapshot``).  :class:`VectorIndex` satisfies it as
  the **exact reference** implementation.
* :class:`IVFFlatBackend` — the first approximate backend: IVF-flat
  (inverted-file with exact re-ranking).  Each shard is clustered into
  ``nlist`` lists by deterministic spherical k-means; a query probes the
  ``nprobe`` nearest lists and re-ranks their members with the same
  full-precision dot product the exact scan uses.  It *wraps* the exact
  index — sharing its slabs, lock and LRU — so the registry service
  maintains one copy of the vectors and both backends serve from it.
* :class:`HNSWBackend` — a graph-navigation backend over the same
  shards: each shard lazily builds a deterministic two-layer small-world
  graph (hash-assigned entry levels, exact ``m0``-NN base adjacency),
  queries beam-search it from the entry layer and exactly re-rank every
  visited row.  A second QPS point for corpora where IVF's cluster
  assumption is weak.
* :class:`_ShardView` — what IVF and HNSW share: the delegation of
  mutation, persistence and the query LRU to the base index, and the
  membership-checked retrieval entry points around each engine's
  per-shard ranking.  A view keeps nothing durable: its lists or graph
  are derived from the base shard on the first query that needs them
  (after a restart too) and rebuilt lazily after writes.
* a fixed **backend table** — the three engines are selected by name
  (``"exact"``, ``"ivf"``, ``"hnsw"``); :func:`create_backend` /
  :func:`build_backends` construct them, so the serving layer never
  names an engine class.

Safety properties shared by every backend:

* membership is verified against the caller's owned-id projection under
  one lock hold (the registry owns shard membership; backends only
  read), and any mismatch returns ``None`` so the caller falls back to
  the exact brute-force scan;
* ``nprobe >= nlist`` (or a shard too small to train) degenerates to the
  exact scan, so IVF at full probe width is *bitwise identical* to the
  exact backend;
* candidate re-ranking keeps the exact path's stable ascending-id
  tie-break, so approximate results are always a subset of the exact
  ranking in the exact order.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Hashable,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.errors import ValidationError
from repro.search.index import VectorIndex, _as_vector, _Shard

#: shards smaller than this are served exactly — training IVF lists on a
#: handful of rows costs more than the scan it would save
_MIN_TRAIN_ROWS = 64

#: Lloyd iterations for the deterministic spherical k-means
_KMEANS_ITERS = 8


@runtime_checkable
class IndexBackend(Protocol):
    """Structural contract between the serving layer and a ranking engine.

    ``VectorIndex`` is the exact reference implementation; approximate
    engines must return ids in descending-similarity order with the same
    stable ascending-id tie-break, and must return ``None`` from the
    ``search_among*`` methods whenever the shard does not hold exactly
    the caller's candidate ids (the caller then serves brute force).
    """

    # -- mutation -------------------------------------------------------
    def add(
        self, user: Hashable, kind: str, rid: int, vector: np.ndarray
    ) -> None: ...

    def add_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        vectors: np.ndarray | Sequence[np.ndarray],
    ) -> None: ...

    def remove(self, user: Hashable, kind: str, rid: int) -> bool: ...

    # -- retrieval ------------------------------------------------------
    def search_among(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray] | None: ...

    def search_among_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        queries: Sequence[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]] | None: ...

    # -- persistence / introspection ------------------------------------
    # ``keys`` restricts the export to specific shard keys — the
    # persistence layer pairs it with ``consume_dirty()`` (an optional
    # capability; backends wrapping a ``VectorIndex`` delegate both) to
    # flush only the shards a write actually touched.
    def snapshot(
        self,
        user: Hashable | None = None,
        keys: set[tuple[Hashable, str]] | None = None,
    ) -> dict[tuple[Hashable, str], tuple[np.ndarray, np.ndarray]]: ...

    def stats(self) -> dict: ...


def _check_ks(ks: Sequence[int | None]) -> None:
    for k in ks:
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")


class _ShardView:
    """An approximate engine as a *view* over a base :class:`VectorIndex`.

    Mutation, persistence and the query-embedding LRU delegate to the
    base (one copy of every vector in the process); retrieval looks the
    shard up under the base lock and hands it to the subclass's
    :meth:`_topk`.  A subclass keeps its per-shard derived structure in
    ``_states`` — valid while ``state.shard is shard and state.version
    == shard.version`` — in memory only.
    """

    def __init__(self, base: VectorIndex | None) -> None:
        self.base = base if base is not None else VectorIndex()
        self._states: dict[tuple[Hashable, str], object] = {}
        self._states_lock = threading.Lock()
        self.approx_queries = 0
        self.exact_queries = 0

    # ------------------------------------------------------------------
    # Mutation / persistence / query LRU: delegate to the base index
    # ------------------------------------------------------------------
    def add(self, user, kind, rid, vector) -> None:
        self.base.add(user, kind, rid, vector)

    def add_many(self, user, kind, rids, vectors) -> None:
        self.base.add_many(user, kind, rids, vectors)

    def remove(self, user, kind, rid) -> bool:
        return self.base.remove(user, kind, rid)

    def snapshot(self, user=None, keys=None):
        return self.base.snapshot(user, keys)

    def dirty_keys(self):
        return self.base.dirty_keys()

    def consume_dirty(self):
        return self.base.consume_dirty()

    def ids(self, user, kind):
        return self.base.ids(user, kind)

    @property
    def query_cache(self):
        return self.base.query_cache

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _topk(
        self,
        key: tuple[Hashable, str],
        shard: _Shard,
        qvec: np.ndarray,
        k: int | None,
    ) -> tuple[list[int], np.ndarray]:
        """Rank one query over ``shard`` (caller holds the base lock)."""
        raise NotImplementedError

    def search(
        self,
        user: Hashable,
        kind: str,
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray]:
        _check_ks([k])
        qvec = _as_vector(query)
        base = self.base
        with base._lock:
            shard = base._shards.get((user, kind))
            if shard is None or shard.size == 0:
                return [], np.empty(0, dtype=np.float32)
            return self._topk((user, kind), shard, qvec, k)

    def search_among(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        query: np.ndarray,
        k: int | None = None,
    ) -> tuple[list[int], np.ndarray] | None:
        _check_ks([k])
        qvec = _as_vector(query)
        base = self.base
        with base._lock:
            shard = base._verified_shard(user, kind, rids)
            if shard is None:
                return None
            if shard.size == 0:
                return [], np.empty(0, dtype=np.float32)
            return self._topk((user, kind), shard, qvec, k)

    def search_among_many(
        self,
        user: Hashable,
        kind: str,
        rids: Sequence[int],
        queries: Sequence[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]] | None:
        _check_ks(ks)
        if len(queries) != len(ks):
            raise ValidationError(
                f"got {len(queries)} queries for {len(ks)} k values"
            )
        qvecs = [_as_vector(query) for query in queries]
        base = self.base
        with base._lock:
            shard = base._verified_shard(user, kind, rids)
            if shard is None:
                return None
            if shard.size == 0:
                empty = ([], np.empty(0, dtype=np.float32))
                return [empty for _ in qvecs]
            return self._rank_many((user, kind), shard, qvecs, ks)

    def _rank_many(
        self,
        key: tuple[Hashable, str],
        shard: _Shard,
        qvecs: list[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]]:
        """Rank a verified batch (caller holds the base lock), with the
        exact batch path's duplicate-query coalescing."""
        cache: dict[tuple[bytes, int | None], tuple] = {}
        results = []
        for qvec, k in zip(qvecs, ks):
            cache_key = (qvec.tobytes(), k)
            hit = cache.get(cache_key)
            if hit is None:
                hit = self._topk(key, shard, qvec, k)
                cache[cache_key] = hit
            results.append(hit)
        return results


class _IVFState:
    """Trained clustering for one shard at one version.

    Validity is ``state.shard is shard and state.version == shard.version``
    — object identity guards against a shard being dropped and rebuilt
    (fresh shards restart their version counter), the version against
    in-place mutation.  ``stale_serves`` counts queries served exactly
    while the state was stale (see ``IVFFlatBackend._state_for``).
    """

    __slots__ = ("shard", "version", "centroids", "lists", "stale_serves")

    def __init__(
        self,
        shard: _Shard,
        version: int,
        centroids: np.ndarray,
        lists: list[np.ndarray],
    ) -> None:
        self.shard = shard
        self.version = version
        self.centroids = centroids
        self.lists = lists
        self.stale_serves = 0


def _train_ivf(shard: _Shard, nlist: int) -> _IVFState:
    """Deterministic spherical k-means over the live slab.

    No RNG: centroids initialize from evenly spaced rows of the
    id-ordered slab, then a fixed number of Lloyd iterations assign rows
    to their max-dot centroid and re-normalize the means (the rows are
    L2-normalized, so max-dot is nearest-cosine).  Empty clusters keep
    their previous centroid.  Deterministic training means two processes
    over the same registry build identical lists — recall numbers are
    reproducible.
    """
    matrix = shard.matrix[: shard.size]
    nlist = max(1, min(int(nlist), shard.size))
    seeds = np.unique(
        np.linspace(0, shard.size - 1, nlist).astype(np.int64)
    )
    centroids = matrix[seeds].copy()
    assign = np.empty(shard.size, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        assign = np.argmax(matrix @ centroids.T, axis=1)
        for c in range(centroids.shape[0]):
            members = np.flatnonzero(assign == c)
            if members.size == 0:
                continue  # empty cluster: keep the previous centroid
            mean = matrix[members].mean(axis=0)
            norm = float(np.linalg.norm(mean))
            centroids[c] = mean / norm if norm > 0 else mean
    assign = np.argmax(matrix @ centroids.T, axis=1)
    lists = [
        np.flatnonzero(assign == c).astype(np.int64)
        for c in range(centroids.shape[0])
    ]
    return _IVFState(shard, shard.version, centroids, lists)


class IVFFlatBackend(_ShardView):
    """IVF-flat approximate retrieval over the exact index's shards.

    A :class:`_ShardView` over a base :class:`VectorIndex`: mutation,
    persistence and the query-embedding LRU delegate to the base (one
    copy of every vector in the process), while retrieval probes the
    ``nprobe`` nearest of ``nlist`` inverted lists and re-ranks only
    their members with the exact full-precision dot product.

    Guarantees:

    * **membership mismatch** returns ``None`` exactly like the exact
      backend — the caller's brute-force fallback stays the safety net;
    * **small or over-probed shards** (``size < min_train_rows`` or
      ``nprobe >= nlist``, including ``k=None`` full-listing queries)
      serve through the exact scan, bitwise identical to the reference;
    * **stale lists never serve**: the clustering is keyed to the shard
      object *and* its mutation version, so any add/remove triggers a
      lazy retrain on the next query.
    """

    name = "ivf"

    #: the probed candidate set depends on k (degenerate paths widen to
    #: the exact scan), so a truncated ranking is NOT a prefix of the
    #: k=None ranking — paginating callers must not cap k per page
    prefix_stable_topk = False

    def __init__(
        self,
        base: VectorIndex | None = None,
        *,
        nlist: int | None = None,
        nprobe: int | None = None,
        min_train_rows: int = _MIN_TRAIN_ROWS,
        retrain_fraction: float = 0.02,
    ) -> None:
        super().__init__(base)
        #: None -> sqrt(N) lists, the standard IVF sizing
        self.nlist = nlist
        #: None -> ceil(nlist / 8), a ~12% probe fraction
        self.nprobe = nprobe
        self.min_train_rows = max(2, int(min_train_rows))
        #: retraining is amortized: once trained, a shard must accrue
        #: ``max(1, retrain_fraction * size)`` mutations before the
        #: lists are rebuilt — queries in between serve the exact scan
        #: (always correct), so a write-heavy interleave never pays the
        #: O(N * nlist * D) k-means on every request.  0 retrains
        #: eagerly on any mutation.
        self.retrain_fraction = max(0.0, float(retrain_fraction))
        # counters for benchmarks and `repro stats`
        self.trainings = 0

    def stats(self) -> dict:
        out = self.base.stats()
        with self._states_lock:
            trained = {
                f"{user}/{kind}": state.centroids.shape[0]
                for (user, kind), state in self._states.items()
            }
        for name, info in out.items():
            info["ivfLists"] = trained.get(name, 0)
        return out

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _effective_nlist(self, size: int) -> int:
        if self.nlist is not None:
            return max(1, min(int(self.nlist), size))
        return max(1, min(int(round(float(size) ** 0.5)), size))

    def _effective_nprobe(self, nlist: int) -> int:
        if self.nprobe is not None:
            return max(1, int(self.nprobe))
        return max(1, -(-nlist // 8))  # ceil(nlist / 8)

    def _state_for(
        self, key: tuple[Hashable, str], shard: _Shard
    ) -> _IVFState | None:
        """Trained lists for ``shard``; retrains lazily when stale.

        Returns ``None`` while a previously trained shard is *recently*
        mutated — the stale lists reference shifted row positions and
        must not serve, but retraining on every write would cost more
        than the exact scan it replaces, so the caller serves exactly
        until a rebuild amortizes.  Two triggers end the deferral,
        whichever fires first:

        * **write count** — ``retrain_fraction * size`` mutations have
          accrued since training (write-heavy interleave pays at most
          one k-means per that many writes);
        * **stale-query count** — ``len(lists)`` queries were served
          exactly since staleness began.  Training runs a fixed number
          of Lloyd passes (each ~``nlist`` times one exact scan), so
          one retrain per ~``nlist`` stale queries keeps the amortized
          training overhead within a constant factor of the scans
          already paid — and a mutate-once-then-read-heavy shard
          recovers its approximate speed instead of scanning forever.

        Caller holds the base index lock, so the shard cannot mutate
        underneath the (version-stamped) training pass.
        """
        with self._states_lock:
            state = self._states.get(key)
        if state is not None and state.shard is shard:
            if state.version == shard.version:
                return state
            write_threshold = max(1, int(self.retrain_fraction * shard.size))
            state.stale_serves += 1
            if (
                shard.version - state.version < write_threshold
                and state.stale_serves <= len(state.lists)
            ):
                return None  # amortize: serve exact, retrain later
        state = _train_ivf(shard, self._effective_nlist(shard.size))
        with self._states_lock:
            self._states[key] = state
            self.trainings += 1
        return state

    def _topk(
        self,
        key: tuple[Hashable, str],
        shard: _Shard,
        qvec: np.ndarray,
        k: int | None,
    ) -> tuple[list[int], np.ndarray]:
        """Probe-and-rerank top-k; exact scan when probing cannot help.

        The exact degenerations (tiny shard, ``k=None`` full listing,
        ``nprobe >= nlist``, a recently mutated shard awaiting retrain,
        fewer candidates than ``k``) call the same ``_shard_topk`` the
        exact backend uses — bitwise identical.
        """
        if k is None or shard.size < self.min_train_rows or k >= shard.size:
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        # degenerate probe width: all lists would be scanned anyway, so
        # never pay the k-means (checked against the *configured* list
        # count; training can only shrink it via seed dedup)
        if self._effective_nprobe(
            self._effective_nlist(shard.size)
        ) >= self._effective_nlist(shard.size):
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        state = self._state_for(key, shard)
        if state is None:  # recently mutated: exact until retrain amortizes
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        nlist = len(state.lists)
        nprobe = self._effective_nprobe(nlist)
        if nprobe >= nlist:
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        centroid_sims = state.centroids @ qvec
        probe = np.argpartition(-centroid_sims, nprobe - 1)[:nprobe]
        member_lists = [state.lists[int(c)] for c in probe]
        rows = (
            np.concatenate(member_lists)
            if member_lists
            else np.empty(0, dtype=np.int64)
        )
        if rows.size < k:
            # the probed lists cannot fill k — widen to the exact scan
            # rather than return an under-filled page
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        self.approx_queries += 1
        # ascending row order == ascending id order: the stable argsort
        # below then reproduces the exact path's tie-break among the
        # candidates it sees
        rows.sort()
        sims = shard.matrix[rows] @ qvec
        order = np.argsort(-sims, kind="stable")[:k]
        winners = rows[order]
        return (
            [int(i) for i in shard.ids[winners]],
            sims[order].astype(np.float32, copy=False),
        )


class _HNSWState:
    """Built navigation graph for one shard at one version.

    Same validity contract as :class:`_IVFState`: object identity plus
    the shard's mutation version.  ``levels`` assigns each slab row its
    entry layer (rows with ``level >= 1`` form the global entry set);
    ``neighbors`` is the base-layer adjacency — each row's exact
    ``m0``-nearest slab rows, ``-1``-padded.  Those two arrays are the
    graph (both deterministic functions of the slab, so a restarted
    process rebuilds the same one); the rest are query-time
    accelerators derived on construction:

    * ``entries`` / ``entry_matrix`` — the entry rows and a contiguous
      copy of their vectors, so the routing scan is one dense product
      instead of a strided gather per query;
    * ``entry_mask`` — membership mask used to drop entry rows from the
      gathered neighbor candidates (they are already scored);
    * ``neigh32`` — ``int32`` adjacency copy (half the gather traffic);
    * ``has_pad`` — whether any ``-1`` padding exists, so full shards
      skip the validity filter entirely.
    """

    __slots__ = (
        "shard",
        "version",
        "levels",
        "neighbors",
        "stale_serves",
        "entries",
        "entry_matrix",
        "entry_mask",
        "neigh32",
        "has_pad",
    )

    def __init__(
        self,
        shard: _Shard,
        version: int,
        levels: np.ndarray,
        neighbors: np.ndarray,
    ) -> None:
        self.shard = shard
        self.version = version
        self.levels = levels
        self.neighbors = neighbors
        self.stale_serves = 0
        size = shard.size
        self.entries = np.flatnonzero(levels >= 1)
        self.entry_matrix = np.ascontiguousarray(
            shard.matrix[self.entries]
        )
        self.entry_mask = np.zeros(size, dtype=bool)
        self.entry_mask[self.entries] = True
        self.neigh32 = np.ascontiguousarray(neighbors.astype(np.int32))
        self.has_pad = bool(neighbors.size > 0 and neighbors.min() < 0)


def _build_hnsw(shard: _Shard, m: int, m0: int) -> _HNSWState:
    """Deterministic graph build over the live slab.

    No RNG: each row's level comes from a Knuth multiplicative hash of
    its slab position mapped through the standard HNSW exponential
    (``floor(-ln(u) / ln(m))``), so two processes over the same registry
    build identical graphs.  The base layer is the *exact* ``m0``-NN
    adjacency, computed as blocked BLAS products — an O(N²) build paid
    once per (amortized) rebuild, the price of beam searches that then
    touch only a candidate neighborhood.
    """
    size = shard.size
    matrix = shard.matrix[:size]
    rows = np.arange(size, dtype=np.uint64)
    hashed = (rows * np.uint64(2654435761)) % np.uint64(2**32)
    uniform = (hashed.astype(np.float64) + 1.0) / float(2**32)
    levels = np.floor(-np.log(uniform) / np.log(float(m))).astype(np.int64)
    k_neigh = min(m0, size - 1)
    neighbors = np.full((size, m0), -1, dtype=np.int64)
    if k_neigh > 0:
        block = 512
        for start in range(0, size, block):
            stop = min(size, start + block)
            sims = matrix[start:stop] @ matrix.T
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
            part = np.argpartition(-sims, k_neigh - 1, axis=1)[:, :k_neigh]
            row_idx = np.arange(stop - start)[:, None]
            order = np.argsort(-sims[row_idx, part], kind="stable", axis=1)
            neighbors[start:stop, :k_neigh] = part[row_idx, order]
    return _HNSWState(shard, shard.version, levels, neighbors)


def _extend_hnsw(
    state: _HNSWState, shard: _Shard, m: int, m0: int
) -> _HNSWState:
    """Insert-time incremental build: extend an existing graph with the
    rows appended since it was built, instead of rebuilding whole-graph.

    Valid only when every mutation since ``state.version`` was a pure
    tail append (``shard.last_nonappend_version <= state.version``) —
    then every row the old graph indexed still sits at the same slab
    position with the same bytes, so:

    * **levels** — hashed from the slab *position*, so existing rows
      keep theirs verbatim and only the new positions are hashed;
    * **new rows' adjacency** — their exact ``m0``-NN over the whole
      slab, one ``(n_new, N)`` GEMM instead of the rebuild's O(N²);
    * **existing rows' adjacency** — unchanged unless some new row
      scores above the row's current worst neighbor (the old list is
      the exact top-k of the old rows, so only such rows can change);
      the affected rows — and every row whose list was shorter than the
      new ``k_neigh`` — are recomputed with the rebuild's own blocked
      kernel, which keeps their ordering semantics identical.

    The result matches :func:`_build_hnsw` over the grown slab (for
    untied similarities — real-valued embeddings), so incremental and
    rebuilt graphs serve the same candidates and, because every
    candidate is exactly re-scored at query time, identical results.
    """
    size = shard.size
    matrix = shard.matrix[:size]
    old_size = int(state.levels.shape[0])
    n_new = size - old_size
    rows = np.arange(old_size, size, dtype=np.uint64)
    hashed = (rows * np.uint64(2654435761)) % np.uint64(2**32)
    uniform = (hashed.astype(np.float64) + 1.0) / float(2**32)
    new_levels = np.floor(-np.log(uniform) / np.log(float(m))).astype(np.int64)
    levels = np.concatenate((state.levels, new_levels))
    k_neigh = min(m0, size - 1)
    old_k = min(m0, old_size - 1)
    neighbors = np.full((size, m0), -1, dtype=np.int64)
    # new rows: exact m0-NN against the whole slab in one product
    sims_new = matrix[old_size:size] @ matrix.T
    sims_new[np.arange(n_new), np.arange(old_size, size)] = -np.inf
    row_idx = np.arange(n_new)[:, None]
    part = np.argpartition(-sims_new, k_neigh - 1, axis=1)[:, :k_neigh]
    order = np.argsort(-sims_new[row_idx, part], kind="stable", axis=1)
    neighbors[old_size:size, :k_neigh] = part[row_idx, order]
    # existing rows: a new row enters a list only by beating its worst
    # current neighbor; short lists (old shard smaller than m0+1) grow
    # unconditionally
    if old_k < k_neigh:
        stale = np.arange(old_size, dtype=np.int64)
    else:
        worst_rows = state.neighbors[:, old_k - 1]
        worst = np.einsum(
            "ij,ij->i", matrix[:old_size], matrix[worst_rows]
        )
        best_new = sims_new[:, :old_size].max(axis=0)
        stale = np.flatnonzero(best_new > worst)
        fresh = np.ones(old_size, dtype=bool)
        fresh[stale] = False
        neighbors[:old_size][fresh] = state.neighbors[fresh]
    if stale.size > 0:
        block = 512
        for start in range(0, stale.size, block):
            rows_blk = stale[start : start + block]
            sims = matrix[rows_blk] @ matrix.T
            sims[np.arange(rows_blk.size), rows_blk] = -np.inf
            part = np.argpartition(-sims, k_neigh - 1, axis=1)[:, :k_neigh]
            blk_idx = np.arange(rows_blk.size)[:, None]
            order = np.argsort(-sims[blk_idx, part], kind="stable", axis=1)
            neighbors[rows_blk, :k_neigh] = part[blk_idx, order]
    return _HNSWState(shard, shard.version, levels, neighbors)


class HNSWBackend(_ShardView):
    """Graph-navigation approximate retrieval over the exact index's shards.

    Like :class:`IVFFlatBackend`, a :class:`_ShardView` over the base
    :class:`VectorIndex` — mutation, persistence and the query LRU
    delegate to it.  Retrieval navigates a lazily built small-world
    graph, flattened into the two dense steps that vectorize well:

    1. **route** — score the entry layer (rows hashed to
       ``level >= 1``, an ~1/m sample of the shard) and keep the ``ef``
       best entries;
    2. **expand** — gather those entries' exact ``m0``-nearest
       neighbors from the precomputed base-layer adjacency and score
       them; the candidate set is the entry layer plus that expansion,
       every member scored with a true dot product, ranked with the
       same descending-score / ascending-id order the exact scan uses.

    The same safety net as IVF: membership mismatch returns ``None``,
    ``k=None`` / tiny shards / a graph awaiting its amortized rebuild
    serve through the exact scan, and exact scoring keeps approximate
    results a subset of the exact ranking in the exact order.
    """

    name = "hnsw"

    #: the beam's candidate set depends on k (via the default ef), so a
    #: truncated ranking is NOT a prefix of the k=None ranking
    prefix_stable_topk = False

    def __init__(
        self,
        base: VectorIndex | None = None,
        *,
        m: int = 16,
        m0: int | None = None,
        ef_search: int | None = None,
        min_build_rows: int = _MIN_TRAIN_ROWS,
        rebuild_fraction: float = 0.02,
    ) -> None:
        super().__init__(base)
        if m < 2:
            raise ValidationError(f"m must be at least 2, got {m}")
        self.m = int(m)
        #: base-layer degree; None -> 2m (the classic HNSW M0=2M choice)
        self.m0 = int(m0) if m0 is not None else 2 * int(m)
        #: routed entries to expand; None -> max(8, k) per query
        self.ef_search = ef_search
        self.min_build_rows = max(2, int(min_build_rows))
        #: graph rebuilds amortize exactly like IVF retraining — but a
        #: build is O(N) exact scans, so the stale-query deferral window
        #: scales with the shard size rather than the list count
        self.rebuild_fraction = max(0.0, float(rebuild_fraction))
        self.builds = 0
        #: insert-time incremental graph extensions (appends routed and
        #: linked into the existing graph instead of a whole-graph build)
        self.extends = 0

    def stats(self) -> dict:
        out = self.base.stats()
        with self._states_lock:
            built = {
                f"{user}/{kind}": int(state.entries.size)
                for (user, kind), state in self._states.items()
            }
        for name, info in out.items():
            info["hnswEntries"] = built.get(name, 0)
        return out

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _state_for(
        self, key: tuple[Hashable, str], shard: _Shard
    ) -> _HNSWState | None:
        """Built graph for ``shard``; rebuilds lazily when stale.

        The same amortization contract as ``IVFFlatBackend._state_for``,
        with the stale-query deferral window sized to the build cost: a
        graph build is ~``size`` exact scans' worth of BLAS, so one
        rebuild per ``size`` stale-served queries bounds the amortized
        overhead at a constant factor.  Caller holds the base lock.

        When every mutation since the build was a pure tail append
        (the registry's monotonic-id common case), the graph is instead
        **extended in place** (:func:`_extend_hnsw`) — an O(delta · N)
        insert-time build, cheap enough to run eagerly on the first
        query after the appends rather than deferring behind the
        amortization window.
        """
        with self._states_lock:
            state = self._states.get(key)
        if state is not None and state.shard is shard:
            if state.version == shard.version:
                return state
            old_size = int(state.levels.shape[0])
            if (
                shard.last_nonappend_version <= state.version
                and 2 <= old_size < shard.size
            ):
                state = _extend_hnsw(state, shard, self.m, self.m0)
                with self._states_lock:
                    self._states[key] = state
                    self.extends += 1
                return state
            write_threshold = max(
                1, int(self.rebuild_fraction * shard.size)
            )
            state.stale_serves += 1
            if (
                shard.version - state.version < write_threshold
                and state.stale_serves <= shard.size
            ):
                return None  # amortize: serve exact, rebuild later
        state = _build_hnsw(shard, self.m, self.m0)
        with self._states_lock:
            self._states[key] = state
            self.builds += 1
        return state

    def _effective_ef(self, k: int) -> int:
        if self.ef_search is not None:
            return max(1, int(self.ef_search))
        return max(8, k)

    def _topk(
        self,
        key: tuple[Hashable, str],
        shard: _Shard,
        qvec: np.ndarray,
        k: int | None,
        state: _HNSWState | None = None,
        entry_sims: np.ndarray | None = None,
        frontier: np.ndarray | None = None,
    ) -> tuple[list[int], np.ndarray]:
        """Route-expand-rank top-k; exact scan when the graph cannot help.

        Exact degenerations (tiny shard, ``k=None`` full listing, a
        mutated shard awaiting rebuild, an under-filled candidate set)
        call the same ``_shard_topk`` the exact backend uses.

        ``entry_sims`` lets the batched path score the entry layer for
        many queries in one GEMM; matrix-matrix accumulation can round
        differently than the per-query product, so batched scores for
        *entry-layer* hits may differ from the single-query path in the
        last ulp (candidate sets and, away from exact score ties, the
        ranking are unaffected).
        """
        if k is None or shard.size < self.min_build_rows or k >= shard.size:
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        if state is None:
            state = self._state_for(key, shard)
        if state is None:  # recently mutated: exact until rebuild amortizes
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        entries = state.entries
        if entries.size == 0:
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        if entry_sims is None:
            entry_sims = state.entry_matrix @ qvec
        if frontier is None:
            ef = self._effective_ef(k)
            if ef < entries.size:
                frontier = entries[
                    np.argpartition(-entry_sims, ef - 1)[:ef]
                ]
            else:
                frontier = entries
        neigh = state.neigh32[frontier].ravel()
        if state.has_pad:
            neigh = neigh[neigh >= 0]
        cand = np.unique(neigh)
        cand = cand[~state.entry_mask[cand]]
        rows = np.concatenate((entries, cand))
        if rows.size < k:
            # the expansion cannot fill k — widen to the exact scan
            # rather than return an under-filled page
            self.exact_queries += 1
            return VectorIndex._shard_topk(shard, qvec, k)
        self.approx_queries += 1
        sims = np.concatenate((entry_sims, shard.matrix[cand] @ qvec))
        # rows is NOT ascending (entries precede their expansion), so the
        # exact tie-break — equal scores rank by ascending row == id —
        # needs the explicit two-key sort; the argpartition prefilter
        # keeps it O(candidates) + O(k log k) like _Shard.topk_rows
        part = np.argpartition(-sims, k - 1)[:k]
        threshold = sims[part].min()
        take = np.flatnonzero(sims >= threshold)
        order = take[np.lexsort((rows[take], -sims[take]))[:k]]
        winners = rows[order]
        return (
            [int(i) for i in shard.ids[winners]],
            sims[order].astype(np.float32, copy=False),
        )

    def _rank_many(
        self,
        key: tuple[Hashable, str],
        shard: _Shard,
        qvecs: list[np.ndarray],
        ks: Sequence[int | None],
    ) -> list[tuple[list[int], np.ndarray]]:
        # batched routing scan: the dominant per-query cost is
        # scoring the entry layer, so score it for all of the
        # batch's distinct graph-eligible queries in one GEMM
        state: _HNSWState | None = None
        entry_sims_by_query: dict[bytes, np.ndarray] = {}
        eligible = [
            (qvec, k)
            for qvec, k in zip(qvecs, ks)
            if k is not None
            and shard.size >= self.min_build_rows
            and k < shard.size
        ]
        frontier_by_query: dict[tuple[bytes, int], np.ndarray] = {}
        if eligible:
            state = self._state_for(key, shard)
            if state is not None and state.entries.size > 0:
                distinct: dict[bytes, np.ndarray] = {}
                for qvec, k in eligible:
                    distinct.setdefault(qvec.tobytes(), qvec)
                qmat = np.stack(list(distinct.values()))
                # row-major result: each query's entry sims land
                # contiguous for the routing partition below
                sims = qmat @ state.entry_matrix.T
                for row, key_bytes in enumerate(distinct):
                    entry_sims_by_query[key_bytes] = sims[row]
                # batched routing: one axis-wise partition per
                # distinct ef instead of one call per query
                n_entries = state.entries.size
                for ef in {self._effective_ef(k) for _, k in eligible}:
                    if ef < n_entries:
                        part = np.argpartition(
                            -sims, ef - 1, axis=1
                        )[:, :ef]
                        picked = state.entries[part]
                    else:
                        picked = None
                    for row, key_bytes in enumerate(distinct):
                        frontier_by_query[(key_bytes, ef)] = (
                            state.entries
                            if picked is None
                            else picked[row]
                        )
        # same duplicate-query coalescing as the exact batch path
        cache: dict[tuple[bytes, int | None], tuple] = {}
        results = []
        for qvec, k in zip(qvecs, ks):
            cache_key = (qvec.tobytes(), k)
            hit = cache.get(cache_key)
            if hit is None:
                hit = self._topk(
                    key,
                    shard,
                    qvec,
                    k,
                    state=state,
                    entry_sims=entry_sims_by_query.get(qvec.tobytes()),
                    frontier=(
                        None
                        if k is None
                        else frontier_by_query.get(
                            (qvec.tobytes(), self._effective_ef(k))
                        )
                    ),
                )
                cache[cache_key] = hit
            results.append(hit)
        return results


# ---------------------------------------------------------------------------
# Backend table: engines are selected by name, never constructed
# directly by the serving layer
# ---------------------------------------------------------------------------


def _exact_factory(
    base: VectorIndex | None = None, **options
) -> VectorIndex:
    return base if base is not None else VectorIndex(**options)


#: name -> factory(base: VectorIndex | None, **options) -> IndexBackend,
#: ``"exact"`` (the reference) first.  ``base`` is the process's exact
#: index; the approximate views serve from its shards.
_BACKENDS: dict[str, Callable[..., IndexBackend]] = {
    "exact": _exact_factory,
    "hnsw": HNSWBackend,
    "ivf": IVFFlatBackend,
}


def backend_names() -> list[str]:
    """Backend names, ``"exact"`` first (the reference)."""
    return list(_BACKENDS)


def create_backend(
    name: str, base: VectorIndex | None = None, **options
) -> IndexBackend:
    """Construct one backend by name.

    ``base`` is the exact index a wrapping (approximate) backend should
    serve from; omitted, the backend owns a fresh index.
    """
    factory = _BACKENDS.get(str(name))
    if factory is None:
        raise ValidationError(
            f"unknown index backend {name!r}",
            params={"backend": name},
            details=f"registered backends: {', '.join(backend_names())}",
        )
    return factory(base, **options)


def build_backends(
    base: VectorIndex | None = None,
    options: dict[str, dict] | None = None,
) -> dict[str, IndexBackend]:
    """One instance of every backend over a shared exact index.

    The ``"exact"`` entry *is* the base index (so registry-service
    mutations through it are visible to every wrapping backend);
    ``options`` maps backend name to factory kwargs (e.g.
    ``{"ivf": {"nprobe": 16}, "exact": {"query_cache_size": 1024}}``).
    ``options["exact"]`` configures the shared base itself — unless a
    pre-built ``base`` was passed, which cannot be re-configured.
    """
    opts = options or {}
    if base is not None:
        if opts.get("exact"):
            raise ValidationError(
                "cannot apply 'exact' backend options to a pre-built base "
                "index",
                params={"options": sorted(opts["exact"])},
            )
        exact = base
    else:
        exact = create_backend("exact", None, **dict(opts.get("exact", {})))
    backends: dict[str, IndexBackend] = {}
    for name in backend_names():
        kwargs = dict(opts.get(name, {}))
        backends[name] = (
            exact if name == "exact" else create_backend(name, exact, **kwargs)
        )
    return backends

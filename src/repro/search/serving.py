"""The concurrent O(k) serving layer behind every ``search_topk``.

Two cooperating pieces implement the index-first request path used by
the PE, workflow and code searchers:

* :func:`serve_topk` — the single-shot protocol: rank on the
  pre-stacked shard, check membership against the caller's cheap
  owned-id projection (``search_among`` verifies the shard holds
  exactly those ids under one lock hold), and materialize only the
  returned top-k records through ``resolve``.
* :class:`SearchBatcher` — the micro-batching dispatcher: concurrent
  requests for the same ``(user, kind)`` serving key are collected over
  a short window (or until a size cap) and served as *one* index pass —
  one owned-id projection, one membership verification, one lock hold
  and one batched top-k hydration for the whole batch.  Every query is
  still scored as its own ``(1, D)`` product inside that pass
  (:meth:`~repro.search.index.VectorIndex.search_among_many`), so
  batched results are bitwise identical to single-shot serving.  When a
  request arrives alone, the batcher skips the window entirely and
  degenerates into the single-shot path — sequential workloads pay no
  batching latency.

Any shard / owned-set mismatch (records without stored embeddings,
concurrent mutation) falls back to the brute-force scan over the fully
materialized corpus, which is always exact and bitwise identical to the
historical behaviour.  Ids that vanish between ranking and hydration
are skipped — the result is then slightly under-filled rather than
wrong.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from repro.search.backend import IndexBackend

R = TypeVar("R")  # record type
H = TypeVar("H")  # hit type

#: owned ids may be given materialized or as a lazy projection thunk
OwnedIds = Sequence[int] | Callable[[], Sequence[int]]

#: batched query embedder: texts -> (len(texts), D) float32 rows
EmbedMany = Callable[[list[str]], np.ndarray]


def _materialize_owned(owned_ids: OwnedIds) -> list[int]:
    ids = owned_ids() if callable(owned_ids) else owned_ids
    return [int(rid) for rid in ids]


def serve_topk(
    *,
    index: IndexBackend,
    user: Hashable,
    kind: str,
    owned_ids: OwnedIds,
    k: int | None,
    query_vector: Callable[[], np.ndarray],
    resolve: Callable[[list[int]], Sequence[R]],
    rid_of: Callable[[R], int],
    build_hit: Callable[[R, float], H],
    fallback: Callable[[Sequence[R], np.ndarray], list[H]],
    embed_key: Hashable | None = None,
    embed_text: str | None = None,
    embed_many: EmbedMany | None = None,
) -> list[H]:
    """Serve one query with O(k) record materialization.

    ``query_vector`` is called lazily (an empty owned set never embeds);
    ``fallback(records, qvec)`` is the searcher's brute-force scan over
    the full corpus, invoked only on a shard mismatch.  The ``embed_*``
    parameters describe how to embed this query *as part of a batch* —
    single-shot serving has no batch, so they are accepted (the
    dispatch signature is shared with :meth:`SearchBatcher.submit`) but
    unused.
    """
    owned = _materialize_owned(owned_ids)
    if not owned:
        return []
    qvec = query_vector()
    result = index.search_among(user, kind, owned, qvec, k)
    if result is None:
        return fallback(resolve(owned), qvec)
    ids, scores = result
    by_id = {rid_of(record): record for record in resolve(list(ids))}
    return [
        build_hit(by_id[rid], float(score))
        for rid, score in zip(ids, scores)
        if rid in by_id
    ]


class _BatchRequest:
    """One enqueued search awaiting its share of a batch flush."""

    __slots__ = (
        "owned_ids",
        "k",
        "query_vector",
        "resolve",
        "rid_of",
        "build_hit",
        "fallback",
        "embed_key",
        "embed_text",
        "embed_many",
        "qvec",
        "result",
        "error",
    )

    def __init__(
        self,
        owned_ids,
        k,
        query_vector,
        resolve,
        rid_of,
        build_hit,
        fallback,
        embed_key=None,
        embed_text=None,
        embed_many=None,
    ) -> None:
        self.owned_ids = owned_ids
        self.k = k
        self.query_vector = query_vector
        self.resolve = resolve
        self.rid_of = rid_of
        self.build_hit = build_hit
        self.fallback = fallback
        #: LRU key + raw text + batched embedder for leader-side batch
        #: embedding; None means "embed via the query_vector thunk"
        self.embed_key = embed_key
        self.embed_text = embed_text
        self.embed_many = embed_many
        self.qvec = None
        self.result = None
        self.error = None


class _Batch:
    """Requests accumulating for one (user, kind) serving key."""

    __slots__ = ("requests", "closed", "full", "done")

    def __init__(self) -> None:
        self.requests: list[_BatchRequest] = []
        self.closed = False
        #: set by the follower that fills the batch to the size cap,
        #: waking the leader before the window expires
        self.full = threading.Event()
        #: set by the leader once every request's result is populated
        self.done = threading.Event()


class SearchBatcher:
    """Micro-batches concurrent same-``(user, kind)`` search requests.

    The first request for a key becomes the batch *leader*; while other
    searches are in flight it waits up to ``window`` seconds (or until
    ``max_batch`` requests have joined) and then serves the whole batch
    in one index pass.  A request that arrives with no other search in
    flight skips the window — the single-shot passthrough — so the
    batcher never taxes sequential traffic.

    Batched and single-shot serving return bitwise-identical results:
    the flush scores every query with the same ``(1, D)`` product the
    single-shot ``search_among`` uses (see
    :meth:`~repro.search.index.VectorIndex.search_among_many`), and any
    shard mismatch falls back to the exact brute-force scan per query.

    What one flush amortizes across its Q requests:

    * the owned-id projection (one DAO query instead of Q);
    * the shard membership verification and lock acquisition;
    * top-k hydration — the union of all winners is materialized in a
      single batched ``resolve`` call instead of Q round trips.

    The coalescing window **adapts to the observed queue depth**:
    sustained deep flushes (the window keeps filling half the size cap
    or more) double the effective window up to 4x the configured base —
    deeper batches amortize more per pass; a sustained run of
    single-request flushes collapses it to 0 (pure passthrough), and
    the first concurrent arrival after a collapse restores the base
    window.  ``stats()["effectiveWindow"]`` surfaces the current value.
    """

    #: consecutive deep flushes before the window widens
    _DEEP_STREAK = 3
    #: consecutive single-request flushes before it collapses to 0
    _SPARSE_STREAK = 8
    #: widening cap, as a multiple of the configured base window
    _MAX_WIDEN = 4

    def __init__(self, window: float = 0.003, max_batch: int = 16) -> None:
        self.window = float(window)
        self.max_batch = max(1, int(max_batch))
        self._lock = threading.Lock()
        self._pending: dict[tuple[Hashable, str], _Batch] = {}
        self._inflight = 0
        # adaptive-window state (guarded by _lock)
        self._effective_window = self.window
        self._deep_streak = 0
        self._sparse_streak = 0
        # counters for `repro stats` and the benchmarks
        self.requests_total = 0
        self.batches_total = 0
        self.batched_requests = 0
        self.largest_batch = 0
        self.fallbacks = 0
        self.batch_embeds = 0
        self.batch_embedded_queries = 0
        self.window_widenings = 0
        self.window_collapses = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        index: IndexBackend,
        user: Hashable,
        kind: str,
        owned_ids: OwnedIds,
        k: int | None,
        query_vector: Callable[[], np.ndarray],
        resolve: Callable[[list[int]], Sequence[R]],
        rid_of: Callable[[R], int],
        build_hit: Callable[[R, float], H],
        fallback: Callable[[Sequence[R], np.ndarray], list[H]],
        embed_key: Hashable | None = None,
        embed_text: str | None = None,
        embed_many: EmbedMany | None = None,
    ) -> list[H]:
        """Serve one query through the batch dispatcher (blocking).

        Same callback protocol as :func:`serve_topk`; the call returns
        this request's hits once its batch has flushed.  Exceptions
        raised by the callbacks re-raise in the submitting thread.

        When ``embed_key``/``embed_text``/``embed_many`` are supplied,
        the flush embeds the batch's distinct un-cached query texts in
        ONE ``embed_many`` model call (cross-request embedding batching)
        instead of one serial ``query_vector`` call per request; the
        vectors land in the index's query LRU under ``embed_key``, so
        repeats still skip the embedder entirely.
        """
        if k is not None and k <= 0:
            # reject before joining a batch: one request's bad k must
            # never poison the flush its batchmates ride in
            from repro.errors import ValidationError

            raise ValidationError(f"k must be positive, got {k}")
        request = _BatchRequest(
            owned_ids,
            k,
            query_vector,
            resolve,
            rid_of,
            build_hit,
            fallback,
            embed_key,
            embed_text,
            embed_many,
        )
        # different backends over the same shards must never share a
        # flush: the leader's index serves the whole batch
        key = (id(index), user, kind)
        with self._lock:
            self._inflight += 1
            self.requests_total += 1
            batch = self._pending.get(key)
            is_leader = batch is None or batch.closed
            if is_leader:
                batch = _Batch()
                self._pending[key] = batch
            batch.requests.append(request)
            if len(batch.requests) >= self.max_batch:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
                batch.full.set()
            # only worth waiting when another search is in flight; a
            # collapsed (passthrough) window un-collapses on the first
            # concurrent arrival, so a traffic burst after a quiet spell
            # starts coalescing again immediately
            if self._inflight > 1 and self._effective_window == 0.0:
                self._effective_window = self.window
            wait = self._effective_window if self._inflight > 1 else 0.0
        try:
            if not is_leader:
                batch.done.wait()
            else:
                if wait > 0.0 and not batch.full.is_set():
                    batch.full.wait(wait)
                with self._lock:
                    batch.closed = True
                    if self._pending.get(key) is batch:
                        del self._pending[key]
                try:
                    self._flush(index, user, kind, batch)
                finally:
                    batch.done.set()
        finally:
            with self._lock:
                self._inflight -= 1
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------
    def _resolve_query_vectors(
        self, index: IndexBackend, requests: list[_BatchRequest]
    ) -> list[_BatchRequest]:
        """Populate ``request.qvec`` for the whole batch; returns the
        successfully embedded requests (failures carry their error).

        Requests that shipped an ``embed_many`` spec are resolved
        batch-first: the query LRU is consulted per key, then every
        distinct un-cached text is embedded in ONE model call per
        embedder, and the fresh vectors are written back to the LRU.
        The per-text computation inside ``embed_many`` is identical to
        the single-text ``embed_one`` path (row-independent hashing and
        normalization), so batch-embedded results stay bitwise equal to
        serial embedding.  Requests without a spec (caller-supplied
        embeddings, custom thunks) fall back to their ``query_vector``.
        """
        cache = getattr(index, "query_cache", None)
        live: list[_BatchRequest] = []
        direct: list[_BatchRequest] = []
        grouped: dict[
            Hashable, tuple[EmbedMany, dict[Hashable, list[_BatchRequest]]]
        ] = {}
        for request in requests:
            if (
                request.embed_many is None
                or request.embed_text is None
                or request.embed_key is None
            ):
                # an incomplete embed spec (no distinct cache key) must
                # not share a batch slot: grouping keyless requests
                # would serve them all the first request's vector
                direct.append(request)
                continue
            if cache is not None:
                hit = cache.get(request.embed_key)
                if hit is not None:
                    request.qvec = hit
                    live.append(request)
                    continue
            fn = request.embed_many
            # searchers pass a bound method (searcher.embed_queries),
            # and Python mints a NEW bound-method object per attribute
            # access — grouping by id(fn) would make every group a
            # singleton and defeat the batching entirely.  Group by the
            # underlying (function, instance) pair instead, so every
            # request from the same embedder shares one model call.
            group_key = (
                id(getattr(fn, "__func__", fn)),
                id(getattr(fn, "__self__", None)),
            )
            _, by_key = grouped.setdefault(group_key, (fn, {}))
            by_key.setdefault(request.embed_key, []).append(request)
        for fn, by_key in grouped.values():
            keys = list(by_key)
            texts = [by_key[key][0].embed_text for key in keys]
            try:
                matrix = np.asarray(fn(texts), dtype=np.float32)
                if matrix.shape[0] != len(texts):
                    raise ValueError(
                        f"embed_many returned {matrix.shape[0]} rows for "
                        f"{len(texts)} texts"
                    )
            except Exception as exc:
                for key in keys:
                    for request in by_key[key]:
                        request.error = exc
                continue
            if len(texts) > 1:
                with self._lock:
                    self.batch_embeds += 1
                    self.batch_embedded_queries += len(texts)
            for key, row in zip(keys, matrix):
                vec = cache.put(key, row) if cache is not None else row
                for request in by_key[key]:
                    request.qvec = vec
                    live.append(request)
        for request in direct:
            try:
                request.qvec = request.query_vector()
                live.append(request)
            except Exception as exc:
                request.error = exc
        return live

    # ------------------------------------------------------------------
    def _flush(
        self, index: IndexBackend, user: Hashable, kind: str, batch: _Batch
    ) -> None:
        """Serve every request of ``batch`` in one index pass."""
        requests = batch.requests
        with self._lock:
            self.batches_total += 1
            self.largest_batch = max(self.largest_batch, len(requests))
            if len(requests) > 1:
                self.batched_requests += len(requests)
            self._adapt_window(len(requests))
        lead = requests[0]
        try:
            owned = _materialize_owned(lead.owned_ids)
        except Exception as exc:  # DAO failure — fail the whole batch
            for request in requests:
                request.error = exc
            return
        if not owned:
            for request in requests:
                request.result = []
            return
        live = self._resolve_query_vectors(index, requests)
        if not live:
            return
        try:
            results = index.search_among_many(
                user,
                kind,
                owned,
                [request.qvec for request in live],
                [request.k for request in live],
            )
        except Exception as exc:  # defensive: fail the batch, not None
            for request in live:
                request.error = exc
            return
        if results is None:
            # shard/owned-set mismatch: materialize the corpus once and
            # serve every query with its exact brute-force fallback
            with self._lock:
                self.fallbacks += 1
            try:
                records = lead.resolve(owned)
            except Exception as exc:
                for request in live:
                    request.error = exc
                return
            for request in live:
                try:
                    request.result = request.fallback(records, request.qvec)
                except Exception as exc:
                    request.error = exc
            return
        # one hydration round trip for the union of every query's top-k
        union: list[int] = []
        seen: set[int] = set()
        for ids, _scores in results:
            for rid in ids:
                if rid not in seen:
                    seen.add(rid)
                    union.append(rid)
        try:
            by_id = {
                lead.rid_of(record): record for record in lead.resolve(union)
            }
        except Exception as exc:
            for request in live:
                request.error = exc
            return
        for request, (ids, scores) in zip(live, results):
            try:
                request.result = [
                    request.build_hit(by_id[rid], float(score))
                    for rid, score in zip(ids, scores)
                    if rid in by_id
                ]
            except Exception as exc:
                request.error = exc

    # ------------------------------------------------------------------
    def _adapt_window(self, flushed: int) -> None:
        """Adjust the effective window from one flush's batch size.

        Caller holds ``self._lock``.  Deep flushes (>= half the size
        cap) signal sustained queue depth: after ``_DEEP_STREAK`` in a
        row the window doubles, capped at ``_MAX_WIDEN`` x the base.
        Single-request flushes signal sparse traffic: after
        ``_SPARSE_STREAK`` in a row the window collapses to 0 and every
        lone request skips the wait entirely (``submit`` restores the
        base window on the next concurrent arrival).  In-between sizes
        reset both streaks — the current window is evidently adequate.
        """
        if flushed >= max(2, self.max_batch // 2):
            self._deep_streak += 1
            self._sparse_streak = 0
            if self._deep_streak >= self._DEEP_STREAK:
                self._deep_streak = 0
                widened = min(
                    self._MAX_WIDEN * self.window,
                    (self._effective_window * 2) or self.window,
                )
                if widened > self._effective_window:
                    self._effective_window = widened
                    self.window_widenings += 1
        elif flushed == 1:
            self._sparse_streak += 1
            self._deep_streak = 0
            if self._sparse_streak >= self._SPARSE_STREAK:
                self._sparse_streak = 0
                if self._effective_window > 0.0:
                    self._effective_window = 0.0
                    self.window_collapses += 1
        else:
            self._deep_streak = 0
            self._sparse_streak = 0

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int | float]:
        """Dispatcher counters (requests, batches, coalescing, fallbacks)."""
        with self._lock:
            return {
                "window": self.window,
                "effectiveWindow": self._effective_window,
                "windowWidenings": self.window_widenings,
                "windowCollapses": self.window_collapses,
                "maxBatch": self.max_batch,
                "requests": self.requests_total,
                "batches": self.batches_total,
                "batchedRequests": self.batched_requests,
                "largestBatch": self.largest_batch,
                "fallbacks": self.fallbacks,
                "batchEmbeds": self.batch_embeds,
                "batchEmbeddedQueries": self.batch_embedded_queries,
            }

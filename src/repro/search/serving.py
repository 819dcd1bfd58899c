"""The one dispatch path from an embedding search to the index.

Every semantic, workflow and code search reaches its index through
:meth:`SearchBatcher.submit`, which batches by **group commit**:

* a request whose ``(user, kind)`` key has no flush running
  flushes at once — a lone request is a batch of one and waits for
  nothing;
* requests that arrive while that flush runs queue up behind it;
* when the flush ends, the oldest waiter wakes and leads one flush of
  the whole queue — everything that queued up to the moment it takes
  over, not only what had queued when the flush ended.

Batch size therefore follows the load, with no timer and no size cap
(the queue holds at most one request per dispatch thread), and no
thread leads more than one flush.

One flush is *one* index pass for its Q requests: one owned-id
projection, one membership verification under one lock hold
(:meth:`~repro.search.index.VectorIndex.search_among_many`), one
``embed_many`` model call for the batch's distinct uncached query
texts (the index's query LRU is read first and filled after), and one
``resolve`` for the union of every query's top-k.  Every query is
still scored as its own ``(1, D)`` product, so batched results are
bitwise identical to :meth:`~repro.search.index.VectorIndex.search_among`
and to the brute-force scan.

Any shard / owned-set mismatch (records without stored embeddings,
concurrent mutation) falls back to the brute-force scan over the fully
materialized corpus, which is always exact.  Ids that vanish between
ranking and hydration are skipped — the result is then slightly
under-filled rather than wrong.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from repro.errors import ValidationError
from repro.search.index import VectorIndex

R = TypeVar("R")  # record type
H = TypeVar("H")  # hit type

#: owned ids may be given materialized or as a lazy projection thunk
OwnedIds = Sequence[int] | Callable[[], Sequence[int]]

#: batched query embedder: texts -> (len(texts), D) float32 rows
EmbedMany = Callable[[list[str]], np.ndarray]


def _materialize_owned(owned_ids: OwnedIds) -> list[int]:
    ids = owned_ids() if callable(owned_ids) else owned_ids
    return [int(rid) for rid in ids]


class _BatchRequest:
    """One submitted search awaiting its share of a flush."""

    __slots__ = (
        "owned_ids",
        "k",
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
        "leads",
        "wake",
    )

    def __init__(
        self,
        owned_ids,
        k,
        resolve,
        rid_of,
        build_hit,
        fallback,
        qvec,
        embed_key,
        embed_text,
        embed_many,
    ) -> None:
        self.owned_ids = owned_ids
        self.k = k
        self.resolve = resolve
        self.rid_of = rid_of
        self.build_hit = build_hit
        self.fallback = fallback
        #: the caller's query embedding, or None until the flush embeds
        #: ``embed_text`` (LRU key ``embed_key``) through ``embed_many``
        self.qvec = qvec
        self.embed_key = embed_key
        self.embed_text = embed_text
        self.embed_many = embed_many
        self.result = None
        self.error = None
        #: set when the request is woken to lead the next flush
        self.leads = False
        #: set once the result is published or the lead is handed over
        self.wake = threading.Event()


class SearchBatcher:
    """Group-commit dispatcher for embedding searches (see module doc).

    What one flush amortizes across its Q requests:

    * the owned-id projection (one DAO query instead of Q);
    * the shard membership verification and lock acquisition;
    * query embedding — one ``embed_many`` call for the distinct texts
      the query LRU does not hold;
    * top-k hydration — the union of all winners is materialized in a
      single batched ``resolve`` call instead of Q round trips.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: keys with a flush running -> the requests queued behind it
        self._queues: dict[tuple[Hashable, str], list[_BatchRequest]] = {}
        # counters for `repro stats` and the benchmarks
        self.requests_total = 0
        self.batches_total = 0
        self.batched_requests = 0
        self.largest_batch = 0
        self.fallbacks = 0
        self.batch_embeds = 0
        self.batch_embedded_queries = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        index: VectorIndex,
        user: Hashable,
        kind: str,
        owned_ids: OwnedIds,
        k: int | None,
        resolve: Callable[[list[int]], Sequence[R]],
        rid_of: Callable[[R], int],
        build_hit: Callable[[R, float], H],
        fallback: Callable[[Sequence[R], np.ndarray], list[H]],
        query_embedding: np.ndarray | None = None,
        embed_key: Hashable | None = None,
        embed_text: str | None = None,
        embed_many: EmbedMany | None = None,
    ) -> list[H]:
        """Serve one query (blocking) and return its hits.

        The query is the caller's ``query_embedding`` when given;
        otherwise the flush embeds ``embed_text`` — the index's query
        LRU under ``embed_key`` first, then one ``embed_many`` call for
        the batch's distinct uncached texts.  An empty owned set returns
        ``[]`` without embedding.  ``resolve(ids)`` hydrates records,
        and ``fallback(records, qvec)`` is the brute-force scan over the
        whole owned corpus, used only on a shard mismatch.  Exceptions
        raised by the callbacks re-raise in the submitting thread.
        """
        if k is not None and k <= 0:
            # reject before joining a batch: one request's bad k must
            # never poison the flush its batchmates ride in
            raise ValidationError(f"k must be positive, got {k}")
        spec = (embed_key, embed_text, embed_many)
        if query_embedding is None and None in spec:
            raise ValueError(
                "a search needs query_embedding or a complete "
                "(embed_key, embed_text, embed_many) spec"
            )
        request = _BatchRequest(
            owned_ids,
            k,
            resolve,
            rid_of,
            build_hit,
            fallback,
            None
            if query_embedding is None
            else np.asarray(query_embedding, dtype=np.float32),
            embed_key,
            embed_text,
            embed_many,
        )
        key = (user, kind)
        with self._lock:
            self.requests_total += 1
            queue = self._queues.get(key)
            if queue is None:
                self._queues[key] = []
            else:
                queue.append(request)
        if queue is None:
            self._lead(index, user, kind, key, [request])
        else:
            request.wake.wait()
            if request.leads:
                with self._lock:
                    batch = self._queues[key]
                    self._queues[key] = []
                self._lead(index, user, kind, key, batch)
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------
    def _lead(
        self,
        index: VectorIndex,
        user: Hashable,
        kind: str,
        key: tuple[Hashable, str],
        batch: list[_BatchRequest],
    ) -> None:
        """Flush ``batch``, publish it, and hand the lead to the oldest
        request queued meanwhile (the key stays busy until it takes the
        queue, so later arrivals join the same batch)."""
        try:
            self._flush(index, user, kind, batch)
        except Exception as exc:  # fail this batch, never the queue
            for request in batch:
                if request.result is None and request.error is None:
                    request.error = exc
        finally:
            with self._lock:
                queue = self._queues[key]
                if queue:
                    queue[0].leads = True
                else:
                    del self._queues[key]
            if queue:
                queue[0].wake.set()
            for request in batch:
                request.wake.set()

    # ------------------------------------------------------------------
    def _resolve_query_vectors(
        self, index: VectorIndex, requests: list[_BatchRequest]
    ) -> list[_BatchRequest]:
        """Populate ``request.qvec`` for the whole batch; returns the
        requests that have one (embedding failures carry their error).

        The query LRU is consulted per key, then every distinct uncached
        text is embedded in ONE model call per embedder, and the fresh
        vectors are written back to the LRU.  ``embed_many`` is
        row-independent, so batch-embedded vectors are bitwise equal to
        embedding each text alone.
        """
        cache = index.query_cache
        live: list[_BatchRequest] = []
        grouped: dict[
            Hashable, tuple[EmbedMany, dict[Hashable, list[_BatchRequest]]]
        ] = {}
        for request in requests:
            if request.qvec is None:
                request.qvec = cache.get(request.embed_key)
            if request.qvec is not None:
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
                vec = cache.put(key, row)
                for request in by_key[key]:
                    request.qvec = vec
                    live.append(request)
        return live

    # ------------------------------------------------------------------
    def _flush(
        self,
        index: VectorIndex,
        user: Hashable,
        kind: str,
        requests: list[_BatchRequest],
    ) -> None:
        """Serve every request of one batch in one index pass.

        A failure that is not one request's own (the owned-id fetch,
        ranking, hydration) propagates and fails the whole batch.
        """
        with self._lock:
            self.batches_total += 1
            self.largest_batch = max(self.largest_batch, len(requests))
            if len(requests) > 1:
                self.batched_requests += len(requests)
        lead = requests[0]
        owned = _materialize_owned(lead.owned_ids)
        if not owned:
            for request in requests:
                request.result = []
            return
        live = self._resolve_query_vectors(index, requests)
        if not live:
            return
        results = index.search_among_many(
            user,
            kind,
            owned,
            [request.qvec for request in live],
            [request.k for request in live],
        )
        if results is None:
            # shard/owned-set mismatch: materialize the corpus once and
            # serve every query with its exact brute-force fallback
            with self._lock:
                self.fallbacks += 1
            records = lead.resolve(owned)
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
        by_id = {lead.rid_of(record): record for record in lead.resolve(union)}
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
    def stats(self) -> dict[str, int]:
        """Dispatcher counters (requests, batches, coalescing, fallbacks)."""
        with self._lock:
            return {
                "requests": self.requests_total,
                "batches": self.batches_total,
                "batchedRequests": self.batched_requests,
                "largestBatch": self.largest_batch,
                "fallbacks": self.fallbacks,
                "batchEmbeds": self.batch_embeds,
                "batchEmbeddedQueries": self.batch_embedded_queries,
            }

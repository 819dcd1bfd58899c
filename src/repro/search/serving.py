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

One flush is *one* index pass for its Q requests: one freshness check
of the shard (the caller's ``current``: one ``PRAGMA data_version`` on
the registry's connection), one ranking under one lock hold
(:meth:`~repro.search.index.VectorIndex.search_among_many`), one
``embed_many`` model call for the batch's distinct uncached query
texts (the index's query LRU is read first and filled after), and one
``resolve`` for the union of every query's top-k.  Every query is
still scored as its own ``(1, D)`` product, so batched results are
bitwise identical to :meth:`~repro.search.index.VectorIndex.search_among`
and to :func:`exact_scan`.

A request gets back ``(record, score)`` pairs, best first; the caller
renders them.  A batch is one ``(user, kind)``: the kind says how its
records read (:data:`~repro.registry.entities.SHARD_KINDS`: id, stored
vector, text that embeds a record without one), and its one embedder
embeds the batch's queries.

The index is a cache of the record rows, so no flush scans records:
when another connection has committed since the index was filled, or
the shard is not resident, ``current`` refills the shard from the rows
before it ranks (the former counted in ``fallbacks``).  Ids that vanish
between ranking and hydration are skipped — the result is then
slightly under-filled rather than wrong.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from repro.errors import ValidationError
from repro.ml.similarity import cosine_similarity_matrix
from repro.registry.entities import SHARD_KINDS
from repro.search.index import VectorIndex

R = TypeVar("R")  # record type
T = TypeVar("T")

#: batched query embedder: texts -> (len(texts), D) float32 rows
EmbedMany = Callable[[list[str]], np.ndarray]

#: ``current(rank)`` -> ``(rank(), refilled)``: runs ``rank`` on the
#: shard as the store stands now, refilling it first when another
#: connection has committed or it is not resident (``refilled`` says the
#: former); ``rank`` answers ``None`` for a shard that is not resident
Current = Callable[[Callable[[], T | None]], tuple[T, bool]]


def exact_scan(
    kind: str,
    records: Sequence[R],
    qvec: np.ndarray,
    k: int | None,
    embed_many: EmbedMany,
) -> list[tuple[R, float]]:
    """Rank ``records`` of shard ``kind`` by cosine to ``qvec``: the
    brute-force reference the served path equals.

    The corpus matrix is rebuilt from the records in the order given
    (ascending id from every caller) and sorted stably, so equal scores
    rank by ascending id.  Records with no stored vector are embedded
    from their kind's text in one ``embed_many`` call (row-independent,
    bitwise equal to embedding each alone), and each vector is written
    back onto its record.
    """
    if not records:
        return []
    spec = SHARD_KINDS[kind]
    missing = [r for r in records if getattr(r, spec.vector_field) is None]
    if missing:
        rows = np.asarray(
            embed_many([spec.text(r) for r in missing]), dtype=np.float32
        )
        for record, row in zip(missing, rows):
            setattr(record, spec.vector_field, row)
    matrix = np.zeros((len(records), qvec.shape[0]), dtype=np.float32)
    for i, record in enumerate(records):
        matrix[i] = getattr(record, spec.vector_field)
    sims = cosine_similarity_matrix(qvec, matrix)[0]
    order = np.argsort(-sims, kind="stable")
    if k is not None:
        order = order[:k]
    return [(records[i], float(sims[i])) for i in order]


class _BatchRequest:
    """One submitted search awaiting its share of a flush."""

    __slots__ = (
        "current",
        "k",
        "resolve",
        "embed_many",
        "embed_key",
        "embed_text",
        "qvec",
        "result",
        "error",
        "leads",
        "wake",
    )

    def __init__(
        self, current, k, resolve, embed_many, qvec, embed_key, embed_text
    ) -> None:
        self.current = current
        self.k = k
        self.resolve = resolve
        #: embeds query texts
        self.embed_many = embed_many
        #: the caller's query embedding, or None until the flush embeds
        #: ``embed_text`` (LRU key ``embed_key``)
        self.qvec = qvec
        self.embed_key = embed_key
        self.embed_text = embed_text
        self.result = None
        self.error = None
        #: set when the request is woken to lead the next flush
        self.leads = False
        #: set once the result is published or the lead is handed over
        self.wake = threading.Event()


class SearchBatcher:
    """Group-commit dispatcher for embedding searches (see module doc).

    What one flush amortizes across its Q requests:

    * the freshness check (one ``data_version`` read instead of Q);
    * the shard lookup and lock acquisition;
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
        current: Current,
        k: int | None,
        resolve: Callable[[list[int]], Sequence[R]],
        embed_many: EmbedMany,
        query_embedding: np.ndarray | None = None,
        embed_key: Hashable | None = None,
        embed_text: str | None = None,
    ) -> list[tuple[R, float]]:
        """Serve one query (blocking): ``(record, score)`` pairs, best
        first, ties by ascending id.

        ``kind`` names the shard and how its records read
        (:data:`~repro.registry.entities.SHARD_KINDS`).  The query is the
        caller's ``query_embedding`` when given; otherwise the flush
        embeds ``embed_text`` — the index's query LRU under
        ``embed_key`` first, then one ``embed_many`` call for the
        batch's distinct uncached texts.  ``current`` (:data:`Current`)
        brings the shard up to the store around the ranking, and
        ``resolve(ids)`` hydrates the winners.  Exceptions raised by the
        callbacks re-raise in the submitting thread.
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
            current,
            k,
            resolve,
            embed_many,
            None
            if query_embedding is None
            else np.asarray(query_embedding, dtype=np.float32),
            embed_key,
            embed_text,
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
        text is embedded in ONE model call — a batch is one kind, so
        one embedder — and the fresh vectors are written back to the
        LRU.  ``embed_many`` is row-independent, so batch-embedded
        vectors are bitwise equal to embedding each text alone.
        """
        cache = index.query_cache
        live: list[_BatchRequest] = []
        by_key: dict[Hashable, list[_BatchRequest]] = {}
        for request in requests:
            if request.qvec is None:
                request.qvec = cache.get(request.embed_key)
            if request.qvec is None:
                by_key.setdefault(request.embed_key, []).append(request)
            else:
                live.append(request)
        if not by_key:
            return live
        keys = list(by_key)
        texts = [by_key[key][0].embed_text for key in keys]
        try:
            matrix = np.asarray(
                by_key[keys[0]][0].embed_many(texts), dtype=np.float32
            )
            if matrix.shape[0] != len(texts):
                raise ValueError(
                    f"embed_many returned {matrix.shape[0]} rows for "
                    f"{len(texts)} texts"
                )
        except Exception as exc:
            for waiting in by_key.values():
                for request in waiting:
                    request.error = exc
            return live
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

        A failure that is not one request's own (the freshness check,
        ranking, hydration) propagates and fails the whole batch.
        """
        with self._lock:
            self.batches_total += 1
            self.largest_batch = max(self.largest_batch, len(requests))
            if len(requests) > 1:
                self.batched_requests += len(requests)
        lead = requests[0]
        live = self._resolve_query_vectors(index, requests)
        if not live:
            return
        results, refilled = lead.current(
            lambda: index.search_among_many(
                user,
                kind,
                [request.qvec for request in live],
                [request.k for request in live],
            )
        )
        if refilled:
            with self._lock:
                self.fallbacks += 1
        # one hydration round trip for the union of every query's top-k
        union: list[int] = []
        seen: set[int] = set()
        for ids, _scores in results:
            for rid in ids:
                if rid not in seen:
                    seen.add(rid)
                    union.append(rid)
        id_field = SHARD_KINDS[kind].id_field
        by_id = {
            getattr(record, id_field): record
            for record in lead.resolve(union)
        }
        for request, (ids, scores) in zip(live, results):
            request.result = [
                (by_id[rid], float(score))
                for rid, score in zip(ids, scores)
                if rid in by_id
            ]

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Dispatcher counters (requests, batches, coalescing, and in
        ``fallbacks`` the flushes that refilled their shard after another
        connection's commit)."""
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

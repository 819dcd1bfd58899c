"""The one dispatch path from an embedding search to the index.

Every semantic, workflow and code search reaches its index through
:meth:`SearchBatcher.submit`, which serves its one request directly:

1. the query vector is the caller's, or the index's query LRU entry
   for the query text, or — on a miss — one ``embed_many([text])``
   call whose row the LRU then keeps;
2. the caller's ``current`` brings the shard up to the store (one
   ``PRAGMA data_version`` on the registry's connection) around one
   :meth:`~repro.search.index.VectorIndex.search_among`.

Concurrent searches, on one shard or on many, wait for nothing here but
the index's and the store's own locks.  Results are bitwise identical
to :func:`exact_scan` over the same id-ordered records.

There is no group commit (the searches that arrive while one runs on
their shard sharing the next pass).  It paid only with many searches
in flight on one shard — ~1.7x the
requests per second at 12 threads searching one shard over HTTP — and
no benchmark workload has that shape: at most 3 % of
``read_static``'s searches shared a pass, and waiting for the running
one cost more than ranking (944 µs against 798 µs a search, seed 1,
2-CPU host).

A request gets back ``(id, score)`` pairs, best first, and reads no
record: the caller merges them with its other rankings, cuts them to
``k`` and hydrates the survivors in one place
(:func:`repro.server.v1._hydrate`), which skips ids that vanished since
ranking.  The kind says how a shard's records read
(:data:`~repro.registry.entities.SHARD_KINDS`: id, stored vector, text
that embeds a record without one).

The index is a cache of the record rows, so no search scans records:
when another connection has committed since the index was filled, or
the shard is not resident, ``current`` refills the shard from the rows
before it ranks (the former counted in ``fallbacks``).
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

#: query embedder: texts -> (len(texts), D) float32 rows
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


class SearchBatcher:
    """Serves each embedding search in one direct pass (see module doc).

    The class keeps its name, :meth:`submit` and a ``batchedRequests``
    counter that is always 0 only because the e2e tracer names them;
    ROADMAP item 0a drops them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # counters for the benchmarks and the tests
        self.requests_total = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        index: VectorIndex,
        user: Hashable,
        kind: str,
        current: Current,
        k: int | None,
        embed_many: EmbedMany,
        query_embedding: np.ndarray | None = None,
        embed_key: Hashable | None = None,
        embed_text: str | None = None,
    ) -> list[tuple[int, float]]:
        """Serve one query: ``(id, score)`` pairs, best first, ties by
        ascending id.

        ``kind`` names the shard and how its records read
        (:data:`~repro.registry.entities.SHARD_KINDS`).  The query is the
        caller's ``query_embedding`` when given; otherwise the index's
        query LRU under ``embed_key``, or on a miss one
        ``embed_many([embed_text])`` call whose row the LRU keeps.
        ``current`` (:data:`Current`) brings the shard up to the store
        around the ranking.  Exceptions raised by the callbacks
        propagate.
        """
        if k is not None and k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if query_embedding is None and None in (
            embed_key, embed_text, embed_many
        ):
            raise ValueError(
                "a search needs query_embedding or a complete "
                "(embed_key, embed_text, embed_many) spec"
            )
        with self._lock:
            self.requests_total += 1
        if query_embedding is not None:
            qvec = np.asarray(query_embedding, dtype=np.float32)
        else:
            qvec = index.query_cache.get(embed_key)
            if qvec is None:
                rows = np.asarray(embed_many([embed_text]), dtype=np.float32)
                qvec = index.query_cache.put(embed_key, rows[0])
        (ids, scores), refilled = current(
            lambda: index.search_among(user, kind, qvec, k)
        )
        if refilled:
            with self._lock:
                self.fallbacks += 1
        return [(rid, float(score)) for rid, score in zip(ids, scores)]

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Dispatcher counters: ``requests``, ``batchedRequests`` (always
        0: nothing is batched) and ``fallbacks``, the searches that
        refilled their shard after another connection's commit."""
        with self._lock:
            return {
                "requests": self.requests_total,
                "batchedRequests": 0,
                "fallbacks": self.fallbacks,
            }

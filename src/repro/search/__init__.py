"""Registry search and exploration (paper §4).

Three search mechanisms over registered PEs and workflows:

* :mod:`repro.search.text_search` — normalized partial matching on names
  and descriptions (§4.1, Figure 6).
* :mod:`repro.search.semantic` — bi-encoder semantic search of PE
  descriptions with the (fine-tuned) code-search model (§4.2, Figure 7).
* :mod:`repro.search.code_search` — code-completion retrieval over PE
  code embeddings with the ReACC-style model (§4.3, Figure 8).

All searches exploit embeddings stored in the Registry at registration
time (§3.1.1) — nothing is re-embedded on the corpus side at query time.

The vector index
================

:mod:`repro.search.index` is the serving layer underneath the two
embedding searches.  Without it, every query rebuilds an ``(N, D)``
corpus matrix from Python records and full-sorts the similarities; with
it, embeddings live in pre-stacked, pre-normalized float32 shards keyed
by ``(user, kind)`` and a query costs one BLAS product plus an
``argpartition`` top-k selection.

Quick tour::

    from repro.search import (
        KIND_DESC, SearchBatcher, SemanticSearcher, VectorIndex,
    )

    index = VectorIndex()
    index.add(user_id, KIND_DESC, pe.pe_id, pe.desc_embedding)   # at register
    index.remove(user_id, KIND_DESC, pe.pe_id)                    # at remove

    searcher = SemanticSearcher(model)
    hits = searcher.search_topk(
        query, index=index, user=user_id, k=10, batcher=SearchBatcher(),
        owned_ids=lambda: owned_pe_ids, resolve=lambda ids: get_pes(ids),
    )
    reference = searcher.search(query, pes, k=10)  # brute force, same hits

Key properties:

* **Incremental** — ``add``/``remove`` are keyed by record id (``add``
  of a present id updates it in place);
  insertion and removal shift at most the row tail, so registry
  mutations never trigger a rebuild.
* **Exact** — indexed and brute-force paths return identical ids and
  scores, including stable ascending-id tie-breaking for equal
  similarities (``tests/search/test_index_parity.py`` asserts this; the
  batcher falls back to brute force when the owned set does not match
  the shard).  Live rows stay contiguous in id order precisely so
  the BLAS scoring call is bitwise identical to the brute-force matrix
  rebuild over the same id-ordered records.
* **Thread-safe** — one reentrant lock per index; searches never observe
  torn shards and removed ids are never returned after ``remove``.
* **Cached** — an LRU of recent query embeddings (``index.query_cache``)
  makes repeated queries skip the embedder entirely.

The index is maintained automatically by
:class:`~repro.registry.service.RegistryService` (every PE/workflow
add/remove updates the owner's shards — and the DAO journals the same
ids in the write's own commit, so a warm restart attaches without the
O(corpus) rebuild; see *Persistence architecture* below) and served by
the HTTP layer's ``/registry/{user}/search`` endpoint and the ``repro
search`` CLI command.  Every embedding search reaches the index through
:class:`~repro.search.serving.SearchBatcher`, which batches by group
commit: a search on an idle shard flushes at once, and the searches
that queue behind a running flush share the next index pass — no
window, no size cap (see :mod:`repro.server` for the full request
flow).  ``benchmarks/test_http_batch.py`` records the coalescing share
and bitwise parity under concurrent HTTP load.

Persistence architecture
========================

Shards persist **incrementally** (storage schema v6, reshaped by v8 and
v9), and what persists is membership and freshness — never a vector.
Every registry mutation stamps the ``(user, kind)`` shards whose content
it changed with the bumped mutation counter (the DAO's
``shard_stamps``) and, in the same transaction, appends each such
shard's row to an append-only, ids-only delta journal
(``index_deltas``): ``add`` for the ids that are in the shard after the
write, ``remove`` for those that are not.  A write is therefore one
small commit — no second transaction, no copy of a vector, not a
whole-snapshot export.
:meth:`~repro.registry.service.RegistryService.attach_index` replays
each persisted base slab — the shard's ids at its last fold, a run of
``add``s — through its delta chain and reads the vector of every id
whose last event is an ``add`` from its record row, in one ordered scan
and one batch decode per (user, record table): a shard whose replayed
chain tip equals its stamp loads straight into the index, while stale,
torn, or corrupt shards rebuild individually through the same scan of
their own owner's rows.  The invariants:

* **A vector lives in its record row, nowhere else** — base slabs and
  the journal name ids; nothing stores a vector a second time, so a
  fold writes 8 bytes a row and there is no copy to disagree with the
  record.
* **One state per attach** — stamps, slabs, journal and rows are read
  in one read transaction
  (:meth:`~repro.registry.dao.SqliteDAO.read_snapshot`): ids-only
  persistence is only as fresh as the rows the ids are filled from, so
  no other process's commit may land between the two reads.
* **Stamp == tip by construction** — the DAO helper that stamps a
  shard is the one that journals it, inside the mutation's commit.
  There is no state "mutation committed, journal row not yet", and no
  convention between two layers to keep (lint rule RPR003 rejects a
  stamp or a journal row written anywhere else).
* **Only a covered shard is journaled** — a mutation appends a shard's
  journal row only if the shard was covered before it (stamp == chain
  tip, kept beside the stamp in ``shard_stamps.tip``; a shard's first
  stamp counts, the chain then starts from an empty base).  A shard
  that is already stale — a writer that bypassed the DAO moved its
  stamp, an old file crashed between mutation and append — is stamped
  and nothing else: a row on top of the gap would make tip == stamp
  again with the gap inside.  It stays stale until a base upsert
  (the next persisting attach) rebuilds it.  Freshness is strict
  equality, so such a shard, and only it, rebuilds; one tenant's write
  never invalidates another tenant's slab.
* **Chains are strictly increasing** — a delta at or below the current
  tip is a crash-mid-compaction artifact; replay discards exactly that
  shard (never the whole snapshot), and the attach rebuilds it.  So
  does a winning id — from the base slab or a journaled ``add`` alike —
  whose record row is gone, is not the user's, has no vector of that
  kind, or has one of another width.
* **Compaction is bounded and crash-safe** — once the rows journaled
  since a shard's last fold reach ``max(64, rows in its base slab)``
  the service folds the chain into the base at the same stamp,
  deleting only the folded counters: a fold rewrites at most twice
  what the journal it retires added, and a restart never replays a
  chain longer than the base it lands on.  The fold lists the live
  index's ids (no slab is copied, nothing is encoded), so the service
  checks the rule only *after* it has applied the mutation there.  A crash at any point leaves tip <= stamp: stale
  at worst, never wrongly fresh.
* **``persist=False`` stops base writes and folds, not journaling** —
  an attach without persistence (``repro stats --shards``) writes no
  slab and folds nothing; the DAO journals every write regardless of
  who makes it or whether an index is attached at all.
* **Vectors are sparse at rest, dense in memory** — every vector blob
  goes through one bit-exact codec (:mod:`repro.registry.veccodec`);
  decoding yields the dense float32 rows the index ranks, so nothing
  here depends on which layout a row was stored in.
* **Replay is bitwise** — a replayed or rebuilt shard is one
  C-contiguous float32 matrix in ascending id order, identical to the
  live index's layout, so warm-started searches equal cold-rebuilt
  ones byte for byte.

``benchmarks/test_incremental_persist.py`` records the
bytes-written-per-mutation and warm-attach gains.

One ranking engine
==================

``VectorIndex`` is the only ranking engine: every search is the exact
scan, and ``SearchRequest.backend`` accepts ``"exact"`` alone (see the
``VectorIndex`` docstring for why there is no approximate engine).

Indexed text ranking and hybrid fusion
======================================

``queryType=text`` never scans owned records in Python: the DAO
maintains an inverted text index (SQLite FTS5 external content tables
kept in sync by triggers inside each mutation's transaction) and
``RegistryService.text_topk_pes`` / ``text_topk_workflows`` return the
owner-scoped BM25 top-k directly, so only the ``k`` winning records
are hydrated.  It is the only text ranker: the legacy Table-3 route and
v1 serve the same hits.  :func:`text_search_pes` /
:func:`text_search_workflows` remain as the brute-force reference whose
match sets the indexed ranking must equal
(``tests/registry/test_text_candidates.py``).

``queryType=hybrid`` fuses that BM25 text ranking with the semantic
ranking via reciprocal-rank fusion
(:func:`~repro.search.fusion.rrf_fuse`): each leg is ranked
independently to a fused depth, fused scores are ``sum(1/(60+rank))``
accumulated in fixed leg order, and ties break on the ``(kind, id)``
key — the fused ordering is a pure function of the leg orders, so
hybrid pages are bitwise stable across repeats.
"""

from repro.search.text_search import TextMatch, text_search_pes, text_search_workflows
from repro.search.semantic import SemanticHit, SemanticSearcher, WorkflowSemanticHit
from repro.search.code_search import CodeHit, CodeSearcher
from repro.search.fusion import RRF_K, rrf_fuse
from repro.search.index import (
    KIND_CODE,
    KIND_DESC,
    KIND_WORKFLOW,
    EmbeddingLRU,
    VectorIndex,
)
from repro.search.serving import SearchBatcher

__all__ = [
    "RRF_K",
    "rrf_fuse",
    "SearchBatcher",
    "TextMatch",
    "text_search_pes",
    "text_search_workflows",
    "SemanticHit",
    "WorkflowSemanticHit",
    "SemanticSearcher",
    "CodeHit",
    "CodeSearcher",
    "VectorIndex",
    "EmbeddingLRU",
    "KIND_DESC",
    "KIND_CODE",
    "KIND_WORKFLOW",
]

"""Registry search and exploration (paper §4).

Three search mechanisms over registered PEs and workflows:

* :mod:`repro.search.text_search` — normalized partial matching on names
  and descriptions (§4.1, Figure 6).
* :mod:`repro.search.semantic` — bi-encoder semantic search of PE
  descriptions with the (fine-tuned) code-search model (§4.2, Figure 7).
* :mod:`repro.search.code_search` — code-completion retrieval over PE
  code embeddings with the ReACC-style model (§4.3, Figure 8), each hit
  with its aligned continuation; it is the only completion index.

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
        KIND_DESC, SearchBatcher, SemanticHit, SemanticSearcher,
        VectorIndex, exact_scan,
    )

    index = VectorIndex()
    index.fill(version, {(user_id, KIND_DESC): (ids, vectors)})  # the rows
    index.add(user_id, KIND_DESC, pe.pe_id, pe.desc_embedding)   # at register
    index.remove(user_id, KIND_DESC, pe.pe_id)                    # at remove

    searcher = SemanticSearcher(model)
    ranked = SearchBatcher().submit(          # [(id, score), ...]
        index=index, user=user_id, kind=KIND_DESC, k=10,
        current=lambda rank: (rank(), False),  # the service refills here
        embed_many=searcher.embed_queries, embed_key=query, embed_text=query,
    )
    # hydrate only the winners, then render
    by_id = {pe.pe_id: pe for pe in get_pes([rid for rid, _ in ranked])}
    hits = [SemanticHit.of(by_id[rid], score) for rid, score in ranked]
    # brute force over the records, the same ranking
    reference = exact_scan(
        KIND_DESC, pes, searcher.embed_query(query), 10,
        searcher.embed_queries,
    )

Key properties:

* **Incremental** — ``add``/``add_many``/``remove`` are keyed by record
  id (a present id is updated in place).  Each is one vectorized write
  on the shard, whatever the batch's size or id order: new ids past the
  tail (the registry's monotonic ids) append as one slice, others merge
  in order, and a remove compacts the rows after it, so registry
  mutations never trigger a rebuild.
* **Exact** — the indexed path and the brute-force :func:`exact_scan`
  return identical ids and scores, including stable ascending-id
  tie-breaking for equal similarities
  (``tests/search/test_index_parity.py`` asserts this).  Live rows
  stay contiguous in id order precisely so
  the BLAS scoring call is bitwise identical to the brute-force matrix
  rebuild over the same id-ordered records.
* **Thread-safe** — one reentrant lock per index; searches never observe
  torn shards and removed ids are never returned after ``remove``.
* **Cached** — an LRU of recent query embeddings (``index.query_cache``)
  makes repeated queries skip the embedder entirely.

The index is maintained automatically by
:class:`~repro.registry.service.RegistryService` (every PE/workflow
add/remove updates the owner's resident shards; a restart, and a search
after another connection's commit, fill them from the record rows, see
*Cold start and freshness* below) and served by
the HTTP layer's ``/registry/{user}/search`` endpoint and the ``repro
search`` CLI command.  Every embedding search reaches the index through
:class:`~repro.search.serving.SearchBatcher`, which serves it in one
direct pass — query LRU or one embed call, one ranking on the current
shard, one hydration of the winners (see :mod:`repro.server` for the
full request flow).  ``tests/server/test_http_concurrent.py`` checks
bitwise parity with :func:`exact_scan` under concurrent HTTP searches
while another tenant writes.

Cold start and freshness
========================

Nothing of the index is persisted: the store is the only truth about
which records a shard holds and what their vectors are, as "A
Prototype of Serverless Lucene" (PAPERS.md) has it.
:meth:`~repro.registry.service.RegistryService.attach_index` fills
every ``(user, kind)`` shard from the record rows — one ordered scan of
the user's owner rows joined to the record rows and one batch decode
per (user, record table), every user inside one read transaction
(:meth:`~repro.registry.dao.SqliteDAO.read_snapshot`), so what loads is
the registry as of one commit.  The invariants:

* **A vector lives in its record row, nowhere else** — no base slab or
  journal restates membership (schema v16 dropped both), so a write
  logs no index page and there is no copy to disagree with the record.
* **One freshness rule for both in-memory indexes** — the index
  records the file's ``data_version`` it was filled at
  (:attr:`VectorIndex.version`).  That value moves when, and only when,
  another connection commits; this process's writes reach the index
  themselves.  So each search reads it once
  (:meth:`~repro.registry.service.RegistryService.on_current_shard`),
  and when it has moved drops every resident shard and refills the
  searched one in one read snapshot, under the DAO lock the index's
  own writes apply under — the text index's rule
  (:meth:`~repro.registry.dao.SqliteDAO.text_topk_pes`).  A shard is
  resident only as a complete copy of its rows, so a write to one that
  is not touches only the store, and the shard refills on its next
  search.
* **Vectors are compact at rest, dense in memory** — every vector blob
  goes through one bit-exact codec (:mod:`repro.registry.veccodec`),
  which stores it sparse, as a value table (each distinct value once,
  a byte code per non-zero) or dense, whichever is smallest; decoding
  yields the dense float32 rows the index ranks, so nothing here
  depends on which layout a row was stored in.
* **Attach is bitwise** — an attached shard is one C-contiguous float32
  matrix in ascending id order, identical to the live index's layout,
  so searches after a restart equal the live ones byte for byte.

One ranking engine
==================

``VectorIndex`` is the only ranking engine: every search is the exact
scan, and ``SearchRequest.backend`` accepts ``"exact"`` alone (see the
``VectorIndex`` docstring for why there is no approximate engine).

Indexed text ranking and hybrid fusion
======================================

``queryType=text`` never scans owned records in Python: the DAO
maintains an inverted text index — contentless SQLite FTS5 tables in an
attached in-memory database, beside the normalized text documents they
index, which the file does not keep (schema v15): the first ranking
after open derives them from the record rows
(:func:`~repro.search.text_search.fts_document`), each mutation
rewrites its record's inside its own transaction, and a ranking fills
them again when another connection has committed — and
``RegistryService.text_topk`` (one body for either record kind)
returns the owner-scoped BM25 top-k as ``(id, score)`` pairs, so only
the ``k`` winning records are hydrated, by the search that keeps
them.  It is the only text ranker: the legacy
Table-3 route and v1 serve the same hits.  :func:`text_search_records` remains
as the brute-force reference whose match sets the indexed ranking must
equal (``tests/registry/test_text_candidates.py``).

``queryType=hybrid`` fuses that BM25 text ranking with the semantic
ranking via reciprocal-rank fusion
(:func:`~repro.search.fusion.rrf_fuse`): each leg is ranked
independently to a fused depth, fused scores are ``sum(1/(60+rank))``
accumulated in fixed leg order, and ties break on the ``(kind, id)``
key — the fused ordering is a pure function of the leg orders, so
hybrid pages are bitwise stable across repeats.  Both legs rank ids
only; the ``k`` fused winners are the only records a hybrid search
reads.
"""

from repro.search.text_search import TextMatch, text_search_records
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
from repro.search.serving import SearchBatcher, exact_scan

__all__ = [
    "RRF_K",
    "rrf_fuse",
    "SearchBatcher",
    "exact_scan",
    "TextMatch",
    "text_search_records",
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

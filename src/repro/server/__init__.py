"""The Laminar Server (paper §3.2).

Layered design: Controller (request handling + the Laminar API of
Table 3), Service (business logic), Model (entities), DAO (storage).
Data exchange is JSON; error handling renders every
:class:`~repro.errors.ReproError` into the standardized envelope of
§3.2.5.

:class:`LaminarServer` assembles the layers.  It is transport-agnostic:
dispatch a :class:`~repro.net.transport.Request` directly (in-process,
possibly latency-shaped), or mount it behind the stdlib HTTP adapter in
:mod:`repro.server.http` for a real socket deployment.

Serving architecture (the search hot path)
==========================================

A ``/registry/{user}/search`` request flows through four stages, each
scaling with the *result*, not the corpus::

    request ──> RegistryController.search
                  │  parse queryType/k, authenticate
                  ▼
            SearchBatcher.submit          (repro.search.serving)
                  │  group commit per (user, kind): an idle
                  │  shard flushes at once; requests arriving while a
                  │  flush runs share the next one — no window
                  ▼
            VectorIndex.search_among_many (repro.search.index)
                  │  one lock hold + one membership check per batch;
                  │  every query scored as its own (1, D) product, so
                  │  batched == single-shot bitwise
                  ▼
            RegistryService.resolve_pes / resolve_workflows
                     one batched DAO fetch hydrates the union of all
                     top-k winners; ownership re-checked per record

The owned-id projection the membership check needs is fetched lazily,
once per batch.  Any shard/owned-set disagreement (unindexed records,
concurrent mutation) drops that batch to the exact brute-force scan —
results are then still bitwise identical to the historical behaviour.
Text queries (``queryType=text``) skip the vector index entirely and
rank in the DAO's inverted text index (SQLite FTS5): an owner-joined
BM25 top-k returns ``k`` ids and the service hydrates only those
records.  Hybrid queries (``queryType=hybrid``) run the text and
semantic legs to a fused depth and merge them with deterministic
reciprocal-rank fusion (:mod:`repro.search.fusion`).  The legacy
Table-3 route ranks text through the same FTS5 index, so no search
scores candidates in Python.

Cold start: :meth:`~repro.registry.service.RegistryService.attach_index`
replays each persisted base slab (a shard's ids at its last fold)
through its append-only delta journal, fills the surviving ids from
the record rows — one ordered scan and one batch decode per (user,
record table), no record hydrated — and loads every shard whose
replayed chain tip equals the per-shard mutation stamp the DAO keeps,
all inside one read transaction.  Every write carries its ids-only
journal rows in its own commit (folded back into the base slab once the
chain has as many rows as the base; a fold writes 8 bytes a row), so
the persistence plane holds membership and freshness only: the
registry's record rows are the one copy of every vector.  Only shards
that are stale (a stamp the journal never saw — a writer that bypassed
the DAO), torn, or corrupt rebuild, each from its own owner's rows.
One tenant's write never invalidates another tenant's slab.

Process start: ``repro serve`` imports what registry and search
requests use — NumPy, SQLite, the models, the asyncio front end — and
nothing of the workflow side.  ``LaminarServer.engines`` builds the
engine pool (and imports :mod:`repro.engine`, hence the dataflow
mappings, ``multiprocessing`` and ``cloudpickle``) when
``/execution/{user}/run`` or an ``/engines`` route first asks for it,
and ``import repro`` resolves its re-exports lazily; a registry-only
deployment never loads them (``tests/server/test_startup_imports.py``).

Storage schema versions
=======================

The SQLite DAO steps older files up on open (``PRAGMA user_version``;
see ``SqliteDAO._migrate``):

===  =================================================================
v    Added
===  =================================================================
v1   Normalized ownership/association join tables (``pe_owners``,
     ``workflow_owners``, ``workflow_pes``), backfilled from the
     legacy JSON columns.
v2   Slab snapshot persistence: ``index_shards`` plus
     ``registry_meta`` (the global mutation counter).
v3   Typed write envelope: per-record ``revision`` columns and the
     ``write_receipts`` table (plus a table of IVF training state,
     dropped in v10).
v4   ``created_at`` on receipts (pre-v4 rows stamp 0, the epoch; it fed
     TTL sweeps, since deleted: receipts are kept forever).
v5   FTS5 text side tables backfilled from the record tables (plus a
     table of HNSW graphs, dropped in v10).
v6   Incremental persistence: per-shard ``shard_stamps`` and the
     append-only ``index_deltas`` journal.  A shard is fresh iff its
     replayed chain tip *equals* its stamp; chains must be strictly
     counter-increasing (a non-increasing chain is a crash artifact
     and discards only that shard); compaction folds a chain into its
     base slab at the same stamp and deletes exactly the folded
     counters, so a crash anywhere leaves tip <= stamp — stale at
     worst, never wrongly fresh.  A pre-v6 snapshot seeds
     the stamps only when provably current (uniform counter equal to
     the live mutation counter); otherwise the first attach pays one
     full rebuild, which then stamps every shard.
v7   No table changes: vector blobs (``pes`` / ``workflows`` embedding
     columns, ``index_deltas.vectors``, ``index_shards.vectors``) may
     be in the sparse layout of :mod:`repro.registry.veccodec` —
     (count, uint16 columns, float32 values) per row where that is
     smaller than dense, checksummed.  Dense blobs from v6 and older
     decode through the same codec with no rewrite on open (a record
     re-encodes when next written, a slab at its next fold).  The fold
     rule is ``max(64, base rows)`` journaled rows per shard, replacing
     the fixed chain-length/bytes bounds.  **Not readable by older
     code**: a pre-v7 reader opening a v7 file fails on the first
     sparse blob.
v8   A registry write is one commit.  ``index_deltas`` becomes an
     ids-only changelog (``vectors`` / ``dim`` and the secondary
     index ``idx_index_deltas_shard`` dropped) that the DAO appends
     inside each mutation's own transaction, wherever it stamps a
     shard — *stamp == journal tip* by construction, and the crash
     state "mutation committed, journal row not yet" is gone.  Replay
     reads the vector of each id whose last journaled op is ``add``
     from its record row: a vector is stored in its record row and in
     the base slab, nowhere else.  ``shard_stamps`` gains ``tip`` (the
     shard's chain tip): a mutation journals a shard only if it was
     covered (``tip`` = stamp) before the write, so a stale shard is
     stamped but never journaled on top of its gap and stays stale
     until a base upsert.  The migration is in place: the journal
     keeps its membership, ``tip`` is seeded from each chain, content
     that was never stamped is stamped stale.  **Older code cannot
     read or write a v8 journal.**  Files *created* by v8 use 1 KB
     pages (a WAL commit logs whole pages and these rows are small);
     page size is fixed once a file has pages, so a migrated file
     keeps its own — no ``VACUUM``, no option.
v9   Base slabs go ids-only: ``index_shards`` loses ``vectors`` and
     ``dim`` (``ALTER TABLE … DROP COLUMN``; membership kept, nothing
     decoded), as the journal did in v8.  **A vector lives in its
     record row, nowhere else.**  Replay treats a base slab as a run of
     ``add``s and fills every winning id from the record rows in one
     ordered scan per (user, record table); an id whose row is gone,
     is not the user's, has no vector of that kind or is of another
     width discards only that shard.  A fold rewrites 8 bytes a row
     instead of a second copy of every vector, and the codec keeps
     only its one-vector layout (plus a many-blob decode for the cold
     start).  **Older code cannot read a v9 slab.**  The file does not
     shrink on migration; the freed pages are reused by later writes.
v10  The IVF and HNSW state tables are dropped, rows and all; that is
     the migration's only step (the approximate engines that used them
     are gone).  ``shard_stamps`` now vouches for base slabs and the
     journal only.
===  =================================================================

Front end: :func:`repro.server.http.serve_http` runs an **asyncio
server core** — one coroutine per connection on a background event
loop, with the blocking dispatch hopping to a bounded thread pool whose
concurrent searches queue behind each other's ``SearchBatcher`` flushes
(the pool bounds that queue).  Thousands of idle
keep-alive connections cost one task each (not one OS thread), client
disconnects are counted instead of raising, and response bytes are
identical to the previous thread-per-connection front end.

API reference — the versioned v1 surface
========================================

The legacy Table-3 routes remain installed (thin adapters over the
shared cores).  The legacy search route keeps its ``{"searchKind",
"hits"}`` body and its error messages, and its hits equal v1's field
for field (text ranked by BM25).  New clients should use the
``/v1/`` table, which validates once at the edge
(:mod:`repro.server.schema`): **unknown fields are rejected with 400**,
every default is explicit, and all listings cursor-paginate.

=======  =========================================  =======================
Method   Path                                       Body fields
=======  =========================================  =======================
GET      ``/v1/users``                              ``limit``, ``cursor``
GET      ``/v1/backends``                           —
GET      ``/v1/registry/{user}/pes``                ``limit``, ``cursor``
GET      ``/v1/registry/{user}/pes/{name}``         — (``If-None-Match``)
GET      ``/v1/registry/{user}/workflows``          ``limit``, ``cursor``
GET      ``/v1/registry/{user}/workflows/{name}``   — (``If-None-Match``)
GET      ``/v1/registry/{user}/workflows/{id}/pes`` ``limit``, ``cursor``
POST     ``/v1/registry/{user}/search``             see ``SearchRequest``
PUT      ``/v1/registry/{user}/pes/{name}``         see ``RegisterPERequest``
PUT      ``/v1/registry/{user}/workflows/{name}``   see ``RegisterWorkflowRequest``
POST     ``/v1/registry/{user}/pes:bulk``           ``items``, ``ifVersion``,
                                                    ``idempotencyKey``
POST     ``/v1/registry/{user}/workflows:bulk``     ``items``, ``ifVersion``,
                                                    ``idempotencyKey``
POST     ``/v1/registry/{user}/ingest``             ``path`` | ``archive``,
                                                    ``batchSize``,
                                                    ``maxFileBytes``,
                                                    ``maxChunkLines``
DELETE   ``/v1/registry/{user}/pes/{name}``         ``ifVersion``,
                                                    ``idempotencyKey``
DELETE   ``/v1/registry/{user}/workflows/{name}``   ``ifVersion``,
                                                    ``idempotencyKey``
GET      ``/v1/jobs``                               ``state``, ``limit``,
                                                    ``cursor``
GET      ``/v1/jobs/{id}``                          —
POST     ``/v1/jobs/{id}:cancel``                   —
=======  =========================================  =======================

**Conditional reads**: the single-record GETs return the item inside a
``{"apiVersion": "v1", "kind": ..., "item": ...}`` envelope plus a
strong ``ETag`` header derived from the record's id and ``revision``
(``"pe-{id}-{rev}"`` / ``"workflow-{id}-{rev}"`` — the same counter
``ifVersion`` pins on writes).  A request whose ``If-None-Match``
validator matches (``*``, weak ``W/…`` prefixes and comma lists all
honoured per RFC 9110) is answered ``304 Not Modified`` with the ETag
and an **empty body** — pollers tracking a record pay headers only
until the revision actually moves.

**Listings** return the ``Page`` envelope::

    {"apiVersion": "v1", "count": N, "limit": L,
     "items": [...], "nextCursor": "v1.…" | null}

Items order by **ascending record id** and ``cursor`` is an opaque,
*scoped* resume token: replaying it against a different listing is a
400, and because concurrent inserts only ever receive higher ids a
cursor walk never skips or duplicates a pre-existing record.  PE and
workflow listing items carry the record's current ``revision`` (the
same counter ``ifVersion`` pins on writes), so readers can hand a
fresh precondition straight back to a conditional update.

**Search** (``POST /v1/registry/{user}/search``) accepts the
``SearchRequest`` envelope — defaults shown::

    {"query":  <required str>,
     "kind":   "both",        # pe | workflow | both
     "queryType": "text",     # text | semantic | code | hybrid
     "backend": "exact",      # the only engine (GET /v1/backends)
     "k": null,               # top-k cap at ranking time
     "limit": null,           # page size over the ranked hits
     "cursor": null,          # resume token from a previous page
     "queryEmbedding": null}  # optional client-side query vector

and returns the ``SearchResponse`` envelope::

    {"apiVersion": "v1", "query": …, "kind": …, "queryType": …,
     "backend": …, "searchKind": "text"|"semantic"|"code"|"hybrid",
     "k": …, "count": N, "hits": [...], "nextCursor": …}

Ranking path per ``queryType``:

=============  ======================================================
``queryType``  ranking path
=============  ======================================================
``text``       BM25 top-k in the DAO's inverted text index (FTS5 /
               postings mirror); no vector shard is touched.
               ``kind=pe`` preserves the historical quirk of serving
               through semantic search.
``semantic``   description embeddings ranked by the exact
               ``VectorIndex`` through the group-commit batcher.
``code``       code embeddings, PEs only, same index plumbing.
``hybrid``     BM25 text leg (above) + semantic leg (exact index),
               fused with deterministic RRF; hits carry the fused
               score plus per-leg ranks/scores.
=============  ======================================================

``backend`` stays on the wire for compatibility and accepts only
``"exact"`` (any other name is a 400): the exact BLAS scan is the one
ranking engine.

**Writes** complete the versioned surface.  ``PUT`` registers under the
path name (the PE name / the workflow entry point) with true *upsert*
semantics: identical content is the §3.1 dedup no-op, while changed
content supersedes the caller's binding — the new content registers
(dedup-or-insert) and the caller's stake in the old record is released
(other tenants' view of a shared record is never rewritten).  The
legacy add routes keep the historical register-only behaviour.
``DELETE`` removes by the same key, and ``POST …/pes:bulk`` /
``POST …/workflows:bulk`` land a batch with one DAO ``executemany``
transaction, one index ``add_many`` per shard kind and one shard
persist.  All write routes — and the
legacy Table-3 register/remove routes, which are thin byte-identical
adapters — share one serialized core
(:func:`repro.server.v1_write.execute_write`).
Every write returns the ``WriteResponse`` envelope::

    {"apiVersion": "v1", "op": "register"|"delete"|"bulk-register",
     "kind": "pe"|"workflow", "count": N,
     "items": [{...record..., "revision": r, "created": bool}],
     "removed": bool, "registryVersion": m, "idempotencyKey": k|null}

*Idempotency*: a write carrying ``idempotencyKey`` (body field, or the
HTTP ``Idempotency-Key`` header — carried as request metadata so strict
read envelopes never see it) stores its response; replaying the same
key + identical request returns the stored envelope verbatim
(``Idempotent-Replay: true`` header, registry mutation counter
untouched, no model work re-paid), while the same key fronting a
different request is a 409.  Only successful responses are recorded —
errors stay retryable.

*Conditional writes*: ``ifVersion`` pins the target record's
``revision`` (0 = create-only; every update bumps it) — or, for bulk,
the registry mutation counter — and a mismatch is a 412 with the
registry untouched.

Write error envelope (all carry the §3.2.5 JSON shape):

=====  =====================  =============================================
Code   ``error``              When
=====  =====================  =============================================
400    ValidationError        malformed envelope, unknown fields, body
                              name disagreeing with the path
401    AuthenticationError    missing/foreign token
404    NotFoundError          delete target absent (or not owned)
405    MethodNotAllowed       path exists under other methods (the
                              response carries an ``Allow`` header)
409    IdempotencyConflict    key replayed with a different request
412    PreconditionFailed     ``ifVersion`` mismatch
=====  =====================  =============================================

The envelope shape has exactly two producers — a raised
:class:`~repro.errors.ReproError` rendered by the dispatch layer, and
:func:`repro.errors.error_envelope` for transport-level responses that
happen before a dispatch context exists.  Raw ``{"error": ...}`` dict
literals anywhere under ``repro/server`` are a lint failure (rule
RPR006; see the invariant table in :mod:`repro.analysis`).

Background jobs and repository ingestion
========================================

Long-running work runs behind a generic background-job subsystem
(:mod:`repro.jobs`): the server owns one :class:`~repro.jobs.JobManager`
— a bounded daemon worker pool over a FIFO queue — and any controller
can ``submit`` a callable and hand the client a job id instead of
blocking the request.  Job lifecycle is
``queued → running → succeeded | failed | cancelled`` with
**monotonic** progress counters (a snapshot may lag, never regress),
structured §3.2.5 error JSON on failure, cooperative cancellation
(workers observe ``cancel`` at their next
:meth:`~repro.jobs.JobContext.checkpoint`), and TTL + count-capped
retention of terminal jobs.  The ``/v1/jobs`` routes are
**owner-scoped** with no ``{user}`` path segment: the principal comes
from the token alone and foreign job ids answer 404, so job existence
never leaks across tenants.

``GET /v1/jobs/{id}`` returns ``{"apiVersion": "v1", "job": {...}}``
where the snapshot carries ``jobId``, ``kind``, ``owner``, ``state``,
``createdAt`` / ``startedAt`` / ``finishedAt``, ``progress``,
``params``, ``result``, ``error`` and ``cancelRequested``.  The
listing accepts ``state`` and ``limit`` filters; ``:cancel`` is
idempotent and a no-op on terminal jobs.

The first job-backed workflow is **repository ingestion**
(``POST /v1/registry/{user}/ingest`` → 202 + job id, body also echoed
under ``jobId``).  The pipeline (:mod:`repro.ingest`) walks the tree
(or a base64 tar.gz upload, extracted with traversal/symlink/zip-bomb
guards), chunks every ``.py`` file with a pure-Python AST chunker into
function/class records named ``{path}::{qualname}``, and lands them
through the same serialized bulk-write core as ``pes:bulk`` in
**bounded batches** — each batch takes the write lock only for its
single bulk insert, so search stays live (and consistent) while a
repository streams in; shard persistence and journal compaction are
deferred to one fold at the end of the job.  Progress counters
(``filesDiscovered``, ``filesSkipped``, ``chunksDiscovered``,
``chunksEmbedded``, ``chunksInserted``, ``chunksDeduped``) make a
mid-flight job legible, and cancellation between batches keeps every
already-landed batch durable.  CLI: ``repro ingest`` (packs the tree
client-side when pointed at a remote server) and ``repro jobs``.
"""

from repro.server.api import Router
from repro.server.app import LaminarServer

__all__ = ["LaminarServer", "Router"]

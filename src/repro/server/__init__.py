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
                  │  one direct pass per search: the query LRU, else
                  │  one embed_many call for the query text
                  ▼
            RegistryService.on_current_shard
                  │  one PRAGMA data_version per search: the shard is
                  │  current unless another connection has committed
                  │  or it is not resident, then it refills first
                  ▼
            VectorIndex.search_among     (repro.search.index)
                  │  one (1, D) product under the index lock,
                  │  argpartition top-k: ranked ids, no record read
                  ▼
            RegistryService.resolve_{kind}s
                     once every ranking is merged and cut to k,
                     one batched DAO fetch per record kind hydrates
                     the survivors (repro.server.v1._hydrate, the one
                     hydration site); ownership re-checked per record

The vector index is a cache of the record rows, kept to the text
index's freshness rule.  This process's writes reach it themselves,
after their commit, and move no ``data_version``; another connection's
commit does.  When a search finds the version moved, the index drops
every resident shard and refills the searched one from the rows inside
one read snapshot, under the DAO lock its own writes apply under
(counted in the batcher's ``fallbacks``); a search on the same shard
that waited on that lock ranks the fill instead of repeating it, and
every other shard refills on its own next search.  A shard is resident
only as a complete copy of its rows: a write to one that is not
touches only the store.  Results
are bitwise identical to the brute-force scan of the same rows
(:func:`~repro.search.serving.exact_scan`).
Text queries (``queryType=text``) skip the vector index entirely and
rank in the DAO's inverted text index (SQLite FTS5, held in memory and
derived from the record rows by the first text ranking): an owner-joined
BM25 top-k returns ``k`` ids, and only those records are hydrated.
Hybrid queries (``queryType=hybrid``) run the text and semantic legs
to a fused depth as ids, merge them with deterministic reciprocal-rank
fusion (:mod:`repro.search.fusion`) and hydrate only the ``k`` fused
winners.  The legacy
Table-3 route ranks text through the same FTS5 index, so no search
scores candidates in Python.

Cold start: :meth:`~repro.registry.service.RegistryService.attach_index`
fills every shard from the store, the only truth about it: one ordered
scan of a user's owner rows joined to the record rows and one batch
decode per (user, record table), no record hydrated, every user inside
one read transaction.  Nothing beside the record rows says which
records a shard holds (schema v16 dropped the base slabs and the delta
journal that restated it), so a write logs no index page, and no state
on disk can claim a shard fresher than its rows.  A corrupt vector blob
fails the attach with ``ValueError``, as it fails a read of its
record.

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

The SQLite DAO reads ``PRAGMA user_version`` before anything writes
(``SqliteDAO.__init__``):

=========  ============================================================
version    On open
=========  ============================================================
new file   Version 0 and no schema (``":memory:"`` too): the schema is
           created in one transaction and stamped v17.
v17        Current: no DDL on the file.  Every vector blob is dense
           or bit-packed (:mod:`repro.registry.veccodec`, tag 3: the
           distinct magnitudes once, then a sign bit, a magnitude code
           and a column step per stored value), a layout **older code
           cannot decode**; this code reads no other headed layout.
           Otherwise the tables are v16's.  It holds no vector-index
           state: a vector lives in its record row, and attach fills every
           shard from the rows.  It holds no text document and no FTS5
           table: the text index is a cache — per record
           kind a table of each record's normalized name and
           description documents and a contentless FTS5 table over
           them, in an attached ``':memory:'`` database.  The first
           text ranking after open derives the documents from the
           record rows, each mutation rewrites its record's inside its
           own transaction, and a ranking fills the index again when
           another connection has committed (``PRAGMA data_version``).
           A record's code and source
           are stored deflated, the source against its code as a
           preset dictionary (:mod:`repro.registry.textcodec`), as
           BLOBs that **older code would hand back as bytes** — or as
           TEXT where deflating would not be shorter.  The owner
           tables are keyed ``(user_id, id)`` with no second index
           (since v13), and the mutation counter and each record
           table's id high-water mark are rows of ``shard_stamps``
           under user 0;
           the record tables have no AUTOINCREMENT (the DAO issues
           ids).
v16        Accepted: one step, in one transaction — re-encode every
           stored vector blob (sparse, tag 1; value table, tag 2;
           dense where packing is smaller) as v17 writes it, each
           vector bit for bit, moving the mutation counter if any row
           changed, and stamp v17.  A blob that does not decode is left
           as it is (its record's reads fail, as they did).
v15        Accepted: two steps, each in its own transaction — drop the
           ``index_shards`` base slabs, the ``index_deltas`` journal
           and the ``shard_stamps.tip`` column (they restated which
           records each shard holds, which the owner tables and record
           rows say on their own) and stamp v16; then v16's step.
other      Refused, older (v14 and v13 included) or newer, with a
           ``RegistryError`` naming the version; the file is left as it
           was.  An older file steps up when opened once with an older
           checkout of this repository (the git history is the
           migration tool); a newer one belongs to newer code.
=========  ============================================================

What a v17 file holds, and the rules the DAO keeps on it:

* **A vector lives in its record row, nowhere else** (the ``pes`` /
  ``workflows`` embedding columns), bit-packed and checksummed wherever
  that is smaller than dense (an unfitted code embedding, 2 048 wide
  with ~170 non-zeros of ~14 magnitudes, takes ~310 bytes; it took ~440
  as v16's value table and ~1 040 sparse; a fitted one, ~73 magnitudes,
  ~610 against ~700), dense otherwise.  A vector whose non-zeros are
  all distinct can take a few bytes more than v16's sparse layout gave
  it (:mod:`repro.registry.veccodec`).
* No index membership is stored: the owner tables say which records
  each shard holds.  Per-shard rows an older checkout wrote into
  ``shard_stamps`` are left there unread; no write adds one.
* Files created by this code use 512-byte pages (a WAL commit logs
  whole pages and most pages a write touches change by tens of bytes);
  page size is fixed once a file has pages, so an older file keeps its
  own (1 KB for every file made before) — no ``VACUUM``, no option.
* One write rewrites one page of counters: the mutation counter
  (``shard_stamps`` row ``(0, 'mutations')``) and a new record's id
  high-water mark (``(0, 'pes')`` / ``(0, 'workflows')``, raised in the
  write's transaction; no delete lowers it, so an id and its ETags are
  never issued twice) share the ``shard_stamps`` b-tree.
* Idempotency receipts (``write_receipts``) are kept forever:
  ``created_at`` is written, nothing prunes by it.
* One write is one commit (``SqliteDAO.write()``): a write that fails,
  or a process killed mid-write, leaves neither its mutation nor its
  receipt.

Front end: :func:`repro.server.http.serve_http` runs an **asyncio
server core** — one coroutine per connection on a background event
loop, with the blocking dispatch hopping to a bounded thread pool
(its size bounds the searches in flight).  Thousands of idle
keep-alive connections cost one task each (not one OS thread), client
disconnects are counted instead of raising, and response bytes are
identical to the previous thread-per-connection front end.

API reference — the versioned v1 surface
========================================

The legacy Table-3 routes remain installed (thin adapters over the
shared cores).  The legacy search route keeps its ``{"searchKind",
"hits"}`` body and its error messages, and its hits equal v1's field
for field (text ranked by BM25).  New clients should use the
``/v1/`` table, whose bodies are strict (**unknown fields are rejected
with 400**), every default explicit, and all listings cursor-paginate.

**Validation.** Every request body either generation reads is declared
once, as a field table in :mod:`repro.server.schema` (``SEARCH``,
``PE``, ``WORKFLOW``, ``PE_BULK``, ``WORKFLOW_BULK``, ``DELETE``,
``INGEST``, ``PAGE``, ``JOBS``; for the Table-3 and extension routes
``AUTH``, ``PE_ADD``, ``WORKFLOW_ADD``, ``T3_SEARCH``, ``RUN`` and
``ENGINE``), and checked by one ``parse`` before any model work or
store access.  A row's kind decides what a bad value is, alike on every
route: every string must be UTF-8 encodable (``json.loads`` accepts a
lone surrogate), every integer must fit in 64 bits, and every client
vector entry must be finite in float32 (``NaN``, ``Infinity``,
``1e300`` are refused).  The Table-3 bodies are parsed ``legacy``:
unknown keys pass and text is stored as ``str(value)``, as before.

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
GET      ``/v1/jobs``                               ``state``, ``limit``
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
``text``       BM25 top-k in the DAO's inverted text index (FTS5 in
               memory over the on-disk text documents); no vector
               shard is touched.
               ``kind=pe`` preserves the historical quirk of serving
               through semantic search.
``semantic``   description embeddings ranked by the exact
               ``VectorIndex``, one direct pass per search.
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
semantics: identical content is the §3.1 dedup no-op, changed metadata
with the same code revises the record in place, while changed code
supersedes the caller's binding — the new content registers
(dedup-or-insert) and the caller's stake in the old record is released
(other tenants' view of a shared record is never rewritten).  The
legacy add routes keep the historical register-only behaviour.
``DELETE`` removes by the same key, and ``POST …/pes:bulk`` /
``POST …/workflows:bulk`` land a batch with one DAO ``executemany``
transaction and one index ``add_many`` per shard kind.  ``PUT``, bulk and ``DELETE`` are one handler each for both
record kinds (``V1WriteController.put``/``bulk``/``delete``, the kind
bound per route), as are the listing and the conditional ``GET``
(``V1Controller.list_records``/``get_record``) and each Table-3 route
shape but ``add`` (``RecordController``); a bulk item is that kind's
``PUT`` table less its request-level ``ifVersion``/``idempotencyKey``.
All write routes — and the
legacy Table-3 register/remove routes, which are thin byte-identical
adapters — share one core, one transaction a write
(:func:`repro.server.v1_write.execute_write`), and below it one
service body per operation (``RegistryService._register``,
``_register_bulk``, ``_upsert``, ``_revise``, ``_remove``; the reads
``get_by_id``, ``get_by_name``, ``owned_records``, ``owned_ids``,
``resolve`` and ``text_topk`` take the record class).
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
errors stay retryable.  The receipt commits in the write's own
transaction, which takes SQLite's write lock before it reads the
receipt: of concurrent writers under one key, in any process on the
file (all of one version: ``SqliteDAO.get_write_receipt``), exactly
one writes and the others wait for its commit and replay.

*Conditional writes*: ``ifVersion`` pins the target record's
``revision`` (0 = create-only; every update bumps it, and deleting a
PE bumps each workflow that linked it) — or, for bulk,
the registry mutation counter — and a mismatch is a 412 with the
registry untouched.  The check runs in the write's transaction, so of
concurrent writes pinning one revision, from any process on the file,
exactly one lands.

Write error envelope (all carry the §3.2.5 JSON shape):

=====  =====================  =============================================
Code   ``error``              When
=====  =====================  =============================================
400    ValidationError        a body that is not a JSON object, a key
                              outside its field table (v1), a field of
                              the wrong kind or out of its bounds
                              (integers past 64 bits included), a lone
                              surrogate in a string, a client vector
                              entry not finite in float32 or of the
                              wrong width, a body name disagreeing
                              with the path
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
through the same bulk-write body as ``pes:bulk`` in **bounded
batches** — each batch is one transaction, its dedup reads and its
single bulk insert, so search stays live (and consistent) while a
repository streams in.  Progress counters
(``filesDiscovered``, ``filesSkipped``, ``chunksDiscovered``,
``chunksEmbedded``, ``chunksInserted``, ``chunksDeduped``) make a
mid-flight job legible, and cancellation between batches keeps every
already-landed batch durable.  CLI: ``repro ingest`` (packs the tree
client-side when pointed at a remote server) and ``repro jobs``.
"""

from repro.server.api import Router
from repro.server.app import LaminarServer

__all__ = ["LaminarServer", "Router"]

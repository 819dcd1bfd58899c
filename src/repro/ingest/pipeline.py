"""The ingest pipeline: walk -> chunk -> embed -> bulk-register.

Runs as a background job (:mod:`repro.jobs`): the submitting request
returns immediately and this module streams the repository into the
registry in **bounded batches** through
``RegistryService.register_pes_bulk`` — each batch takes the server's
write lock only for its one ``executemany`` + ``add_many``, so the
search hot path (which never takes that lock) stays live mid-ingest
and simply sees the corpus grow batch by batch.

Progress counters (monotonic, see :class:`repro.jobs.manager.JobContext`):

=================  =====================================================
``filesDiscovered``  files the walker yielded
``filesSkipped``     unreadable/binary/oversized files + unparseable .py
``chunksDiscovered`` chunks produced by the chunker
``chunksEmbedded``   chunks whose summarize/embed preparation ran
``chunksInserted``   chunks that created a new registry record
``chunksDeduped``    chunks the §3.1 identity dedup resolved onto an
                     existing record (re-ingesting an unchanged repo
                     dedupes 100%)
=================  =====================================================

Cancellation is cooperative at batch boundaries: batches already
landed stay landed (ingest is not transactional; the counters say
exactly how far it got).  Shards persist once at the end — mid-ingest
the live index serves every batch already, persistence only matters
for the next cold start.

The job then **checkpoints the store** (``RegistryDAO.checkpoint()``,
on the job thread).  A bulk load leaves thousands of committed pages in
SQLite's write-ahead log; left there, they are copied into the main
file by whichever later commit trips the automatic threshold — a
foreground request, which pays for the job's pages inside its own
latency and, on the benchmark, inside the measured window (until base
slabs went ids-only the job's closing slab commit was itself large
enough to trip the threshold, by accident).  The pages are written
either way; the job is the one that should write them.

What a record costs.  Preparing one (``build_pe_record``: a summary
when the chunk has no docstring, a description embedding, a code
embedding) is about 0.3 ms on the benchmark's chunks, two thirds of it
the code embedding: tokenizing, four n-gram families and one
scatter-add over ~250 hashed features (:mod:`repro.ml.vectorize`; it
was 0.75 ms when every feature went through two Python frames).  A
64-record batch then spends about 8 ms in ``register_pes_bulk``, 6 of
them in the DAO's bulk insert.

The job thread **yields the interpreter after every record it
prepares** (``os.sched_yield()`` in :func:`_flush`).  Preparing a
record is pure-Python work that holds the GIL, and the less time a
batch spends inside SQLite (where the GIL is released) the larger the
share of each batch the job holds it for: a request thread then waits
out whole switch intervals behind the job.  This was ROADMAP item 3's
hypothesis (b) for the read tail beside a live ingest, and the
measurement confirms it: with the yield, fetch p95 beside the job fell
about threefold and semantic p95 by a third at unchanged seeding time;
without it (and with cheaper writes) the foreground ran up to twice as
slow.  ``time.sleep(0)`` is not a substitute — timer slack makes it
cost ~170 µs a call here, which the seeding time pays.  The yield stays
per record, and records are not featurized across the batch: a
record's scatter-add is ~15 µs, so batching it buys nothing
measurable, while longer GIL holds between yields are exactly what the
foreground's tail pays for.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.ingest.chunker import DEFAULT_MAX_CHUNK_LINES, Chunk, chunk_file
from repro.ingest.walker import (
    DEFAULT_MAX_FILE_BYTES,
    extract_archive,
    iter_repo_files,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jobs.manager import JobContext
    from repro.server.app import LaminarServer

#: default chunks per bulk-registration batch — small enough that the
#: write lock is held for milliseconds, large enough to amortize the
#: per-batch executemany/add_many/journal costs
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class IngestSpec:
    """A validated ingest request (see ``schema.IngestRequest``)."""

    path: str | None = None
    archive: bytes | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES
    max_chunk_lines: int = DEFAULT_MAX_CHUNK_LINES


def run_ingest(
    app: "LaminarServer",
    user_name: str,
    spec: IngestSpec,
    ctx: "JobContext",
) -> dict[str, Any]:
    """The job body: ingest one repository for ``user_name``.

    The user is re-resolved here (not at submit time) — the job may
    start after an account mutation, and a failure surfaces as the
    job's structured error rather than a lost HTTP response.
    """
    user = app.registry.get_user(user_name)
    scratch: str | None = None
    try:
        if spec.archive is not None:
            scratch = tempfile.mkdtemp(prefix="repro-ingest-")
            extract_archive(spec.archive, scratch)
            root = scratch
        else:
            root = spec.path or "."
        inserted = deduped = 0
        batch: list[Chunk] = []
        for relative, text in iter_repo_files(
            root, max_file_bytes=spec.max_file_bytes
        ):
            ctx.checkpoint()
            ctx.advance("filesDiscovered")
            chunks = None if text is None else chunk_file(
                relative, text, max_chunk_lines=spec.max_chunk_lines
            )
            if chunks is None:
                ctx.advance("filesSkipped")
                continue
            for chunk in chunks:
                ctx.advance("chunksDiscovered")
                batch.append(chunk)
                if len(batch) >= spec.batch_size:
                    new, old = _flush(app, user, batch, ctx)
                    inserted += new
                    deduped += old
                    batch = []
        if batch:
            new, old = _flush(app, user, batch, ctx)
            inserted += new
            deduped += old
        if inserted:
            with app.write_lock:
                app.registry.persist_shards()
            app.registry.dao.checkpoint()
        return {
            "inserted": inserted,
            "deduped": deduped,
            "registryVersion": app.registry.dao.mutation_counter(),
        }
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _flush(
    app: "LaminarServer",
    user,
    batch: list[Chunk],
    ctx: "JobContext",
) -> tuple[int, int]:
    """Register one bounded batch; returns ``(inserted, deduped)``."""
    from repro.server.v1_write import build_pe_record

    ctx.checkpoint()
    records = []
    for chunk in batch:
        records.append(
            build_pe_record(
                app,
                name=chunk.name,
                code=chunk.code,
                description=chunk.docstring,
                origin="user" if chunk.docstring else "auto",
                source=chunk.source_text(),
                imports=list(chunk.imports),
            )
        )
        # let a waiting request thread have the interpreter (see the
        # module docstring)
        os.sched_yield()
    ctx.advance("chunksEmbedded", len(records))
    with app.write_lock:
        _, created = app.registry.register_pes_bulk(
            user, records, persist=False
        )
    inserted = sum(1 for flag in created if flag)
    ctx.advance("chunksInserted", inserted)
    ctx.advance("chunksDeduped", len(records) - inserted)
    return inserted, len(records) - inserted

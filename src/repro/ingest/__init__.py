"""Repository-scale ingestion: whole source trees into the registry.

Eight PRs of serving-stack work left the write unit at one
hand-registered PE; real corpora — the function repositories SlsReuse
(PAPERS.md) shows reuse quality depends on — are whole repositories.
This package turns a source tree into registry records:

``walker``
    Deterministic directory walk (sorted, VCS/cache/virtualenv dirs
    pruned, binaries and oversized files refused) plus a validating
    tarball extractor for archives uploaded over the API.

``chunker``
    A pure-python AST chunker for ``.py`` files: function/class-level
    chunks under dotted qualnames with decorators and module context,
    stable chunk ids from ``path + qualname + code-hash`` (so
    re-ingest dedupes via the registry's §3.1 identity rule), size
    caps with a line-window fallback that also covers non-``.py``
    text.  Files that fail to parse are skipped cleanly.  In the
    spirit of semcod's tree-sitter chunking (SNIPPETS.md #1) without
    the native dependency.

``pipeline``
    The background-job body: walk -> chunk -> summarize/embed ->
    ``RegistryService.register_pes_bulk`` in **bounded batches**, each
    batch one write transaction, its one dedup read and its one
    ``executemany`` (its ``add_many`` after the commit), so the serving
    path waits for one batch at most and simply watches the corpus
    grow.  Progress streams
    through monotonic job counters (``chunksDiscovered`` /
    ``chunksEmbedded`` / ``chunksInserted`` / ``chunksDeduped``) and
    cancellation is cooperative at batch boundaries.

The API surface is ``POST /v1/registry/{user}/ingest`` (typed
envelope: a server-local ``path`` or a base64 ``archive``; returns a
job id immediately) with progress served by the ``/v1/jobs`` routes —
see :mod:`repro.server.jobs_api` — and the ``repro ingest`` CLI.
"""

from repro.ingest.chunker import (
    DEFAULT_MAX_CHUNK_LINES,
    Chunk,
    chunk_file,
    chunk_python,
    chunk_text,
)
from repro.ingest.pipeline import run_ingest
from repro.ingest.walker import (
    DEFAULT_MAX_FILE_BYTES,
    extract_archive,
    iter_repo_files,
)

__all__ = [
    "Chunk",
    "DEFAULT_MAX_CHUNK_LINES",
    "DEFAULT_MAX_FILE_BYTES",
    "chunk_file",
    "chunk_python",
    "chunk_text",
    "extract_archive",
    "iter_repo_files",
    "run_ingest",
]

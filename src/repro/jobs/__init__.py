"""Background jobs — the server's asynchronous work plane.

The serving stack answers searches in milliseconds, but some work units
are minutes long: ingesting a whole repository, executing a registered
workflow.  Running those inline would
hold an HTTP connection (and, worse, tempt callers into holding one
write transaction) for the duration.  This package gives the server one
general mechanism instead — *A Prototype of Serverless Lucene* draws
the same line: indexing is an offline/async concern behind a
synchronous serving path.

:class:`~repro.jobs.manager.JobManager` owns

* a **bounded worker pool** — at most ``workers`` jobs run at once;
  excess submissions queue in FIFO order, so a burst of ingests cannot
  starve the interactive serving path of CPU;
* **job records** moving ``queued -> running -> succeeded | failed |
  cancelled``, each carrying monotonic **progress counters** the
  running job advances as it streams (``chunksInserted`` etc.), a
  structured **error envelope** on failure (same ``error`` /
  ``message`` / ``details`` shape as the API's §3.2.5 errors), and an
  optional **result** payload on success;
* **cooperative cancellation** — ``cancel()`` flips a flag; the job
  observes it at its next :meth:`~repro.jobs.manager.JobContext.checkpoint`
  and unwinds via :class:`~repro.jobs.manager.JobCancelled`.  A job
  cancelled while still queued never starts at all;
* **TTL'd retention** — terminal records are pruned opportunistically
  (no background sweeper) once older than ``retention_ttl`` or beyond
  ``retention_cap``, oldest first; live jobs are never pruned.

The manager is deliberately generic: it knows nothing about ingestion.
``repro/ingest`` submits its pipeline as a plain callable, and the
planned ``workflows/{name}:run`` (ROADMAP item 5) can submit engine
executions through the identical machinery.  The server exposes the
store as ``GET /v1/jobs``, ``GET /v1/jobs/{id}`` and
``POST /v1/jobs/{id}:cancel`` (see :mod:`repro.server.jobs_api`).
"""

from repro.jobs.manager import (
    JOB_STATES,
    JobCancelled,
    JobContext,
    JobManager,
    JobRecord,
    TERMINAL_STATES,
)

__all__ = [
    "JOB_STATES",
    "JobCancelled",
    "JobContext",
    "JobManager",
    "JobRecord",
    "TERMINAL_STATES",
]

"""The background-job manager: worker pool, job store, lifecycle.

See :mod:`repro.jobs` for the design rationale.  Everything here is
plain ``threading`` — jobs are I/O- and DAO-bound (the model work
releases the GIL rarely, but ingest batches spend their time in SQLite
and BLAS), and a bounded pool of daemon threads keeps the serving
event loop untouched.
"""

from __future__ import annotations

import threading
import traceback
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError, error_envelope

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_SUCCEEDED = "succeeded"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: every state a job record can report, in lifecycle order
JOB_STATES = (
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_SUCCEEDED,
    JOB_FAILED,
    JOB_CANCELLED,
)

#: states a job never leaves (and the only ones retention may prune)
TERMINAL_STATES = frozenset({JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED})


class JobCancelled(Exception):
    """Raised *inside* a job body by :meth:`JobContext.checkpoint` when
    cancellation was requested; unwinds the job into ``cancelled``."""


@dataclass
class JobRecord:
    """One job's full observable state (mutated only under the manager
    lock; hand out :meth:`to_json` snapshots, never the record)."""

    job_id: str
    kind: str
    owner: str | None
    state: str = JOB_QUEUED
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: monotonic counters the running job advances (never decremented)
    progress: dict[str, int] = field(default_factory=dict)
    #: request echo — what the job was asked to do (already validated)
    params: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    cancel_requested: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "jobId": self.job_id,
            "kind": self.kind,
            "owner": self.owner,
            "state": self.state,
            "createdAt": self.created_at,
            "startedAt": self.started_at,
            "finishedAt": self.finished_at,
            "progress": dict(self.progress),
            "params": dict(self.params),
            "result": None if self.result is None else dict(self.result),
            "error": None if self.error is None else dict(self.error),
            "cancelRequested": self.cancel_requested,
        }


class JobContext:
    """What a running job body receives: progress + cancellation.

    The context is the *only* sanctioned way a job touches its record —
    it serializes on the manager lock, so API readers always see a
    consistent snapshot.
    """

    def __init__(self, manager: "JobManager", record: JobRecord) -> None:
        self._manager = manager
        self._record = record

    def advance(self, counter: str, delta: int = 1) -> int:
        """Add ``delta`` (>= 0) to a named progress counter.

        Counters are monotonic by construction — a job reports how much
        it has done, never less than before — so pollers can treat any
        observed value as a floor.
        """
        if delta < 0:
            raise ValueError(f"progress is monotonic; delta {delta} < 0")
        with self._manager._lock:
            value = self._record.progress.get(counter, 0) + int(delta)
            self._record.progress[counter] = value
            return value

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested (advisory peek)."""
        with self._manager._lock:
            return self._record.cancel_requested

    def checkpoint(self) -> None:
        """Cooperative cancellation point: raise :class:`JobCancelled`
        if a cancel was requested.  Call between batches — work already
        landed stays landed (ingest is not transactional; the progress
        counters say exactly how far it got)."""
        if self.cancelled:
            raise JobCancelled(self._record.job_id)


class JobManager:
    """Thread-safe job store + bounded FIFO worker pool.

    Parameters
    ----------
    workers:
        Maximum jobs running concurrently (worker threads are daemon
        and started lazily on first submit).
    retention_ttl:
        Seconds a *terminal* record stays readable; ``None`` keeps
        records until the cap evicts them.  Enforced opportunistically
        on submit/get/list — no background sweeper.
    retention_cap:
        Maximum terminal records retained (oldest finished first);
        ``None`` means unbounded.
    clock:
        Injectable time source (tests pin it to exercise TTL GC).
    """

    def __init__(
        self,
        workers: int = 2,
        retention_ttl: float | None = 3600.0,
        retention_cap: int | None = 500,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if workers < 1:
            raise ValueError("JobManager needs at least one worker")
        self.workers = int(workers)
        self.retention_ttl = retention_ttl
        self.retention_cap = retention_cap
        self._clock = clock
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}
        self._fns: dict[str, Callable[[JobContext], dict[str, Any] | None]] = {}
        self._queue: deque[str] = deque()
        self._threads: list[threading.Thread] = []
        self._next_id = 0
        self._shutdown = False

    # ------------------------------------------------------------------
    # Submission and the worker loop
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        fn: Callable[[JobContext], dict[str, Any] | None],
        *,
        owner: str | None = None,
        params: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Enqueue ``fn`` as a new job; returns the queued snapshot.

        ``fn`` receives a :class:`JobContext`; its return value (a JSON
        dict, or ``None``) becomes the job's ``result`` on success.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("JobManager is shut down")
            self._prune_locked()
            self._next_id += 1
            record = JobRecord(
                job_id=f"job-{self._next_id:06d}",
                kind=kind,
                owner=owner,
                created_at=self._clock(),
                params=dict(params or {}),
            )
            self._records[record.job_id] = record
            self._queue.append(record.job_id)
            self._fns[record.job_id] = fn
            if len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._worker,
                    name=f"repro-job-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            self._wake.notify()
            return record.to_json()

    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._shutdown:
                    self._wake.wait()
                if self._shutdown and not self._queue:
                    return
                job_id = self._queue.popleft()
                record = self._records.get(job_id)
                fn = self._fns.pop(job_id, None)
                if record is None or fn is None:
                    continue
                if record.state != JOB_QUEUED:
                    # cancelled while queued: already terminal, never ran
                    continue
                record.state = JOB_RUNNING
                record.started_at = self._clock()
                context = JobContext(self, record)
            self._run_one(record, fn, context)

    def _run_one(
        self,
        record: JobRecord,
        fn: Callable[[JobContext], dict[str, Any] | None],
        context: JobContext,
    ) -> None:
        """Execute one job body outside the lock; settle under it."""
        state = JOB_SUCCEEDED
        result: dict[str, Any] | None = None
        error: dict[str, Any] | None = None
        try:
            returned = fn(context)
            result = dict(returned) if isinstance(returned, dict) else None
        except JobCancelled:
            state = JOB_CANCELLED
        except ReproError as exc:
            # the API's §3.2.5 envelope, minus the HTTP code — a job
            # failure is not an HTTP response, but readers get the same
            # error/message/params/details vocabulary
            state = JOB_FAILED
            envelope = exc.to_json()
            envelope.pop("code", None)
            error = envelope
        except BaseException as exc:  # job bodies must never kill a worker
            state = JOB_FAILED
            error = error_envelope(
                "InternalError",
                None,
                f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc(limit=5),
            )
        with self._lock:
            record.state = state
            record.finished_at = self._clock()
            record.result = result
            record.error = error

    # ------------------------------------------------------------------
    # Store access (API surface)
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            self._prune_locked()
            record = self._records.get(job_id)
            return None if record is None else record.to_json()

    def list(
        self, *, owner: str | None = None, state: str | None = None
    ) -> list[dict[str, Any]]:
        """Snapshots newest-first, optionally filtered by owner/state."""
        with self._lock:
            self._prune_locked()
            records = [
                record.to_json()
                for record in self._records.values()
                if (owner is None or record.owner == owner)
                and (state is None or record.state == state)
            ]
        records.sort(key=lambda snap: snap["jobId"], reverse=True)
        return records

    def cancel(self, job_id: str) -> dict[str, Any] | None:
        """Request cancellation; returns the post-request snapshot.

        A queued job is cancelled immediately (it will never run); a
        running job gets the flag and settles at its next checkpoint; a
        terminal job is untouched (cancel is idempotent).
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            if record.state == JOB_QUEUED:
                record.state = JOB_CANCELLED
                record.cancel_requested = True
                record.finished_at = self._clock()
            elif record.state == JOB_RUNNING:
                record.cancel_requested = True
            return record.to_json()

    # ------------------------------------------------------------------
    # Retention + shutdown
    # ------------------------------------------------------------------
    def _prune_locked(self) -> None:
        terminal = [
            record
            for record in self._records.values()
            if record.state in TERMINAL_STATES
        ]
        if self.retention_ttl is not None:
            horizon = self._clock() - self.retention_ttl
            for record in terminal:
                if (record.finished_at or 0.0) < horizon:
                    del self._records[record.job_id]
            terminal = [
                record
                for record in terminal
                if record.job_id in self._records
            ]
        if self.retention_cap is not None and len(terminal) > self.retention_cap:
            terminal.sort(key=lambda record: (record.finished_at or 0.0))
            for record in terminal[: len(terminal) - self.retention_cap]:
                del self._records[record.job_id]

    def join(self, timeout: float = 30.0) -> bool:
        """Block until no job is queued or running (tests/CLI polling).

        Returns ``False`` on timeout.  Purely observational — workers
        keep accepting submissions afterwards.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                busy = self._queue or any(
                    record.state in (JOB_QUEUED, JOB_RUNNING)
                    for record in self._records.values()
                )
            if not busy:
                return True
            time.sleep(0.005)
        return False

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work and (optionally) drain the queue."""
        with self._wake:
            self._shutdown = True
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)

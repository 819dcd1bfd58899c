"""JobManager lifecycle: states, progress, cancellation, retention."""

import threading
import time

import pytest

from repro.errors import ValidationError
from repro.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobCancelled,
    JobManager,
)


@pytest.fixture()
def manager():
    mgr = JobManager(workers=2, retention_ttl=None, retention_cap=None)
    yield mgr
    mgr.shutdown(wait=False)


def wait_state(manager, job_id, states, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = manager.get(job_id)
        if snapshot and snapshot["state"] in states:
            return snapshot
        time.sleep(0.005)
    raise AssertionError(
        f"job {job_id} never reached {states}: {manager.get(job_id)}"
    )


class TestLifecycle:
    def test_success_records_result_and_timestamps(self, manager):
        snapshot = manager.submit(
            "demo", lambda ctx: {"answer": 42}, owner="u", params={"a": 1}
        )
        assert snapshot["state"] == "queued"
        assert snapshot["jobId"].startswith("job-")
        assert snapshot["params"] == {"a": 1}
        done = wait_state(manager, snapshot["jobId"], ("succeeded",))
        assert done["result"] == {"answer": 42}
        assert done["error"] is None
        assert done["createdAt"] <= done["startedAt"] <= done["finishedAt"]

    def test_none_return_is_success_without_result(self, manager):
        snapshot = manager.submit("demo", lambda ctx: None)
        done = wait_state(manager, snapshot["jobId"], ("succeeded",))
        assert done["result"] is None

    def test_repro_error_becomes_structured_failure(self, manager):
        def body(ctx):
            raise ValidationError("bad input", params={"field": "x"})

        snapshot = manager.submit("demo", body)
        done = wait_state(manager, snapshot["jobId"], ("failed",))
        assert done["error"]["error"] == "ValidationError"
        assert done["error"]["message"] == "bad input"
        assert done["error"]["params"] == {"field": "'x'"}
        # a job failure is not an HTTP response
        assert "code" not in done["error"]

    def test_arbitrary_exception_becomes_internal_error(self, manager):
        def body(ctx):
            raise RuntimeError("boom")

        snapshot = manager.submit("demo", body)
        done = wait_state(manager, snapshot["jobId"], ("failed",))
        assert done["error"]["error"] == "InternalError"
        assert "RuntimeError: boom" in done["error"]["message"]
        assert "traceback" in done["error"]["details"].lower() or (
            "boom" in done["error"]["details"]
        )

    def test_ids_are_sequential_and_listing_is_newest_first(self, manager):
        first = manager.submit("demo", lambda ctx: None)
        second = manager.submit("demo", lambda ctx: None)
        assert first["jobId"] < second["jobId"]
        wait_state(manager, second["jobId"], TERMINAL_STATES)
        wait_state(manager, first["jobId"], TERMINAL_STATES)
        listed = manager.list()
        assert [s["jobId"] for s in listed] == [
            second["jobId"],
            first["jobId"],
        ]

    def test_list_filters_by_owner_and_state(self, manager):
        mine = manager.submit("demo", lambda ctx: None, owner="alice")
        manager.submit("demo", lambda ctx: None, owner="bob")
        wait_state(manager, mine["jobId"], ("succeeded",))
        manager.join()
        assert [
            s["owner"] for s in manager.list(owner="alice")
        ] == ["alice"]
        assert all(
            s["state"] == "succeeded"
            for s in manager.list(state="succeeded")
        )
        assert manager.list(state="failed") == []

    def test_states_are_the_documented_vocabulary(self):
        assert JOB_STATES == (
            "queued",
            "running",
            "succeeded",
            "failed",
            "cancelled",
        )
        assert TERMINAL_STATES == {"succeeded", "failed", "cancelled"}


class TestProgress:
    def test_counters_are_monotonic(self, manager):
        seen = []

        def body(ctx):
            seen.append(ctx.advance("items", 3))
            seen.append(ctx.advance("items"))
            seen.append(ctx.advance("items", 0))
            return None

        snapshot = manager.submit("demo", body)
        done = wait_state(manager, snapshot["jobId"], ("succeeded",))
        assert seen == [3, 4, 4]
        assert done["progress"] == {"items": 4}

    def test_negative_delta_is_rejected(self, manager):
        failures = []

        def body(ctx):
            try:
                ctx.advance("items", -1)
            except ValueError as exc:
                failures.append(str(exc))
            return None

        snapshot = manager.submit("demo", body)
        wait_state(manager, snapshot["jobId"], ("succeeded",))
        assert failures and "monotonic" in failures[0]


class TestCancellation:
    def test_cancel_unknown_job_returns_none(self, manager):
        assert manager.cancel("job-999999") is None

    def test_cancel_queued_job_never_runs(self):
        manager = JobManager(workers=1)
        try:
            release = threading.Event()
            blocker = manager.submit("demo", lambda ctx: release.wait(5) and None)
            wait_state(manager, blocker["jobId"], ("running",))
            queued = manager.submit("demo", lambda ctx: {"ran": True})
            cancelled = manager.cancel(queued["jobId"])
            assert cancelled["state"] == "cancelled"
            release.set()
            done = wait_state(manager, queued["jobId"], TERMINAL_STATES)
            assert done["state"] == "cancelled"
            assert done["result"] is None
        finally:
            release.set()
            manager.shutdown(wait=False)

    def test_cancel_running_job_settles_at_checkpoint(self, manager):
        entered = threading.Event()
        release = threading.Event()

        def body(ctx):
            entered.set()
            release.wait(5)
            ctx.checkpoint()
            return {"ran": True}

        snapshot = manager.submit("demo", body)
        assert entered.wait(5)
        flagged = manager.cancel(snapshot["jobId"])
        assert flagged["state"] == "running"
        assert flagged["cancelRequested"] is True
        release.set()
        done = wait_state(manager, snapshot["jobId"], TERMINAL_STATES)
        assert done["state"] == "cancelled"

    def test_cancel_terminal_job_is_a_noop(self, manager):
        snapshot = manager.submit("demo", lambda ctx: {"ok": True})
        done = wait_state(manager, snapshot["jobId"], ("succeeded",))
        again = manager.cancel(done["jobId"])
        assert again["state"] == "succeeded"
        assert again["result"] == {"ok": True}

    def test_checkpoint_raises_job_cancelled(self, manager):
        raised = []
        entered = threading.Event()
        release = threading.Event()

        def body(ctx):
            entered.set()
            release.wait(5)
            try:
                ctx.checkpoint()
            except JobCancelled:
                raised.append(True)
                raise
            return None

        snapshot = manager.submit("demo", body)
        assert entered.wait(5)
        manager.cancel(snapshot["jobId"])
        release.set()
        done = wait_state(manager, snapshot["jobId"], TERMINAL_STATES)
        assert raised == [True]
        assert done["state"] == "cancelled"


class TestRetentionAndConcurrency:
    def test_ttl_prunes_terminal_records(self):
        now = [1000.0]
        manager = JobManager(
            workers=1, retention_ttl=60.0, retention_cap=None, clock=lambda: now[0]
        )
        try:
            snapshot = manager.submit("demo", lambda ctx: None)
            wait_state(manager, snapshot["jobId"], ("succeeded",))
            assert manager.get(snapshot["jobId"]) is not None
            now[0] += 61.0
            assert manager.get(snapshot["jobId"]) is None
            assert manager.list() == []
        finally:
            manager.shutdown(wait=False)

    def test_ttl_never_prunes_live_jobs(self):
        now = [1000.0]
        manager = JobManager(
            workers=1, retention_ttl=60.0, retention_cap=None, clock=lambda: now[0]
        )
        try:
            release = threading.Event()
            running = manager.submit("demo", lambda ctx: release.wait(5) and None)
            wait_state(manager, running["jobId"], ("running",))
            now[0] += 3600.0
            assert manager.get(running["jobId"])["state"] == "running"
            release.set()
        finally:
            release.set()
            manager.shutdown(wait=False)

    def test_cap_evicts_oldest_finished_first(self):
        now = [0.0]
        manager = JobManager(
            workers=1, retention_ttl=None, retention_cap=2, clock=lambda: now[0]
        )
        try:
            ids = []
            for _ in range(4):
                now[0] += 1.0
                snapshot = manager.submit("demo", lambda ctx: None)
                wait_state(manager, snapshot["jobId"], ("succeeded",))
                ids.append(snapshot["jobId"])
            manager.submit("demo", lambda ctx: None)  # triggers prune
            manager.join()
            survivors = {s["jobId"] for s in manager.list()}
            assert ids[0] not in survivors
            assert ids[-1] in survivors
        finally:
            manager.shutdown(wait=False)

    def test_worker_pool_is_bounded(self):
        manager = JobManager(workers=2)
        try:
            release = threading.Event()
            peak = [0]
            active = [0]
            lock = threading.Lock()

            def body(ctx):
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                release.wait(5)
                with lock:
                    active[0] -= 1
                return None

            for _ in range(6):
                manager.submit("demo", body)
            time.sleep(0.2)
            running = sum(
                1 for s in manager.list() if s["state"] == "running"
            )
            assert running <= 2
            release.set()
            assert manager.join(timeout=10.0)
            assert peak[0] <= 2
        finally:
            release.set()
            manager.shutdown(wait=False)

    def test_zero_workers_is_rejected(self):
        with pytest.raises(ValueError):
            JobManager(workers=0)

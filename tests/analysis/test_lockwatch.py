"""Unit tests for the runtime lock-order / lock-discipline detector.

The AB/BA deadlock test is deterministic: the two threads are run
*sequentially* (thread 1 takes A→B and exits, then thread 2 takes
B→A), which can never deadlock for real but writes both edge
directions into the global order graph — exactly the point of
witness-style detection: the *potential* is recorded even when the
fatal interleaving never happens.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.lockwatch import LockWatch, current_watch


@pytest.fixture()
def watch():
    w = LockWatch()
    w.install()
    try:
        yield w
    finally:
        w.uninstall()


def _run(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()


class TestInstallation:
    def test_locks_are_instrumented_while_active(self, watch):
        lock = threading.Lock()
        assert type(lock).__name__ == "InstrumentedLock"
        assert current_watch() is watch

    def test_uninstall_restores_factories(self):
        w = LockWatch()
        w.install()
        w.uninstall()
        assert type(threading.Lock()).__name__ != "InstrumentedLock"
        assert current_watch() is None

    def test_install_refcounts(self):
        w = LockWatch()
        w.install()
        w.install()
        w.uninstall()
        assert type(threading.Lock()).__name__ == "InstrumentedLock"
        w.uninstall()
        assert type(threading.Lock()).__name__ != "InstrumentedLock"

    def test_second_watch_rejected(self, watch):
        with pytest.raises(RuntimeError):
            LockWatch().install()


class TestLockOrderCycle:
    def test_ab_ba_is_detected_sequentially(self, watch):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def t1():
            with lock_a:
                with lock_b:
                    pass

        def t2():
            with lock_b:
                with lock_a:
                    pass

        _run(t1)
        _run(t2)
        kinds = [v["kind"] for v in watch.violations]
        assert kinds == ["lock-order-cycle"]
        violation = watch.violations[0]
        assert "->" in violation["cycle"]
        assert violation["stack"]  # acquisition stack captured
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            watch.raise_violations()

    def test_consistent_order_is_clean(self, watch):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def t(_):
            with lock_a:
                with lock_b:
                    pass

        for i in range(2):
            _run(lambda: t(i))
        assert watch.violations == []
        watch.raise_violations()  # no-op

    def test_three_lock_cycle(self, watch):
        # A→B, B→C, C→A: no two-lock inversion, still a cycle.
        # Separate lines matter: locks are aggregated by allocation
        # site, and same-site edges carry no ordering information.
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        lock_c = threading.Lock()

        def pair(first, second):
            def body():
                with first:
                    with second:
                        pass
            return body

        _run(pair(lock_a, lock_b))
        _run(pair(lock_b, lock_c))
        _run(pair(lock_c, lock_a))
        assert [v["kind"] for v in watch.violations] == ["lock-order-cycle"]

    def test_reentrant_rlock_is_not_an_edge(self, watch):
        rlock = threading.RLock()
        with rlock:
            with rlock:
                pass
        assert watch.violations == []
        assert watch.edges == {}


class TestBlockingUnderLock:
    def test_sleep_under_lock_is_flagged(self, watch):
        lock = threading.Lock()
        with lock:
            time.sleep(0)
        assert [v["kind"] for v in watch.violations] == [
            "blocking-call-under-lock"
        ]
        assert watch.violations[0]["call"] == "time.sleep"
        assert watch.violations[0]["held"]

    def test_sleep_outside_lock_is_fine(self, watch):
        lock = threading.Lock()
        with lock:
            pass
        time.sleep(0)
        assert watch.violations == []

    def test_a_deep_sleep_records_a_short_stack(self, watch):
        def descend(remaining):
            if remaining:
                return descend(remaining - 1)
            time.sleep(0)

        with threading.Lock():
            descend(20)
        assert [v["kind"] for v in watch.violations] == [
            "blocking-call-under-lock"
        ]
        stack = watch.violations[0]["stack"]
        assert len(stack) == 8
        assert all(" in descend" in frame for frame in stack)


class TestConditionIntegration:
    def test_condition_wait_releases_held_state(self, watch):
        # Condition.wait sleeps *after* releasing the lock — must not
        # read as a blocking call under the lock.
        cond = threading.Condition()
        done = threading.Event()

        def waiter():
            with cond:
                cond.wait(timeout=0.5)
            done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        with cond:
            cond.notify_all()
        thread.join(10)
        assert done.is_set()
        blocking = [
            v
            for v in watch.violations
            if v["kind"] == "blocking-call-under-lock"
        ]
        assert blocking == []

    def test_event_wait_is_clean(self, watch):
        event = threading.Event()

        def setter():
            time.sleep(0.02)
            event.set()

        thread = threading.Thread(target=setter)
        thread.start()
        assert event.wait(timeout=5)
        thread.join(10)
        assert [
            v
            for v in watch.violations
            if v["kind"] == "blocking-call-under-lock"
        ] == []

    def test_lock_still_owned_after_wait(self, watch):
        cond = threading.Condition()
        with cond:
            cond.wait(timeout=0.01)
            # the lock must be re-held after the wait times out
            assert cond._is_owned()
        assert watch.violations == []


class TestReporting:
    def test_render_violations_includes_stacks(self, watch):
        lock = threading.Lock()
        with lock:
            time.sleep(0)
        text = watch.render_violations()
        assert "blocking-call-under-lock" in text
        assert "time.sleep" in text

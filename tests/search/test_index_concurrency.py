"""Concurrent-mutation safety of the vector index.

Threads hammer ``add``/``remove``/``search`` on one :class:`VectorIndex`
to prove lock correctness: no torn shard rows (every returned score must
match the deterministic vector stored for that id), no stale ids after
``remove`` returns, and a consistent final state.
"""

import threading

import numpy as np

from repro.search import KIND_DESC, VectorIndex
from tests.helpers import resident_index

DIM = 32
USER = "u"


def vector_for(rid: int) -> np.ndarray:
    """Deterministic unit vector per record id — lets any observer verify
    that a returned score was computed from an intact row."""
    rng = np.random.default_rng(rid + 1)
    vec = rng.standard_normal(DIM).astype(np.float32)
    return vec / np.linalg.norm(vec)


class Worker(threading.Thread):
    """Owns a private id range; interleaves add/remove/search cycles."""

    def __init__(self, index: VectorIndex, base: int, rounds: int) -> None:
        super().__init__(daemon=True)
        self.index = index
        self.base = base
        self.rounds = rounds
        self.live: set[int] = set()
        self.errors: list[str] = []

    def run(self) -> None:
        try:
            rng = np.random.default_rng(self.base)
            for step in range(self.rounds):
                rid = self.base + (step % 25)
                if rid in self.live and rng.random() < 0.4:
                    assert self.index.remove(USER, KIND_DESC, rid)
                    self.live.discard(rid)
                    # a removed id must never be visible once remove returned
                    ids, _ = self.index.search(USER, KIND_DESC, vector_for(rid))
                    if rid in ids:
                        self.errors.append(f"stale id {rid} after remove")
                else:
                    self.index.add(USER, KIND_DESC, rid, vector_for(rid))
                    self.live.add(rid)
                if step % 3 == 0:
                    qvec = vector_for(self.base + 1000 + step)
                    ids, scores = self.index.search(USER, KIND_DESC, qvec, k=8)
                    for got_id, got_score in zip(ids, scores):
                        expected = float(vector_for(got_id) @ qvec)
                        if abs(expected - float(got_score)) > 1e-5:
                            self.errors.append(
                                f"torn row for id {got_id}: "
                                f"{got_score} != {expected}"
                            )
        except Exception as exc:  # surface thread crashes to the test
            self.errors.append(f"{type(exc).__name__}: {exc}")


class TestConcurrentHammer:
    def test_threads_never_observe_torn_or_stale_state(self):
        index = resident_index((USER, KIND_DESC))
        workers = [Worker(index, base=i * 1000, rounds=300) for i in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive(), "worker deadlocked"
        problems = [e for w in workers for e in w.errors]
        assert problems == []

        # final state: exactly the union of per-thread live sets
        expected_live = set().union(*(w.live for w in workers))
        assert set(index.ids(USER, KIND_DESC)) == expected_live
        assert index.size(USER, KIND_DESC) == len(expected_live)

        # and every surviving vector is intact
        for rid in sorted(expected_live):
            ids, scores = index.search(USER, KIND_DESC, vector_for(rid), k=1)
            assert ids[0] == rid
            assert abs(float(scores[0]) - 1.0) < 1e-5

    def test_concurrent_batch_search_during_mutation(self):
        index = resident_index((USER, KIND_DESC))
        for rid in range(64):
            index.add(USER, KIND_DESC, rid, vector_for(rid))
        stop = threading.Event()
        errors: list[str] = []

        def churn():
            step = 0
            while not stop.is_set():
                rid = 64 + (step % 32)
                index.add(USER, KIND_DESC, rid, vector_for(rid))
                index.remove(USER, KIND_DESC, rid)
                step += 1

        def query():
            queries = [vector_for(5000 + i) for i in range(4)]
            while not stop.is_set():
                try:
                    # the whole batch ranks one state of the shard: ids
                    # the churn may hold, rows intact
                    batch = index.search_among_many(
                        USER, KIND_DESC, queries, [5] * len(queries)
                    )
                    for qvec, (ids, scores) in zip(queries, batch):
                        if len(ids) != len(scores):
                            errors.append("ragged batch result")
                        if not set(ids) <= set(range(96)):
                            errors.append(f"unknown ids {ids}")
                        for got_id, got_score in zip(ids, scores):
                            expected = float(vector_for(got_id) @ qvec)
                            if abs(expected - float(got_score)) > 1e-5:
                                errors.append(f"torn row for id {got_id}")
                except Exception as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
                    return

        threads = [threading.Thread(target=churn, daemon=True) for _ in range(2)]
        threads += [threading.Thread(target=query, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        timer.cancel()
        assert errors == []
        # ids 0..63 were never touched by the churn threads
        assert set(index.ids(USER, KIND_DESC)) >= set(range(64))

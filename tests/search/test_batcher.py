"""SearchBatcher: group-commit coalescing, bitwise parity and refills.

Coalescing is tested without clocks: a running flush is parked inside
``resolve`` on an :class:`threading.Event`, the requests that must queue
behind it are counted in through the batcher's own lock
(:class:`ArrivalWatch`), and only then is the flush released.  Every
schedule therefore produces the same batches.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import NotFoundError, ValidationError
from repro.search import KIND_CODE, KIND_DESC, SearchBatcher, VectorIndex
from tests.helpers import resident_index

#: generous bound on every wait: reached only when the code under test
#: deadlocks, never on a correct run
TIMEOUT = 30


def record(rid, vec=None):
    """A PE-shaped record: one vector serves its desc and code shards."""
    return SimpleNamespace(pe_id=rid, desc_embedding=vec, code_embedding=vec)


def pairs(ranked):
    """``(id, score)`` of the batcher's ``(record, score)`` pairs."""
    return [(r.pe_id, score) for r, score in ranked]


def no_embedding(texts):
    raise AssertionError(f"unexpected embed of {texts}")


def as_is(rank):
    """A ``current`` for an index that is current as it stands."""
    return rank(), False


class Corpus:
    """A tiny record store mimicking the registry's serving protocol:
    ``current`` fills a shard of the index that is not resident from the
    records, as the service refills one from the rows, and a commit of
    "another connection" (:meth:`commit`) makes the next one refill."""

    def __init__(self, user, vectors):
        self.user = user
        self.records = {
            rid: record(rid, np.asarray(vec, dtype=np.float32))
            for rid, vec in vectors.items()
        }
        self.resolve_calls = 0
        self.current_calls = 0
        self.version = 0

    def commit(self, rid, vec):
        """Another connection's write: the index is behind until its
        next refill."""
        self.records[rid] = record(rid, np.asarray(vec, dtype=np.float32))
        self.version += 1

    def current(self, index, kind, rank):
        self.current_calls += 1
        if self.version == index.version:
            ranked = rank()
            if ranked is not None:
                return ranked, False
        ids = sorted(self.records)
        refilled = index.fill(self.version, {(self.user, kind): (
            ids, [self.records[rid].desc_embedding for rid in ids]
        )})
        return rank(), refilled

    def resolve(self, ids):
        self.resolve_calls += 1
        return [self.records[rid] for rid in ids if rid in self.records]

    def brute_force(self, records, qvec, k=None):
        """The reference scan: ``(1, D) @ (D, N)`` over the id-ordered
        records, stable sort."""
        matrix = np.stack([r.desc_embedding for r in records])
        sims = (qvec[np.newaxis, :] @ matrix.T)[0]
        order = np.argsort(-sims, kind="stable")
        hits = [(records[i].pe_id, float(sims[i])) for i in order]
        return hits if k is None else hits[:k]

    def reference(self, qvec, k=None):
        """Brute force over every owned record, touching no counter."""
        return self.brute_force(
            [self.records[rid] for rid in sorted(self.records)], qvec, k
        )


class ArrivalWatch:
    """Lets a test wait, without polling, until ``n`` submits arrived.

    A submit counts itself and joins its key's queue in one critical
    section of ``batcher._lock``; this wrapper takes that lock's place
    and notifies on every release.
    """

    def __init__(self, batcher):
        self.batcher = batcher
        self._inner = batcher._lock
        self._released = threading.Condition()
        batcher._lock = self

    def __enter__(self):
        self._inner.acquire()

    def __exit__(self, *exc_info):
        self._inner.release()
        with self._released:
            self._released.notify_all()

    def wait_for_requests(self, n):
        with self._released:
            assert self._released.wait_for(
                lambda: self.batcher.requests_total >= n, TIMEOUT
            )


class Park:
    """Wraps a callback; the calls numbered in ``at`` (1-based) block
    inside it until released, holding their flush mid-run."""

    def __init__(self, fn, at=(1,), error=None):
        self.fn = fn
        self.error = error
        self.threads = []
        self.entered = {n: threading.Event() for n in at}
        self.release = {n: threading.Event() for n in at}

    def __call__(self, *args):
        self.threads.append(threading.current_thread())
        n = len(self.threads)
        if n in self.entered:
            self.entered[n].set()
            assert self.release[n].wait(TIMEOUT)
            if self.error is not None:
                raise self.error
        return self.fn(*args)


class Submitter(threading.Thread):
    """Runs one blocking call on its own thread, keeping its outcome."""

    def __init__(self, call):
        super().__init__(daemon=True)
        self.call = call
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self.call()
        except Exception as exc:
            self.error = exc

    def outcome(self):
        self.join(TIMEOUT)
        assert not self.is_alive()
        if self.error is not None:
            raise self.error
        return self.result


def queue_behind(watch, calls):
    """Start ``calls`` one at a time, each only after the previous one
    has queued, so the oldest waiter is ``calls[0]``."""
    threads = []
    for call in calls:
        arrived = watch.batcher.requests_total + 1
        thread = Submitter(call)
        thread.start()
        watch.wait_for_requests(arrived)
        threads.append(thread)
    return threads


def unit(rng, dim=16):
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / np.linalg.norm(vec)


@pytest.fixture()
def stack():
    rng = np.random.default_rng(7)
    vectors = {rid: unit(rng) for rid in range(1, 21)}
    corpus = Corpus("u", vectors)
    index = VectorIndex()
    index.fill(corpus.version, {("u", KIND_DESC): (
        list(vectors), list(vectors.values())
    )})
    return index, corpus, rng


def protocol_kwargs(index, corpus, qvec, k, kind=KIND_DESC):
    """The submit arguments.  ``resolve`` and ``current`` are looked up
    per call, so a test may wrap them."""
    return dict(
        index=index,
        user=corpus.user,
        kind=kind,
        current=lambda rank: corpus.current(index, kind, rank),
        k=k,
        query_embedding=qvec,
        resolve=lambda ids: corpus.resolve(ids),
        embed_many=no_embedding,
    )


def submit(batcher, index, corpus, qvec, k=5, kind=KIND_DESC):
    """``(id, score)`` pairs of one submit."""
    return pairs(
        batcher.submit(**protocol_kwargs(index, corpus, qvec, k, kind))
    )


class TestSingleRequest:
    def test_lone_submit_matches_brute_force_bitwise(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        for k in (1, 5, None):
            qvec = unit(rng)
            assert submit(batcher, index, corpus, qvec, k) == corpus.reference(
                qvec, k
            )
        stats = batcher.stats()
        assert stats["requests"] == stats["batches"] == 3
        assert stats["batchedRequests"] == 0

    def test_an_empty_shard_returns_empty(self):
        index = resident_index(("u", KIND_DESC))
        kwargs = protocol_kwargs(index, Corpus("u", {}), None, 3)
        kwargs.update(
            embed_key="q", embed_text="q",
            embed_many=lambda texts: np.ones((len(texts), 4), np.float32),
        )
        assert SearchBatcher().submit(**kwargs) == []

    def test_callback_error_reraises_in_submitter(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()

        def broken_resolve(ids):
            raise NotFoundError("gone")

        kwargs = protocol_kwargs(index, corpus, unit(rng), 2)
        kwargs["resolve"] = broken_resolve
        with pytest.raises(NotFoundError):
            batcher.submit(**kwargs)

    def test_bad_k_rejected_before_queueing(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        with pytest.raises(ValidationError):
            submit(batcher, index, corpus, unit(rng), k=0)
        assert batcher.stats()["requests"] == 0


class TestCoalescing:
    N = 6

    def park_and_queue(self, index, corpus, rng):
        """One submit's flush parked in ``resolve`` while N more queue
        behind it; returns the batcher, the N + 1 queries and results."""
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(corpus.resolve)
        corpus.resolve = park
        qvecs = [unit(rng) for _ in range(self.N + 1)]
        first = Submitter(lambda: submit(batcher, index, corpus, qvecs[0]))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        queued = queue_behind(
            watch,
            [
                lambda q=q: submit(batcher, index, corpus, q)
                for q in qvecs[1:]
            ],
        )
        park.release[1].set()
        results = [first.outcome()] + [t.outcome() for t in queued]
        return batcher, qvecs, results

    def test_concurrent_submits_coalesce_and_match_single_shot(self, stack):
        """N submits queued behind a running flush ride exactly one more
        flush, and every result equals its lone-submit (and brute-force)
        result."""
        index, corpus, rng = stack
        batcher, qvecs, results = self.park_and_queue(index, corpus, rng)
        stats = batcher.stats()
        assert stats["requests"] == self.N + 1
        assert stats["batches"] == 2
        assert stats["batchedRequests"] == stats["largestBatch"] == self.N
        lone = SearchBatcher()
        for qvec, got in zip(qvecs, results):
            assert got == corpus.reference(qvec, 5)
            assert got == submit(lone, index, corpus, qvec)

    def test_batch_amortizes_freshness_and_resolve_calls(self, stack):
        # each flush costs exactly one freshness check and one hydration
        # round trip, however many requests it carries
        index, corpus, rng = stack
        self.park_and_queue(index, corpus, rng)
        assert corpus.current_calls == corpus.resolve_calls == 2

    def test_each_thread_leads_at_most_one_flush(self, stack):
        """The leader of a flush hands the queue that formed meanwhile
        to its oldest waiter instead of flushing it itself."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(corpus.resolve, at=(1, 2))
        corpus.resolve = park

        def call():
            qvec = unit(rng)
            return lambda: (qvec, submit(batcher, index, corpus, qvec))

        first = Submitter(call())
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        second = queue_behind(watch, [call() for _ in range(3)])
        park.release[1].set()
        assert park.entered[2].wait(TIMEOUT)
        third = queue_behind(watch, [call() for _ in range(2)])
        park.release[2].set()
        for thread in [first] + second + third:
            qvec, got = thread.outcome()
            assert got == corpus.reference(qvec, 5)
        assert park.threads == [first, second[0], third[0]]
        assert batcher.stats()["batches"] == 3

    def test_distinct_embedded_queries_share_one_model_call(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(corpus.resolve)
        corpus.resolve = park
        texts = [f"query {i}" for i in range(self.N)]
        rows = {text: unit(rng) for text in texts}
        calls = []

        def embed_many(batch):
            calls.append(list(batch))
            return np.stack([rows[text] for text in batch])

        def by_text(text):
            kwargs = protocol_kwargs(index, corpus, None, 5)
            kwargs.update(
                embed_key=("t", text), embed_text=text, embed_many=embed_many
            )
            return lambda: pairs(batcher.submit(**kwargs))

        first = Submitter(lambda: submit(batcher, index, corpus, unit(rng)))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        queued = queue_behind(watch, [by_text(text) for text in texts])
        park.release[1].set()
        first.outcome()
        for text, thread in zip(texts, queued):
            assert thread.outcome() == corpus.reference(rows[text], 5)
        assert calls == [texts]
        stats = batcher.stats()
        assert stats["batchEmbeds"] == 1
        assert stats["batchEmbeddedQueries"] == self.N

    def test_failed_flush_fails_only_its_requests(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(corpus.resolve, error=NotFoundError("gone"))
        corpus.resolve = park
        first = Submitter(lambda: submit(batcher, index, corpus, unit(rng)))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        qvecs = [unit(rng) for _ in range(3)]
        queued = queue_behind(
            watch,
            [lambda q=q: submit(batcher, index, corpus, q) for q in qvecs],
        )
        park.release[1].set()
        with pytest.raises(NotFoundError):
            first.outcome()
        for qvec, thread in zip(qvecs, queued):
            assert thread.outcome() == corpus.reference(qvec, 5)
        assert batcher.stats()["batches"] == 2

    def test_distinct_kinds_never_share_a_batch(self, stack):
        """Another key's running flush never delays a lone submit: the
        other kind (no code shard yet, so its flush fills it) is served
        while the KIND_DESC flush is parked."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        park = Park(corpus.resolve)
        corpus.resolve = park
        qvec = unit(rng)
        desc = Submitter(lambda: submit(batcher, index, corpus, qvec))
        desc.start()
        assert park.entered[1].wait(TIMEOUT)
        other = submit(batcher, index, corpus, qvec, kind=KIND_CODE)
        assert other == corpus.reference(qvec, 5)
        park.release[1].set()
        assert desc.outcome() == corpus.reference(qvec, 5)
        stats = batcher.stats()
        assert stats["batches"] == 2
        assert stats["batchedRequests"] == 0
        assert stats["fallbacks"] == 0  # a first fill is no refill
        assert index.size("u", KIND_CODE) == len(corpus.records)


class TestStress:
    THREADS = 12  # more than this host's cores
    PER_THREAD = 15

    def test_every_request_served_once_under_preemption(self, stack):
        """Many threads over two keys with a tiny switch interval: each
        submit returns its own brute-force result, the request counter
        adds up, and no key is left busy (a lost hand-over would hang
        its waiters or leave the key queued)."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        qvecs = [unit(rng) for _ in range(8)]
        # the code shard is absent: its first flushes fill it
        kinds = [KIND_DESC, KIND_CODE]

        def work(tid):
            out = []
            for i in range(self.PER_THREAD):
                qvec = qvecs[(tid + i) % len(qvecs)]
                kind = kinds[(tid + i) % len(kinds)]
                out.append(
                    (qvec, submit(batcher, index, corpus, qvec, kind=kind))
                )
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                Submitter(lambda tid=tid: work(tid))
                for tid in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            outcomes = [thread.outcome() for thread in threads]
        finally:
            sys.setswitchinterval(interval)
        for out in outcomes:
            for qvec, got in out:
                assert got == corpus.reference(qvec, 5)
        assert batcher.stats()["requests"] == self.THREADS * self.PER_THREAD
        assert batcher._queues == {}


class TestRefill:
    def test_a_flush_after_a_foreign_commit_refills_and_counts(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        qvec = unit(rng)
        submit(batcher, index, corpus, qvec, k=None)
        corpus.commit(99, qvec)
        got = submit(batcher, index, corpus, qvec, k=None)
        assert got == corpus.reference(qvec)
        assert got[0][0] == 99
        assert batcher.stats()["fallbacks"] == 1
        # current again: the next flush ranks as it stands
        assert submit(batcher, index, corpus, qvec, k=None) == got
        assert batcher.stats()["fallbacks"] == 1


class TestSearchAmongMany:
    def test_bitwise_identical_to_search_among(self, stack):
        index, _corpus, rng = stack
        qvecs = [unit(rng) for _ in range(5)]
        ks = [1, 3, None, 20, 2]
        batch = index.search_among_many("u", KIND_DESC, qvecs, ks)
        assert batch is not None
        for qvec, k, (ids, scores) in zip(qvecs, ks, batch):
            single = index.search_among("u", KIND_DESC, qvec, k)
            assert single is not None
            assert ids == single[0]
            assert np.array_equal(scores, single[1])

    def test_a_shard_that_is_not_resident_returns_none(self, stack):
        index, _corpus, rng = stack
        assert index.search_among_many("v", KIND_DESC, [unit(rng)], [3]) is None

    def test_rejects_bad_k(self, stack):
        index, _corpus, rng = stack
        with pytest.raises(ValidationError):
            index.search_among_many("u", KIND_DESC, [unit(rng)], [0])


class TestEmbedMany:
    def test_embed_many_bitwise_equals_embed_one(self, fast_bundle):
        model = fast_bundle.code_search
        texts = ["find prime numbers", "sort a list", "find prime numbers"]
        batch = model.embed_many(texts, kind="text")
        for i, text in enumerate(texts):
            assert np.array_equal(batch[i], model.embed_one(text, kind="text"))

    def test_batcher_embeds_distinct_queries_in_one_call(self):
        """The flush leader makes ONE embed_many call for a batch.

        Mirrors the production call shape: every request passes a
        *fresh bound method* (Python mints a new bound-method object
        per attribute access, exactly like ``searcher.embed_queries``);
        a batch is one kind, so one embedder serves all of them.
        """

        class Embedder:
            def __init__(self):
                self.calls = []

            def embed_queries(self, texts):
                self.calls.append(list(texts))
                out = np.zeros((len(texts), 8), dtype=np.float32)
                for i, text in enumerate(texts):
                    out[i, hash(text) % 8] = 1.0
                return out

        embedder = Embedder()
        index = resident_index(("u", KIND_DESC))
        rids = list(range(1, 6))
        for rid in rids:
            vec = np.zeros(8, dtype=np.float32)
            vec[rid % 8] = 1.0
            index.add("u", KIND_DESC, rid, vec)
        records = {rid: record(rid) for rid in rids}
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(lambda ids: [records[r] for r in ids if r in records])

        def submit(text, embed_many):
            return batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                current=as_is,
                k=3,
                resolve=park,
                embed_key=("t", text),
                embed_text=text,
                embed_many=embed_many,
            )

        # park a running flush, queue four requests behind it (a fresh
        # bound method each, as production passes), then release: they
        # ride one flush
        first = Submitter(lambda: submit("first", embedder.embed_queries))
        first.start()
        assert park.entered[1].wait(30)
        texts = ["alpha", "beta", "alpha", "gamma"]
        queued = queue_behind(
            watch,
            [
                lambda text=text: submit(text, embedder.embed_queries)
                for text in texts
            ],
        )
        park.release[1].set()
        assert first.outcome() is not None
        assert all(thread.outcome() is not None for thread in queued)
        # the four embedded their three distinct texts in ONE model call
        # (the duplicate coalesces through the shared embed_key)
        assert embedder.calls == [["first"], ["alpha", "beta", "gamma"]]
        stats = batcher.stats()
        assert stats["batchedRequests"] == 4
        assert stats["batchEmbeds"] == 1

    def test_production_searcher_batches_distinct_queries(self, fast_bundle):
        """End-to-end: searches queued behind a running flush reach the
        model in one call through a real searcher."""
        from repro.search import SemanticSearcher, exact_scan

        calls = []
        searcher = SemanticSearcher(fast_bundle.code_search)
        original = type(fast_bundle.code_search).embed_many

        def counting_embed_many(model_self, texts, kind="auto"):
            calls.append(list(texts))
            return original(model_self, texts, kind)

        index = resident_index(("u", KIND_DESC))
        records = {}
        for rid in range(1, 9):
            desc = f"record about topic {rid}"
            vec = searcher.embed_description(desc)
            index.add("u", KIND_DESC, rid, vec)
            records[rid] = type("R", (), {
                "pe_id": rid, "pe_name": f"r{rid}", "description": desc,
                "description_origin": "user", "desc_embedding": vec,
            })()
        batcher = SearchBatcher()
        watch = ArrivalWatch(batcher)
        park = Park(lambda ids: [records[r] for r in ids if r in records])

        def search(query):
            return batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                current=as_is,
                k=3,
                resolve=park,
                embed_many=searcher.embed_queries,
                embed_key=(KIND_DESC, searcher.model.name, query),
                embed_text=query,
            )

        queries = ["find alpha", "find beta", "find gamma", "find delta"]
        patched = type(fast_bundle.code_search)
        patched.embed_many = counting_embed_many
        try:
            first = Submitter(lambda: search("find first"))
            first.start()
            assert park.entered[1].wait(30)
            queued = queue_behind(
                watch, [lambda q=q: search(q) for q in queries]
            )
            park.release[1].set()
            first.outcome()
            results = [thread.outcome() for thread in queued]
        finally:
            patched.embed_many = original
        assert calls == [["find first"], queries]
        assert batcher.stats()["batchEmbeds"] == 1
        for query, ranked in zip(queries, results):
            want = exact_scan(
                KIND_DESC,
                list(records.values()),
                searcher.embed_query(query),
                3,
                searcher.embed_queries,
            )
            assert pairs(ranked) == pairs(want)

    def test_batch_embed_populates_query_lru(self):
        seen = []

        def embed_many(texts):
            seen.extend(texts)
            return np.ones((len(texts), 4), dtype=np.float32)

        index = resident_index(("u", KIND_DESC))
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher()
        kwargs = dict(
            index=index,
            user="u",
            kind=KIND_DESC,
            current=as_is,
            k=1,
            resolve=lambda wanted: [record(1)],
            embed_key=("t", "q"),
            embed_text="q",
            embed_many=embed_many,
        )
        batcher.submit(**kwargs)
        assert seen == ["q"]
        batcher.submit(**kwargs)  # LRU hit: no second embed
        assert seen == ["q"]

    @pytest.mark.parametrize(
        "missing", ["embed_key", "embed_text", "embed_many"]
    )
    def test_incomplete_embed_spec_is_rejected(self, missing):
        """Without a query embedding a request must say how to embed
        its text: keyless specs would share one batch slot and serve
        every request the first one's vector."""
        index = resident_index(("u", KIND_DESC))
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher()
        spec = dict(
            embed_key=("t", "q"),
            embed_text="q",
            embed_many=lambda texts: np.ones((len(texts), 4), np.float32),
        )
        spec[missing] = None
        with pytest.raises(ValueError, match="embed"):
            batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                current=as_is,
                k=1,
                resolve=lambda wanted: [record(1)],
                **spec,
            )
        assert batcher.stats()["requests"] == 0

    def test_embed_failure_propagates_to_submitter(self):
        def embed_many(texts):
            raise RuntimeError("model down")

        index = resident_index(("u", KIND_DESC))
        index.add("u", KIND_DESC, 1, np.ones(4, np.float32))
        batcher = SearchBatcher()
        with pytest.raises(RuntimeError, match="model down"):
            batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                current=as_is,
                k=1,
                resolve=lambda wanted: [record(1)],
                embed_key=("t", "q"),
                embed_text="q",
                embed_many=embed_many,
            )

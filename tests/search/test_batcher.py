"""SearchBatcher: one direct pass per search, bitwise parity, refills.

A search ranks ids and reads no record: its callbacks are ``current``
(the freshness check around the ranking) and, on an LRU miss,
``embed_many``.  Concurrency is tested without clocks: a search is
parked on a :class:`threading.Event` inside one of them (:class:`Park`)
while another runs to its end, and only then released.  Every schedule
therefore interleaves the same way.
"""

import sys
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import NotFoundError, ValidationError
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search import (
    KIND_CODE,
    KIND_DESC,
    SearchBatcher,
    VectorIndex,
    exact_scan,
)
from tests.helpers import resident_index

#: generous bound on every wait: reached only when the code under test
#: deadlocks, never on a correct run
TIMEOUT = 30


def record(rid, vec=None):
    """A PE-shaped record: one vector serves its desc and code shards."""
    return SimpleNamespace(pe_id=rid, desc_embedding=vec, code_embedding=vec)


def pairs(ranked):
    """``(id, score)`` of :func:`exact_scan`'s ``(record, score)``
    pairs, as the batcher returns them."""
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


class Park:
    """Wraps a callback; the calls numbered in ``at`` (1-based) block
    inside it until released, holding their search mid-run.  With
    ``error`` the first call raises it once released."""

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
        if n == 1 and self.error is not None:
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
    """The submit arguments.  ``current`` is looked up per call, so a
    test may wrap it."""
    return dict(
        index=index,
        user=corpus.user,
        kind=kind,
        current=lambda rank: corpus.current(index, kind, rank),
        k=k,
        query_embedding=qvec,
        embed_many=no_embedding,
    )


def submit(batcher, index, corpus, qvec, k=5, kind=KIND_DESC):
    """``(id, score)`` pairs of one submit."""
    return batcher.submit(**protocol_kwargs(index, corpus, qvec, k, kind))


class TestSingleRequest:
    def test_lone_submit_matches_brute_force_bitwise(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        for k in (1, 5, None):
            qvec = unit(rng)
            assert submit(batcher, index, corpus, qvec, k) == corpus.reference(
                qvec, k
            )
        assert batcher.stats() == {
            "requests": 3, "batchedRequests": 0, "fallbacks": 0,
        }

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

        def broken_current(rank):
            raise NotFoundError("gone")

        kwargs = protocol_kwargs(index, corpus, unit(rng), 2)
        kwargs["current"] = broken_current
        with pytest.raises(NotFoundError):
            batcher.submit(**kwargs)

    def test_bad_k_rejected_before_queueing(self, stack):
        index, corpus, rng = stack
        batcher = SearchBatcher()
        with pytest.raises(ValidationError):
            submit(batcher, index, corpus, unit(rng), k=0)
        assert batcher.stats()["requests"] == 0


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
        # current again: the next search ranks as it stands
        assert submit(batcher, index, corpus, qvec, k=None) == got
        assert batcher.stats()["fallbacks"] == 1

    def test_a_shard_that_is_not_resident_fills_uncounted(self, stack):
        """The code shard was never filled: its first search fills it
        from the records and ranks it, and no foreign commit is
        counted."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        qvec = unit(rng)
        got = submit(batcher, index, corpus, qvec, kind=KIND_CODE)
        assert got == corpus.reference(qvec, 5)
        assert index.stats()["u/code"]["live"] == len(corpus.records)
        assert batcher.stats()["fallbacks"] == 0


def owned(corpus):
    """The corpus's records in ascending id, as every caller passes them
    to :func:`exact_scan`."""
    return [corpus.records[rid] for rid in sorted(corpus.records)]


class TestDirectPass:
    N = 6

    def parked_and_beside(self, index, corpus, rng):
        """One search parked in ``current`` while N more run to their end
        on this thread; returns the batcher, the N + 1 queries and their
        results."""
        batcher = SearchBatcher()
        park = Park(corpus.current)
        corpus.current = park
        qvecs = [unit(rng) for _ in range(self.N + 1)]
        first = Submitter(lambda: submit(batcher, index, corpus, qvecs[0]))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        beside = [submit(batcher, index, corpus, q) for q in qvecs[1:]]
        park.release[1].set()
        return batcher, qvecs, [first.outcome()] + beside

    def test_searches_beside_a_parked_one_match_single_shot(self, stack):
        """N searches served while one is parked each equal their
        lone-submit (and brute-force) result; nothing is batched."""
        index, corpus, rng = stack
        batcher, qvecs, results = self.parked_and_beside(index, corpus, rng)
        assert batcher.stats() == {
            "requests": self.N + 1, "batchedRequests": 0, "fallbacks": 0,
        }
        lone = SearchBatcher()
        for qvec, got in zip(qvecs, results):
            assert got == corpus.reference(qvec, 5)
            assert got == submit(lone, index, corpus, qvec)

    def test_each_search_costs_one_freshness_check(self, stack):
        index, corpus, rng = stack
        self.parked_and_beside(index, corpus, rng)
        assert corpus.current_calls == self.N + 1

    def test_a_failed_search_fails_only_itself(self, stack):
        """The parked search raises from ``current`` once released; the
        ones served meanwhile, and the next one, answer in full."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        park = Park(corpus.current, error=NotFoundError("gone"))
        corpus.current = park
        failing = unit(rng)
        first = Submitter(lambda: submit(batcher, index, corpus, failing))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        qvecs = [unit(rng) for _ in range(3)]
        beside = [submit(batcher, index, corpus, q) for q in qvecs]
        park.release[1].set()
        with pytest.raises(NotFoundError):
            first.outcome()
        for qvec, got in zip(qvecs, beside):
            assert got == corpus.reference(qvec, 5)
        assert submit(batcher, index, corpus, failing) == corpus.reference(
            failing, 5
        )

    def test_another_kind_is_served_beside_a_parked_search(self, stack):
        """A KIND_CODE search (no code shard yet, so it fills it) is
        served while a KIND_DESC one is parked; a first fill is no
        refill."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        park = Park(corpus.current)
        corpus.current = park
        qvec = unit(rng)
        desc = Submitter(lambda: submit(batcher, index, corpus, qvec))
        desc.start()
        assert park.entered[1].wait(TIMEOUT)
        other = submit(batcher, index, corpus, qvec, kind=KIND_CODE)
        assert other == corpus.reference(qvec, 5)
        park.release[1].set()
        assert desc.outcome() == corpus.reference(qvec, 5)
        assert batcher.stats()["fallbacks"] == 0
        assert index.stats()["u/code"]["live"] == len(corpus.records)

    def test_a_search_parked_in_current_holds_up_no_other_on_its_key(
        self, stack
    ):
        """The first search is parked inside ``current``; a second one
        on the same ``(user, kind)`` is served meanwhile, on this
        thread.  Both answer what the brute-force scan does, bitwise."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        park = Park(corpus.current)
        corpus.current = park
        first_q, second_q = unit(rng), unit(rng)
        first = Submitter(lambda: submit(batcher, index, corpus, first_q))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        second = submit(batcher, index, corpus, second_q)
        assert park.threads == [first, threading.current_thread()]
        park.release[1].set()
        for qvec, got in ((first_q, first.outcome()), (second_q, second)):
            assert got == pairs(
                exact_scan(KIND_DESC, owned(corpus), qvec, 5, no_embedding)
            )
        assert batcher.stats()["requests"] == 2

    def test_two_searches_after_one_foreign_commit_fill_once(self, tmp_path):
        """Both searches find the moved ``data_version`` before either
        refills: the first is parked on its way into the read snapshot,
        the second refills the shard and answers.  Released, the first
        finds the shard current inside its snapshot and ranks that fill:
        one owner-row scan and one counted refill for the two."""
        path = tmp_path / "reg.db"
        dao = SqliteDAO(path)
        registry = RegistryService(dao, VectorIndex())
        alice = registry.register_user("alice", "pw")
        rng = np.random.default_rng(11)

        def pe(name, vec):
            return PERecord(
                pe_id=0, pe_name=name, description=name,
                pe_code=name.encode().hex(), desc_embedding=vec,
            )

        for i in range(8):
            registry.register_pe(alice, pe(f"p{i}", unit(rng)))
        qvec = unit(rng)
        batcher = SearchBatcher()

        def search():
            return batcher.submit(
                index=registry.index,
                user=alice.user_id,
                kind=KIND_DESC,
                current=partial(
                    registry.on_current_shard, alice.user_id, KIND_DESC
                ),
                k=None,
                embed_many=no_embedding,
                query_embedding=qvec,
            )

        search()  # current: ranks the attached shard as it stands
        peer = SqliteDAO(path)
        try:
            RegistryService(peer).register_pe(alice, pe("late", qvec))
        finally:
            peer.close()
        scans = []
        owned_vectors = dao.owned_vectors

        def counted(*args):
            scans.append(args)
            return owned_vectors(*args)

        dao.owned_vectors = counted
        read_snapshot = dao.read_snapshot
        park = Park(lambda scope: scope)
        dao.read_snapshot = lambda: park(read_snapshot())
        first = Submitter(search)
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        second = search()
        park.release[1].set()
        want = exact_scan(
            KIND_DESC, registry.owned_records(alice, PERecord), qvec, None,
            no_embedding,
        )
        for got in (first.outcome(), second):
            assert got == pairs(want)
        assert want[0][0].pe_name == "late"
        assert len(scans) == 1
        assert batcher.stats()["fallbacks"] == 1
        dao.close()


class TestStress:
    THREADS = 12  # more than this host's cores
    PER_THREAD = 15

    def test_every_request_served_once_under_preemption(self, stack):
        """Many threads over two keys with a tiny switch interval: each
        submit returns its own brute-force result and the request
        counter adds up."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        qvecs = [unit(rng) for _ in range(8)]
        # the code shard is absent: its first searches fill it
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
        assert batcher.stats() == {
            "requests": self.THREADS * self.PER_THREAD,
            "batchedRequests": 0,
            "fallbacks": 0,
        }


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

    def test_a_search_parked_in_its_embed_holds_up_no_other_text(
        self, stack
    ):
        """A search parked inside its ``embed_many`` call: searches on
        other texts are served meanwhile, each embedded once in a call
        of its own text, a repeated text from the query LRU, and every
        search ranks its own text's vector."""
        index, corpus, rng = stack
        batcher = SearchBatcher()
        rows = {text: unit(rng) for text in ("alpha", "beta", "gamma")}
        calls = []

        def embed_many(texts):
            calls.append(list(texts))
            return np.stack([rows[text] for text in texts])

        park = Park(embed_many)

        def by_text(text):
            kwargs = protocol_kwargs(index, corpus, None, 5)
            kwargs.update(
                embed_key=("t", text), embed_text=text, embed_many=park
            )
            return batcher.submit(**kwargs)

        first = Submitter(lambda: by_text("alpha"))
        first.start()
        assert park.entered[1].wait(TIMEOUT)
        texts = ["beta", "gamma", "beta"]
        beside = [by_text(text) for text in texts]
        park.release[1].set()
        assert first.outcome() == corpus.reference(rows["alpha"], 5)
        for text, got in zip(texts, beside):
            assert got == corpus.reference(rows[text], 5)
        assert calls == [["beta"], ["gamma"], ["alpha"]]
        assert by_text("alpha") == corpus.reference(rows["alpha"], 5)
        assert len(calls) == 3

    def test_production_searcher_embeds_each_query_once(self, fast_bundle):
        """End-to-end through a real searcher: each distinct query
        reaches the model once, alone; a repeat is an LRU hit; every
        answer equals the exact scan."""
        from repro.search import SemanticSearcher

        calls = []
        searcher = SemanticSearcher(fast_bundle.code_search)
        original = type(fast_bundle.code_search).embed_many

        def counting_embed_many(model_self, texts, kind):
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

        def search(query):
            return batcher.submit(
                index=index,
                user="u",
                kind=KIND_DESC,
                current=as_is,
                k=3,
                embed_many=searcher.embed_queries,
                embed_key=(KIND_DESC, searcher.model.name, query),
                embed_text=query,
            )

        queries = ["find alpha", "find beta", "find alpha", "find gamma"]
        patched = type(fast_bundle.code_search)
        patched.embed_many = counting_embed_many
        try:
            results = [search(query) for query in queries]
        finally:
            patched.embed_many = original
        assert calls == [["find alpha"], ["find beta"], ["find gamma"]]
        for query, ranked in zip(queries, results):
            want = exact_scan(
                KIND_DESC,
                list(records.values()),
                searcher.embed_query(query),
                3,
                searcher.embed_queries,
            )
            assert ranked == pairs(want)

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
                embed_key=("t", "q"),
                embed_text="q",
                embed_many=embed_many,
            )

"""The vector index is fresh across connections, as the text index is.

Two servers, A and B, share one registry file, each with its own login.
The vector index is a cache of the record rows held to the text index's
rule (``test_fts_text.py::TestFreshness``): while the file's
``data_version`` is the one the index was filled at, no other connection
has committed and a server's own writes keep it in step; once it moves,
the next search drops every resident shard and refills its own from the
rows.  Pinned here, through ``LaminarServer.dispatch``:

* after each insert, revise, code change, rename, delete, bulk write and
  workflow change on A, B's semantic, code and hybrid replies equal a
  freshly opened server's, and so do B's raw rankings of every shard,
  scores bitwise — each round costs B exactly one counted refill
  (``fallbacks``);
* a revise on A reaches B (the case that once left B ranking the old
  vectors with no fallback counted);
* B's own write between A's commit and B's next search does not mark
  B's index current;
* a search parked between its freshness check and its ranking, while
  another shard's refill drops every shard, refills its own and ranks
  what a fresh server ranks;
* two inline mutants fail the suite: a peer that never refills, and a
  peer whose own write marks its index current.
"""

import json
import threading

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW
from repro.server import LaminarServer
from repro.server.v1 import _embedding_search

#: generous bound on every wait: reached only when the code under test
#: deadlocks, never on a correct run
TIMEOUT = 30

PES = 8
QUERY = "finds prime numbers in a stream"
#: each reply B must share with a fresh server
SEARCHES = [
    {"queryType": "semantic", "kind": "both", "k": 5},
    {"queryType": "code", "kind": "pe", "k": 5},
    {"queryType": "hybrid", "kind": "both", "k": 5},
]


def pe_code(i):
    return f"def p{i}(x):\n    return x + {i}\n"


def pe_body(i, description=None):
    return {
        "peCode": pe_code(i),
        "description": description or f"element {i} adds {i} to a stream",
    }


class Peer:
    """One server on the shared file, logged in as alice."""

    def __init__(self, path, models, register=False):
        self.app = LaminarServer(dao=SqliteDAO(path), models=models)
        credentials = {"userName": "alice", "password": "pw"}
        if register:
            self.app.dispatch(Request("POST", "/auth/register", credentials))
        self.token = self.app.dispatch(
            Request("POST", "/auth/login", credentials)
        ).body["token"]

    def send(self, method, route, body=None):
        reply = self.app.dispatch(
            Request(
                method, f"/v1/registry/alice/{route}", body or {},
                token=self.token,
            )
        )
        assert reply.status < 300, (method, route, reply.body)
        return reply

    def replies(self):
        """The JSON bodies of :data:`SEARCHES`."""
        return [
            json.dumps(self.send("POST", "search", {"query": QUERY, **body}).body)
            for body in SEARCHES
        ]

    def rankings(self):
        """Every shard's whole ranking of :data:`QUERY`: ``(id, raw
        score)`` pairs, which the replies round to 4 places."""
        alice = self.app.registry.get_user("alice")
        return {
            kind: [
                (rid, score)
                for score, _kind, rid in _embedding_search(
                    self.app, alice, kind, QUERY, None, None
                )
            ]
            for kind in (KIND_DESC, KIND_CODE, KIND_WORKFLOW)
        }

    def answers(self):
        return self.replies(), self.rankings()

    @property
    def fallbacks(self):
        return self.app.batcher.stats()["fallbacks"]

    def close(self):
        self.app.registry.dao.close()


def fresh_answers(path, models):
    fresh = Peer(path, models)
    try:
        return fresh.answers()
    finally:
        fresh.close()


# -- the writes A makes, each one or two commits ---------------------------
def insert(a):
    a.send("PUT", "pes/late", pe_body(90, "a late element finds primes"))
    a.send("PUT", "workflows/lateFlow", {
        "workflowCode": "late-flow", "description": "a late prime flow",
    })


def revise(a):
    reply = a.send("PUT", "pes/p3", pe_body(3, "now finds prime numbers"))
    assert reply.status == 200


def recode(a):
    """Same name, new code: a new record with a new code vector."""
    a.send("PUT", "pes/p4", {
        "peCode": "def p4(x):\n    return [n for n in x if is_prime(n)]\n",
        "description": "element 4 adds 4 to a stream",
    })


def rename(a):
    a.send("PUT", "pes/p5renamed", pe_body(5))
    a.send("DELETE", "pes/p5")


def delete(a):
    a.send("DELETE", "pes/p6")


def bulk(a):
    a.send("POST", "pes:bulk", {"items": [
        {"peName": f"bulk{i}", "peCode": f"def bulk{i}(): return {i}",
         "description": f"bulk element {i} finds primes"}
        for i in range(3)
    ]})
    a.send("POST", "workflows:bulk", {"items": [
        {"entryPoint": f"bulkFlow{i}", "workflowCode": f"bulk-flow-{i}",
         "description": f"bulk flow {i} of prime numbers"}
        for i in range(2)
    ]})


def workflow(a):
    a.send("PUT", "workflows/flow0", {
        "workflowCode": "flow-0", "description": "a flow that finds primes",
        "workflowName": "prime flow", "peIds": [1, 2],
    })


WRITES = [insert, revise, recode, rename, delete, bulk, workflow]


@pytest.fixture()
def shared(tmp_path, fast_bundle):
    """The registry file with alice's eight PEs and two workflows, A
    (which wrote them) and B opened on it afterwards."""
    path = tmp_path / "shared.db"
    a = Peer(path, fast_bundle, register=True)
    for i in range(PES):
        a.send("PUT", f"pes/p{i}", pe_body(i))
    for i in range(2):
        a.send("PUT", f"workflows/flow{i}", {
            "workflowCode": f"flow-{i}",
            "description": f"flow {i} chains stream elements",
        })
    b = Peer(path, fast_bundle)
    yield path, a, b
    b.close()
    a.close()


class TestFreshness:
    def test_b_answers_what_a_fresh_server_answers_after_every_write(
        self, shared, fast_bundle
    ):
        path, a, b = shared
        before = b.answers()
        assert before == fresh_answers(path, fast_bundle)
        for write in WRITES:
            write(a)
            counted = b.fallbacks
            got = b.answers()
            assert got == fresh_answers(path, fast_bundle), write.__name__
            assert got == a.answers(), write.__name__
            assert got != before, f"{write.__name__} moved no answer"
            # one counted refill a round: B's first search refills its own
            # shard and drops the rest, which refill uncounted
            assert b.fallbacks == counted + 1, write.__name__
            before = got

    def test_a_foreign_revise_reaches_the_peer(self, shared, fast_bundle):
        """A re-PUTs p7 with the query as its description, code
        unchanged: every server ranks it first at 1.0.  After one more
        PE on A, B refills once, not once a search."""
        path, a, b = shared
        query = {"query": QUERY, "queryType": "semantic", "kind": "pe", "k": 3}
        assert b.send("POST", "search", query).body["hits"][0]["peName"] != "p7"
        reply = a.send("PUT", "pes/p7", pe_body(7, QUERY))
        assert (reply.status, reply.body["items"][0]["revision"]) == (200, 2)
        fresh = Peer(path, fast_bundle)
        try:
            for server in (a, fresh, b):
                top = server.send("POST", "search", query).body["hits"][0]
                assert (top["peName"], top["score"]) == ("p7", 1.0)
        finally:
            fresh.close()
        assert b.fallbacks == 1
        a.send("PUT", "pes/p8", pe_body(8))
        hits = [b.send("POST", "search", query).body for _ in range(3)]
        assert hits[0] == hits[1] == hits[2]
        assert b.fallbacks == 2
        assert b.answers() == fresh_answers(path, fast_bundle)

    #: v1 search body -> the shard kinds its embedding searches rank
    CALL_SHAPES = {
        "semantic-pe": ({"queryType": "semantic", "kind": "pe"}, (KIND_DESC,)),
        "semantic-workflow": (
            {"queryType": "semantic", "kind": "workflow"},
            (KIND_WORKFLOW,),
        ),
        "semantic-both": (
            {"queryType": "semantic", "kind": "both"},
            (KIND_DESC, KIND_WORKFLOW),
        ),
        "text-pe": ({"queryType": "text", "kind": "pe"}, (KIND_DESC,)),
        "code": ({"queryType": "code", "kind": "pe"}, (KIND_CODE,)),
        "hybrid": (
            {"queryType": "hybrid", "kind": "both"},
            (KIND_DESC, KIND_WORKFLOW),
        ),
    }

    @pytest.mark.parametrize("shape", list(CALL_SHAPES))
    def test_every_embedding_call_shape_refills_after_a_foreign_commit(
        self, shared, fast_bundle, shape
    ):
        """Every search that ranks an embedding shard — semantic over
        each kind, text over ``kind=pe``, code, and hybrid's semantic
        leg — answers byte for byte what a fresh server does after A's
        commit, one search a shard, one counted refill."""
        path, a, b = shared
        body, kinds = self.CALL_SHAPES[shape]
        search = {"query": QUERY, "k": 5, **body}
        b.send("POST", "search", search)
        insert(a)
        stats = b.app.batcher.stats()
        got = b.send("POST", "search", search).body
        fresh = Peer(path, fast_bundle)
        try:
            assert got == fresh.send("POST", "search", search).body
        finally:
            fresh.close()
        assert got["hits"]
        after = b.app.batcher.stats()
        assert after["requests"] - stats["requests"] == len(kinds)
        assert after["fallbacks"] - stats["fallbacks"] == 1

    def test_its_own_write_after_a_foreign_one_still_refills(
        self, shared, fast_bundle
    ):
        """B's own commit moves no ``data_version`` and reaches B's
        index itself, but B has not seen A's commit: its next search
        must still refill."""
        path, a, b = shared
        b.answers()
        revise(a)
        b.send("PUT", "pes/own", pe_body(70, "its own prime finder"))
        assert b.answers() == fresh_answers(path, fast_bundle)

    def test_a_search_whose_shard_is_dropped_before_it_ranks_refills(
        self, shared, fast_bundle
    ):
        """A description search is parked between its freshness check
        and its ranking; A commits, and B's code search refills its own
        shard, dropping every other.  Released, the parked search finds
        its shard gone, refills it and ranks the rows as they are."""
        path, a, b = shared
        index = b.app.index
        rank = index.search_among
        entered, release = threading.Event(), threading.Event()
        calls = []

        def parked(*args):
            calls.append(args[1])
            if len(calls) == 1:
                entered.set()
                assert release.wait(TIMEOUT)
            return rank(*args)

        index.search_among = parked
        alice = b.app.registry.get_user("alice")
        result = []
        thread = threading.Thread(target=lambda: result.append(
            [(rid, s) for s, _kind, rid in _embedding_search(
                b.app, alice, KIND_DESC, QUERY, None, None)]
        ))
        thread.start()
        assert entered.wait(TIMEOUT)
        insert(a)
        code = _embedding_search(b.app, alice, KIND_CODE, QUERY, None, None)
        assert f"{alice.user_id}/{KIND_DESC}" not in index.stats()  # dropped
        release.set()
        thread.join(TIMEOUT)
        assert not thread.is_alive()
        del index.search_among
        fresh = fresh_answers(path, fast_bundle)[1]
        assert result == [fresh[KIND_DESC]]
        assert [(rid, s) for s, _kind, rid in code] == fresh[KIND_CODE]
        # the code search refilled after A's commit; the parked one only
        # because its shard was gone
        assert calls[:2] == [KIND_DESC, KIND_CODE]
        assert b.fallbacks == 1


class TestMutants:
    """Each mutant must fail :class:`TestFreshness`: under it, B answers
    what a fresh server does not."""

    def test_a_peer_that_never_refills_goes_stale(
        self, shared, fast_bundle, monkeypatch
    ):
        path, a, b = shared
        b.answers()
        monkeypatch.setattr(
            b.app.registry, "on_current_shard",
            lambda user_id, kind, rank: (rank(), False),
        )
        for write in WRITES:
            write(a)
            assert b.answers() != fresh_answers(path, fast_bundle), (
                write.__name__
            )
        assert b.fallbacks == 0

    def test_a_peer_whose_own_write_marks_it_current_goes_stale(
        self, shared, fast_bundle, monkeypatch
    ):
        path, a, b = shared
        b.answers()
        dao, index = b.app.registry.dao, b.app.index
        after_commit = dao.after_commit

        def marking(action):
            after_commit(action)
            after_commit(
                lambda: setattr(index, "version", dao.data_version())
            )

        monkeypatch.setattr(dao, "after_commit", marking)
        revise(a)
        b.send("PUT", "pes/own", pe_body(70, "its own prime finder"))
        assert b.answers() != fresh_answers(path, fast_bundle)

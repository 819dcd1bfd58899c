"""Concurrent serving through a real HTTP socket.

Parallel searches against a mutating registry must stay exact and
tenant-isolated: alice's corpus is static, so every response she gets —
whatever batch it rode in — must equal the single-shot and brute-force
results over exactly her records, while bob's thread adds and removes
records mid-flight.  Also covers the HTTP/1.1 satellite behaviours:
keep-alive connection reuse and the 400 envelope for malformed JSON.
"""

import http.client
import json
import threading

import pytest

from repro.registry.entities import PERecord
from repro.search import KIND_DESC, SemanticHit, exact_scan
from repro.server import LaminarServer
from repro.server.http import serve_http
from tests.registry.test_dao import make_pe
from tests.search.test_batcher import (
    ArrivalWatch,
    Park,
    Submitter,
    queue_behind,
)

N_ALICE = 40
SEARCH_THREADS = 6
ROUNDS = 12


@pytest.fixture()
def stack(fast_bundle):
    server = LaminarServer(models=fast_bundle)
    # embeddings must come from the server's own models so the stored
    # rows match the query embedder's dimensionality
    embed = server.semantic.embed_description
    embed_code = server.code_search.embed_code
    tokens = {}
    for name in ("alice", "bob"):
        server.registry.register_user(name, "pw")
        tokens[name] = server.issue_token(name)
    alice = server.registry.get_user("alice")
    bob = server.registry.get_user("bob")
    for i in range(N_ALICE):
        server.registry.register_pe(
            alice,
            make_pe(
                f"AlicePE{i}",
                code=f"alice:{i}".encode().hex(),
                description=f"alice element {i}",
                desc_embedding=embed(f"alice element {i}"),
                code_embedding=embed_code(f"alice:{i}"),
            ),
        )
    handle = serve_http(server)
    yield server, handle, tokens, alice, bob
    handle.shutdown()


def brute_force_json(server, query, pes, k):
    """The exact scan over exactly ``pes``, rendered as the route does."""
    semantic = server.semantic
    ranked = exact_scan(
        KIND_DESC, pes, semantic.embed_query(query), k, semantic.embed_queries
    )
    return [SemanticHit.of(record, score).to_json() for record, score in ranked]


def http_request(conn, method, path, body, token):
    payload = json.dumps(body).encode()
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    conn.request(method, path, body=payload, headers=headers)
    reply = conn.getresponse()
    return reply.status, json.loads(reply.read().decode())


class TestConcurrentSearchAgainstMutatingRegistry:
    def test_parallel_searches_stay_exact_and_isolated(self, stack):
        server, handle, tokens, alice, bob = stack
        query = "alice element"
        k = 5
        # the reference: the brute-force scan over exactly her records
        expected = brute_force_json(
            server, query, server.registry.owned_records(alice, PERecord), k
        )
        alice_names = {f"AlicePE{i}" for i in range(N_ALICE)}

        stop = threading.Event()
        errors = []

        def mutator():
            """bob adds and removes records while searches fly."""
            i = 0
            try:
                while not stop.is_set():
                    record = make_pe(
                        f"BobPE{i}",
                        code=f"bob:{i}".encode().hex(),
                        description=f"bob element {i}",
                        desc_embedding=server.semantic.embed_description(
                            f"bob element {i}"
                        ),
                    )
                    server.registry.register_pe(bob, record)
                    if i % 2:
                        registry = server.registry
                        registry.remove_pe_record(
                            bob, registry.get_by_id(bob, PERecord, record.pe_id)
                        )
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def searcher(results):
            try:
                conn = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=10
                )
                for _ in range(ROUNDS):
                    status, body = http_request(
                        conn,
                        "GET",
                        f"/registry/alice/search/{query.replace(' ', '%20')}"
                        "/type/pe",
                        {"queryType": "semantic", "k": k},
                        tokens["alice"],
                    )
                    results.append((status, body))
                conn.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        mutate_thread = threading.Thread(target=mutator)
        result_lists = [[] for _ in range(SEARCH_THREADS)]
        search_threads = [
            threading.Thread(target=searcher, args=(result_lists[i],))
            for i in range(SEARCH_THREADS)
        ]
        mutate_thread.start()
        for t in search_threads:
            t.start()
        for t in search_threads:
            t.join()
        stop.set()
        mutate_thread.join()
        assert not errors
        for results in result_lists:
            assert len(results) == ROUNDS
            for status, body in results:
                assert status == 200
                # batched == single-shot == brute force, and bob's
                # records never leak into alice's results
                assert body["hits"] == expected
                assert {h["peName"] for h in body["hits"]} <= alice_names

    def test_bob_searches_see_only_bob_records(self, stack):
        server, handle, tokens, alice, bob = stack
        for i in range(4):
            server.registry.register_pe(
                bob,
                make_pe(
                    f"BobStatic{i}",
                    code=f"bs:{i}".encode().hex(),
                    description=f"bob static {i}",
                    desc_embedding=server.semantic.embed_description(
                        f"bob static {i}"
                    ),
                ),
            )
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        status, body = http_request(
            conn,
            "GET",
            "/registry/bob/search/bob%20static/type/pe",
            {"queryType": "semantic", "k": 10},
            tokens["bob"],
        )
        conn.close()
        assert status == 200
        assert body["hits"]
        assert all(h["peName"].startswith("BobStatic") for h in body["hits"])

    def test_batcher_coalesced_requests(self, stack):
        """Searches that arrive over HTTP while a flush runs ride the
        next flush together.  Deterministic: the first search's flush is
        parked inside the DAO hydration until every other search has
        queued behind it."""
        server, handle, tokens, alice, bob = stack
        watch = ArrivalWatch(server.batcher)
        park = Park(server.registry.resolve_pes)
        server.registry.resolve_pes = park
        conns = [
            http.client.HTTPConnection(handle.host, handle.port, timeout=30)
            for _ in range(SEARCH_THREADS)
        ]

        def search(i):
            query = f"alice element {i}"
            status, body = http_request(
                conns[i],
                "GET",
                f"/registry/alice/search/alice%20element%20{i}/type/pe",
                {"queryType": "semantic", "k": 3},
                tokens["alice"],
            )
            conns[i].close()
            return query, status, body

        first = Submitter(lambda: search(0))
        first.start()
        assert park.entered[1].wait(30)
        queued = queue_behind(
            watch,
            [lambda i=i: search(i) for i in range(1, SEARCH_THREADS)],
        )
        park.release[1].set()
        pes = server.registry.owned_records(alice, PERecord)
        for thread in [first] + queued:
            query, status, body = thread.outcome()
            assert status == 200
            # batched == brute force over exactly alice's records
            assert body["hits"] == brute_force_json(server, query, pes, 3)
        stats = server.batcher.stats()
        assert stats["requests"] == SEARCH_THREADS
        assert stats["batches"] == 2
        assert stats["batchedRequests"] == SEARCH_THREADS - 1
        assert stats["batchEmbeds"] == 1
        assert stats["batchEmbeddedQueries"] == SEARCH_THREADS - 1


class TestHttp11Satellites:
    def test_malformed_json_returns_400_envelope(self, stack):
        _, handle, tokens, *_ = stack
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request(
            "POST",
            "/auth/login",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        reply = conn.getresponse()
        body = json.loads(reply.read().decode())
        assert reply.status == 400
        assert body["error"] == "BadRequest"
        assert body["code"] == 400
        assert "not valid JSON" in body["message"]
        conn.close()

    def test_non_object_json_returns_400(self, stack):
        _, handle, tokens, *_ = stack
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request(
            "POST",
            "/auth/login",
            body=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
        )
        reply = conn.getresponse()
        body = json.loads(reply.read().decode())
        assert reply.status == 400
        assert body["error"] == "BadRequest"
        conn.close()

    def test_keep_alive_reuses_one_connection(self, stack):
        server, handle, tokens, *_ = stack
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        for _ in range(3):
            status, body = http_request(
                conn, "GET", "/auth/all", {}, tokens["alice"]
            )
            assert status == 200
        # http.client raises if the server closed the connection between
        # requests; also check the handler advertises HTTP/1.1
        conn.request("GET", "/auth/all", body=b"{}",
                     headers={"Authorization": f"Bearer {tokens['alice']}"})
        reply = conn.getresponse()
        assert reply.version == 11
        reply.read()
        conn.close()

    def test_chunked_transfer_encoding_rejected(self, stack):
        """Only Content-Length framing is implemented; a chunked body
        must be rejected (and the connection closed) rather than left
        unread to desynchronize the kept-alive socket."""
        _, handle, tokens, *_ = stack
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.putrequest("POST", "/auth/login")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        body = json.dumps({"userName": "alice", "password": "pw"}).encode()
        conn.send(b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
        reply = conn.getresponse()
        payload = json.loads(reply.read().decode())
        assert reply.status == 400
        assert payload["error"] == "BadRequest"
        assert reply.headers.get("Connection") == "close"
        conn.close()

    def test_keep_alive_survives_a_400(self, stack):
        _, handle, tokens, *_ = stack
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request(
            "POST", "/auth/login", body=b"{broken",
            headers={"Content-Type": "application/json"},
        )
        reply = conn.getresponse()
        assert reply.status == 400
        reply.read()
        # same socket, next request still served
        status, _ = http_request(conn, "GET", "/auth/all", {}, tokens["alice"])
        assert status == 200
        conn.close()

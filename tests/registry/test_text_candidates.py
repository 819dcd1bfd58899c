"""Text search match sets: the BM25 index against the reference scorer.

Both API generations rank ``queryType=text`` in the DAO's FTS5 index
(``RegistryService.text_topk``).  The brute-force scorer in
:mod:`repro.search.text_search` (``text_search_records`` over the full owned
listing) is the reference: for every query here the index must match
exactly the records the reference matches, with the same ``matchedOn``
label, and never another tenant's.  Scores and order differ by design
(BM25 plus a name-substring bonus against the reference's flat
2.0/1.25/0.5 arms); the ranking itself is pinned in
``test_fts_text.py``.  The endpoint cases check the legacy Table-3
route's merged hit list: the reference's matches, by descending score,
cut at ``k``.
"""

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord
from repro.registry.service import RegistryService
from repro.search.text_search import (
    match_label,
    text_search_records,
)
from repro.server import LaminarServer
from tests.registry.test_dao import make_pe, make_wf
from tests.server.test_v1_api import seed_prime_registry

#: names/descriptions exercising camelCase, snake_case, hyphens, LIKE
#: metacharacters, unicode, punctuation inside camelCase names (where
#: FTS5's unicode61 token runs and the subtoken splitter could part
#: ways) and lookalike cross-matches
CORPUS = [
    ("isPrime", "checks whether numbers are prime"),
    ("VoTableReader", "reads a vo-table from disk"),
    ("read_ra_dec", "parse right-ascension and declination"),
    ("Percent%Escape", "literal percent_sign and under_score"),
    ("CaféReader", "reads café menus"),
    ("Plain", "nothing remarkable"),
    ("primality", "prime-adjacent naming"),
    ("foo:barBaz", "colon inside a camelCase name"),
    ("a+bCd", "plus inside a camelCase name"),
    ("naïveBayes", "a classifier"),
]

QUERIES = [
    "prime",
    "isPrime",
    "is prime",
    "vo table",
    "VoTable",
    "ra dec",
    "percent%",
    "under_score",
    "café",
    "zzz-no-match",
    "%",
    "   ",
    "e is p",  # substring only of the *normalized* expansion
    "///",  # no scorer word: the name-substring arm alone
    "bar baz",
    "foo:bar",
    "b cd",
    "naive bayes",
    "camelcase name",
]

#: a query of 100 distinct words, none of which occurs in the corpus
WIDE = " ".join(f"word{i}" for i in range(100))


def fill(dao):
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    for i, (name, description) in enumerate(CORPUS):
        service.register_pe(
            alice,
            make_pe(name, code=f"a{i}".encode().hex(), description=description),
        )
        wf = make_wf(
            f"{name}Flow", code=f"w{i}".encode().hex(), description=description
        )
        service.register_workflow(alice, wf)
    # bob's records must never appear in alice's results
    service.register_pe(
        bob, make_pe("primeBob", code="Ym9i".encode().hex(),
                     description="bob's prime element")
    )
    return service, alice, bob


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    """``memory``: the ephemeral store in-process stacks run on."""
    if request.param == "memory":
        return fill(SqliteDAO(":memory:"))
    return fill(SqliteDAO(tmp_path / "text.db"))


def ranked_records(service, user, record_type, query):
    """The BM25 path's records in rank order: ``text_topk``'s ids,
    hydrated."""
    ids = [rid for rid, _score in service.text_topk(user, record_type, query)]
    return service.resolve(user, record_type, ids)


def indexed_pes(service, user, query):
    """``{pe_id: matchedOn}`` of the BM25 path."""
    return {
        record.pe_id: match_label(query, record)
        for record in ranked_records(service, user, PERecord, query)
    }


def reference_pes(service, user, query):
    """``{pe_id: matchedOn}`` of the reference scorer over the full
    owned listing."""
    return {
        m.entity_id: m.matched_on
        for m in text_search_records(query, service.dao.pes_owned_by(user.user_id))
    }


def indexed_workflows(service, user, query):
    return {
        record.workflow_id: match_label(query, record)
        for record in ranked_records(service, user, WorkflowRecord, query)
    }


def reference_workflows(service, user, query):
    return {
        m.entity_id: m.matched_on
        for m in text_search_records(
            query, service.dao.workflows_owned_by(user.user_id)
        )
    }


class TestMatchSetParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pe_matches_equal_reference(self, backend, query):
        service, alice, _ = backend
        assert indexed_pes(service, alice, query) == reference_pes(
            service, alice, query
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_workflow_matches_equal_reference(self, backend, query):
        service, alice, _ = backend
        assert indexed_workflows(service, alice, query) == reference_workflows(
            service, alice, query
        )

    def test_corpus_is_not_degenerate(self, backend):
        """The parity cases compare real matches: most queries hit
        something, the punctuation-in-camelCase names included."""
        service, alice, _ = backend
        hit = [q for q in QUERIES if reference_pes(service, alice, q)]
        assert len(hit) >= len(QUERIES) - 3
        names = {
            record.pe_name
            for query in ("bar baz", "b cd", "naive bayes")
            for record in ranked_records(service, alice, PERecord, query)
        }
        assert names == {"foo:barBaz", "a+bCd", "naïveBayes"}

    def test_matches_stay_owner_scoped(self, backend):
        service, alice, bob = backend
        for query in ("prime", "bob", "primeBob"):
            names = {
                record.pe_name
                for record in ranked_records(service, alice, PERecord, query)
            }
            assert "primeBob" not in names
        # the DAO ranking itself is owner-joined, not just filtered on
        # hydration
        bob_ids = set(service.dao.pe_ids_owned_by(bob.user_id))
        for query in ("prime", "bob"):
            ranked = service.dao.text_topk_pes(alice.user_id, query)
            assert not bob_ids & {pe_id for pe_id, _score in ranked}
        # the record is indexed: its owner finds it
        assert [
            record.pe_name for record in ranked_records(service, bob, PERecord, "prime")
        ] == ["primeBob"]


class TestWideQueries:
    """Queries of many distinct words run on the BM25 path (one OR'd
    ``MATCH``) and still filter: no cap, no fallback to the listing."""

    def test_wide_query_without_a_real_word_matches_nothing(self, backend):
        service, alice, _ = backend
        assert service.text_topk(alice, PERecord, WIDE) == []
        assert service.text_topk(alice, WorkflowRecord, WIDE) == []

    def test_wide_query_keeps_the_real_word(self, backend):
        service, alice, _ = backend
        query = WIDE + " prime"
        got = indexed_pes(service, alice, query)
        assert got == reference_pes(service, alice, query)
        names = {
            record.pe_name
            for record in ranked_records(service, alice, PERecord, query)
        }
        assert names == {"isPrime", "primality"}


class TestEndpointParity:
    """The Table-3 text route over two registries: ``CORPUS`` and the
    "prime" tenant that ``test_v1_api.py::TestLegacyParity`` searches.
    Unbounded, it returns the reference scorer's matches in descending
    score order; with ``k`` it returns the first ``k`` of those.  That
    the route equals v1 is pinned by
    ``test_v1_api.py::TestLegacyParity::test_legacy_route_equals_v1_exact``.
    """

    @pytest.fixture(params=["corpus", "prime-seed"])
    def server(self, request, fast_bundle):
        server = LaminarServer(models=fast_bundle)
        for user in ("alice", "bob"):
            server.dispatch(
                Request(
                    "POST",
                    "/auth/register",
                    {"userName": user, "password": "pw"},
                )
            )
        token = server.dispatch(
            Request(
                "POST",
                "/auth/login",
                {"userName": "alice", "password": "pw"},
            )
        ).body["token"]
        alice = server.registry.get_user("alice")
        if request.param == "prime-seed":
            seed_prime_registry(server, token, user="alice")
            return server, alice, token
        for i, (name, description) in enumerate(CORPUS):
            server.registry.register_pe(
                alice,
                make_pe(
                    name, code=f"a{i}".encode().hex(), description=description
                ),
            )
            server.registry.register_workflow(
                alice,
                make_wf(
                    f"{name}Flow",
                    code=f"w{i}".encode().hex(),
                    description=description,
                ),
            )
        return server, alice, token

    @pytest.mark.parametrize("search_type", ["workflow", "both"])
    @pytest.mark.parametrize("query", ["prime", "vo table", "nothing", "bar baz"])
    def test_text_route_serves_reference_matches_by_score(
        self, server, search_type, query
    ):
        app, alice, token = server

        def search(**bounded):
            response = app.dispatch(
                Request(
                    "GET",
                    f"/registry/alice/search/{query}/type/{search_type}",
                    {"queryType": "text", **bounded},
                    token=token,
                )
            )
            assert response.status == 200, response.body
            assert response.body["searchKind"] == "text"
            return response.body["hits"]

        hits = search()
        expected = text_search_records(query, app.registry.owned_records(alice, WorkflowRecord))
        if search_type == "both":
            expected += text_search_records(query, app.registry.owned_records(alice, PERecord))
        assert {(h["kind"], h["id"], h["matchedOn"]) for h in hits} == {
            (m.kind, m.entity_id, m.matched_on) for m in expected
        }
        assert len(hits) == len(expected)
        if query == "prime":
            assert hits
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert search(k=2) == hits[:2]

"""SQL-side text-search candidate filtering: parity and scoping.

The DAO's ``*_owned_by_matching`` queries must return a *superset* of
every record the Python scorer would match — extra candidates are fine
(the scorer drops them), missing ones are a correctness bug — while
never crossing tenant boundaries.  The endpoint-level tests assert the
final hits are exactly the historical full-scan results.
"""

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.service import RegistryService
from repro.search.text_search import (
    candidate_patterns,
    text_search_pes,
    text_search_workflows,
)
from repro.server import LaminarServer
from tests.registry.test_dao import make_pe, make_wf

#: names/descriptions exercising camelCase, snake_case, hyphens, LIKE
#: metacharacters, unicode and lookalike cross-matches
CORPUS = [
    ("isPrime", "checks whether numbers are prime"),
    ("VoTableReader", "reads a vo-table from disk"),
    ("read_ra_dec", "parse right-ascension and declination"),
    ("Percent%Escape", "literal percent_sign and under_score"),
    ("CaféReader", "reads café menus"),
    ("Plain", "nothing remarkable"),
    ("primality", "prime-adjacent naming"),
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
]


def fill(dao):
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    for i, (name, description) in enumerate(CORPUS):
        service.add_pe(
            alice,
            make_pe(name, code=f"a{i}".encode().hex(), description=description),
        )
        wf = make_wf(
            f"{name}Flow", code=f"w{i}".encode().hex(), description=description
        )
        service.add_workflow(alice, wf)
    # bob's records must never appear in alice's candidates
    service.add_pe(
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


class TestCandidateSuperset:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pe_candidates_cover_all_scorer_matches(self, backend, query):
        service, alice, _ = backend
        full = service.dao.pes_owned_by(alice.user_id)
        expected = text_search_pes(query, full)
        candidates = service.text_candidate_pes(alice, query)
        got = text_search_pes(query, candidates)
        assert [m.to_json() for m in got] == [m.to_json() for m in expected]

    @pytest.mark.parametrize("query", QUERIES)
    def test_workflow_candidates_cover_all_scorer_matches(self, backend, query):
        service, alice, _ = backend
        full = service.dao.workflows_owned_by(alice.user_id)
        expected = text_search_workflows(query, full)
        candidates = service.text_candidate_workflows(alice, query)
        got = text_search_workflows(query, candidates)
        assert [m.to_json() for m in got] == [m.to_json() for m in expected]

    def test_candidates_stay_owner_scoped(self, backend):
        service, alice, bob = backend
        for query in ("prime", "bob"):
            names = {
                pe.pe_name for pe in service.text_candidate_pes(alice, query)
            }
            assert "primeBob" not in names

    def test_filter_reduces_materialization(self, backend):
        service, alice, _ = backend
        candidates = service.text_candidate_pes(alice, "prime")
        assert len(candidates) < len(service.dao.pes_owned_by(alice.user_id))
        assert {pe.pe_name for pe in candidates} >= {"isPrime", "primality"}

    def test_unfilterable_query_falls_back_to_full_listing(self, backend):
        service, alice, _ = backend
        assert candidate_patterns("///") is None
        full = service.dao.pes_owned_by(alice.user_id)
        got = service.text_candidate_pes(alice, "///")
        assert [pe.pe_id for pe in got] == [pe.pe_id for pe in full]


class TestPatternCap:
    """The 64-pattern LIKE cap is gone: oversized pattern sets now
    filter through chunked OR groups (``SqliteDAO._LIKE_CHUNK``)
    instead of silently degrading to the full owned listing."""

    def test_oversized_pattern_set_still_filters(self, backend):
        service, alice, _ = backend
        query = " ".join(f"word{i}" for i in range(100))
        patterns = candidate_patterns(query)
        assert patterns is not None and len(patterns) > 64
        got = service.dao.pes_owned_by_matching(alice.user_id, patterns)
        # none of the junk tokens occur in the corpus: the chunked
        # filter must prove that, not hand back everything
        assert got == []

    def test_oversized_pattern_set_keeps_matches(self, backend):
        service, alice, _ = backend
        query = " ".join(f"word{i}" for i in range(100)) + " prime"
        patterns = candidate_patterns(query)
        assert patterns is not None and len(patterns) > 64
        got = service.dao.pes_owned_by_matching(alice.user_id, patterns)
        names = {pe.pe_name for pe in got}
        # the one real token must survive whichever chunk it lands in
        assert names >= {"isPrime", "primality"}
        assert len(got) < len(service.dao.pes_owned_by(alice.user_id))


class TestEndpointParity:
    @pytest.fixture()
    def server(self, fast_bundle):
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
        for i, (name, description) in enumerate(CORPUS):
            server.registry.add_pe(
                alice,
                make_pe(
                    name, code=f"a{i}".encode().hex(), description=description
                ),
            )
            server.registry.add_workflow(
                alice,
                make_wf(
                    f"{name}Flow",
                    code=f"w{i}".encode().hex(),
                    description=description,
                ),
            )
        return server, alice, token

    @pytest.mark.parametrize("search_type", ["workflow", "both"])
    @pytest.mark.parametrize("query", ["prime", "vo table", "nothing"])
    def test_text_endpoint_matches_full_scan(self, server, search_type, query):
        app, alice, token = server
        response = app.dispatch(
            Request(
                "GET",
                f"/registry/alice/search/{query}/type/{search_type}",
                {"queryType": "text"},
                token=token,
            )
        )
        assert response.status == 200
        expected = []
        if search_type == "both":
            expected += text_search_pes(query, app.registry.user_pes(alice))
        expected += text_search_workflows(
            query, app.registry.user_workflows(alice)
        )
        if search_type == "both":
            expected.sort(key=lambda m: (-m.score, m.kind, m.entity_id))
        assert response.body["hits"] == [m.to_json() for m in expected]

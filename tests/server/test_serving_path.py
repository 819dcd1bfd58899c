"""Request-path materialization accounting for the O(k) serving path.

Wraps the DAO in a call-counting proxy and asserts the serving path's
guarantees end to end through ``/registry/{user}/search`` and the
listing endpoints:

* semantic/code search over an indexed corpus materializes at most k
  full records per request;
* listings are owner-scoped — they never touch other users' rows;
* the new serving path returns records identical to the seed's
  filter-everything-in-Python behaviour.
"""

from collections import Counter

import numpy as np
import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord
from repro.search import KIND_DESC, exact_scan
from repro.server import LaminarServer
from tests.registry.test_dao import make_pe, make_wf


class CountingDAO:
    """Transparent DAO proxy counting calls and PE-record materializations."""

    _PE_LIST_METHODS = {"pes_owned_by", "find_pe_by_name", "get_pes"}

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()
        self.pe_records_materialized = 0

    def reset(self):
        self.calls.clear()
        self.pe_records_materialized = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = attr(*args, **kwargs)
            if name in self._PE_LIST_METHODS:
                self.pe_records_materialized += len(result)
            elif name == "get_pe" and result is not None:
                self.pe_records_materialized += 1
            return result

        return wrapper


@pytest.fixture()
def setup(fast_bundle):
    dao = CountingDAO(SqliteDAO())
    server = LaminarServer(dao=dao, models=fast_bundle)
    tokens = {}
    for user_name in ("alice", "bob"):
        server.dispatch(
            Request(
                "POST",
                "/auth/register",
                {"userName": user_name, "password": "pw"},
            )
        )
        tokens[user_name] = server.dispatch(
            Request(
                "POST",
                "/auth/login",
                {"userName": user_name, "password": "pw"},
            )
        ).body["token"]
    for user_name in ("alice", "bob"):
        for i in range(8):
            response = server.dispatch(
                Request(
                    "POST",
                    f"/registry/{user_name}/pe/add",
                    {
                        "peName": f"{user_name.title()}PE{i}",
                        "peCode": f"{user_name}-{i}".encode().hex(),
                        "description": f"{user_name} element number {i}",
                        "peSource": f"class PE{i}:\n    x = {i}\n",
                    },
                    token=tokens[user_name],
                )
            )
            assert response.status == 201
        response = server.dispatch(
            Request(
                "POST",
                f"/registry/{user_name}/workflow/add",
                {
                    "entryPoint": f"{user_name}Flow",
                    "workflowCode": f"wf-{user_name}".encode().hex(),
                    "description": f"workflow of {user_name}",
                },
                token=tokens[user_name],
            )
        )
        assert response.status == 201
    dao.reset()
    return server, dao, tokens


def search(server, token, user="alice", query="element", query_type="semantic",
           search_type="pe", k=2):
    response = server.dispatch(
        Request(
            "GET",
            f"/registry/{user}/search/{query}/type/{search_type}",
            {"queryType": query_type, "k": k},
            token=token,
        )
    )
    assert response.status == 200
    return response.body["hits"]


class TestSearchMaterializesAtMostK:
    def test_semantic_search_materializes_k_records(self, setup):
        server, dao, tokens = setup
        k = 2
        hits = search(server, tokens["alice"], k=k)
        assert len(hits) == k
        assert dao.pe_records_materialized <= k

    def test_code_search_materializes_k_records(self, setup):
        server, dao, tokens = setup
        k = 3
        hits = search(
            server, tokens["alice"], query="x = 5", query_type="code", k=k
        )
        assert len(hits) == k
        assert dao.pe_records_materialized <= k

    def test_k_of_one(self, setup):
        server, dao, tokens = setup
        hits = search(server, tokens["alice"], k=1)
        assert len(hits) == 1
        assert dao.pe_records_materialized <= 1

    def test_search_without_k_materializes_only_own_rows(self, setup):
        """Unbounded k ranks everything but still only hydrates the
        user's records, never the other users' half of the registry."""
        server, dao, tokens = setup
        response = server.dispatch(
            Request(
                "GET",
                "/registry/alice/search/element/type/pe",
                {"queryType": "semantic"},
                token=tokens["alice"],
            )
        )
        assert response.status == 200
        assert len(response.body["hits"]) == 8
        assert dao.pe_records_materialized <= 8

    def test_results_identical_to_brute_force(self, setup):
        server, dao, tokens = setup
        alice = server.registry.get_user("alice")
        hits = search(server, tokens["alice"], k=4)
        brute = exact_scan(
            KIND_DESC,
            server.registry.owned_records(alice, PERecord),
            server.semantic.embed_query("element"),
            4,
            server.semantic.embed_queries,
        )
        assert [h["peId"] for h in hits] == [r.pe_id for r, _ in brute]
        assert [h["score"] for h in hits] == [round(s, 4) for _, s in brute]


class TestListingsAreOwnerScoped:
    def test_pe_listing_touches_only_own_rows(self, setup):
        server, dao, tokens = setup
        response = server.dispatch(
            Request("GET", "/registry/alice/pe/all", token=tokens["alice"])
        )
        assert response.status == 200
        assert len(response.body["pes"]) == 8
        # exactly alice's 8 records — bob's rows were never deserialized
        assert dao.pe_records_materialized == 8

    def test_registry_all_touches_only_own_rows(self, setup):
        server, dao, tokens = setup
        response = server.dispatch(
            Request("GET", "/registry/alice/all", token=tokens["alice"])
        )
        assert response.status == 200
        assert dao.pe_records_materialized == 8

    def test_listing_parity_with_seed_behaviour(self, setup):
        server, dao, tokens = setup
        alice = server.registry.get_user("alice")
        scoped = server.registry.owned_records(alice, PERecord)
        legacy = [
            r for r in server.registry.dao.get_pes(range(1, 64))
            if alice.user_id in r.owners
        ]
        assert [r.to_json() for r in scoped] == [r.to_json() for r in legacy]
        wf_scoped = server.registry.owned_records(alice, WorkflowRecord)
        wf_legacy = [
            r for r in server.registry.dao.get_workflows(range(1, 64))
            if alice.user_id in r.owners
        ]
        assert [r.to_json() for r in wf_scoped] == [
            r.to_json() for r in wf_legacy
        ]


class TestBothKindsMergeOnRawScores:
    """``kind=both`` merges its PE and workflow hits on the raw cosine,
    not on the 4-dp score the JSON shows."""

    @pytest.mark.parametrize("route", ["v1", "table3"])
    def test_cross_kind_near_tie_ranks_the_higher_raw_score(
        self, fast_bundle, route
    ):
        """A PE at cosine 0.81236 and a workflow at 0.81239 both show
        0.8124: ``k=1`` returns the workflow, the hit hybrid's semantic
        leg ranks first."""
        server = LaminarServer(models=fast_bundle)
        server.registry.register_user("u", "pw")
        token = server.issue_token("u")
        user = server.registry.get_user("u")
        dim = server.semantic.model.dim

        def at_cosine(cosine, axis):
            vec = np.zeros(dim, dtype=np.float32)
            vec[0] = cosine
            vec[axis] = np.sqrt(1.0 - cosine * cosine)
            return vec

        server.registry.register_pe(
            user, make_pe("Near", desc_embedding=at_cosine(0.81236, 1))
        )
        workflow = make_wf("nearer", description="nearer")
        workflow.desc_embedding = at_cosine(0.81239, 2)
        stored, _ = server.registry.register_workflow(user, workflow)
        query = [1.0] + [0.0] * (dim - 1)
        fields = {"queryType": "semantic", "k": 1, "queryEmbedding": query}
        if route == "v1":
            request = Request(
                "POST",
                "/v1/registry/u/search",
                {"query": "near", "kind": "both", **fields},
                token=token,
            )
        else:
            request = Request(
                "GET", "/registry/u/search/near/type/both", fields, token=token
            )
        reply = server.dispatch(request)
        assert reply.status == 200, reply.body
        assert reply.body["hits"] == [
            {
                "workflowId": stored.workflow_id,
                "entryPoint": "nearer",
                "description": "nearer",
                "score": 0.8124,
            }
        ]
        hybrid = server.dispatch(
            Request(
                "POST",
                "/v1/registry/u/search",
                {
                    "query": "near",
                    "kind": "both",
                    "queryType": "hybrid",
                    "queryEmbedding": query,
                },
                token=token,
            )
        )
        assert hybrid.status == 200, hybrid.body
        [leader] = [h for h in hybrid.body["hits"] if h["semanticRank"] == 1]
        assert (leader["kind"], leader["id"]) == ("workflow", stored.workflow_id)

"""Every search ranks ids, cuts them to k, then hydrates only the hits.

``execute_search`` reads records in one place (``v1._hydrate``), after
every ranking is merged or fused and cut.  Its responses must equal, byte
for byte, those of the older design kept here as :func:`reference_search`:
each leg hydrated all of its rows as it ranked them (the semantic shards
through the batcher's own ``resolve`` join, the text ranking through the
service's record join), and hybrid labelled its text leg before fusing.
The reference replaces ``execute_search`` for one dispatch, so both API
generations, every ``queryType`` x ``kind``, a bounded and an unbounded
``k`` and a cursor page go through the same controllers either way.
"""

import json
import threading
from functools import partial

import numpy as np
import pytest

from repro.net.transport import Request
from repro.registry.entities import RECORD_KINDS, SHARD_KINDS
from repro.search.code_search import CodeHit
from repro.search.fusion import rrf_fuse
from repro.search.index import KIND_CODE, KIND_DESC
from repro.search.semantic import SemanticHit, WorkflowSemanticHit
from repro.search.text_search import TextMatch, match_label
from repro.server import LaminarServer
from repro.server import v1
from repro.server.schema import INT64_MAX

#: generous bound on every wait: reached only when the code under test
#: deadlocks, never on a correct run
TIMEOUT = 30

QUERIES = ("adds numbers to a stream", "prime")
QUERY_TYPES = ("semantic", "text", "code", "hybrid")
KINDS = ("pe", "workflow", "both")


# ----------------------------------------------------------------------
# The reference: every leg hydrated as it ranks
# ----------------------------------------------------------------------
def _leg_records(app, user, kind, query, k, query_embedding):
    """``(record, score)`` pairs of one shard, hydrated before any
    merge: the ranked ids joined to ``resolve_{kind}s``' records."""
    searcher = app.code_search if kind == KIND_CODE else app.semantic
    spec = RECORD_KINDS[SHARD_KINDS[kind].record_type]
    ranked = app.batcher.submit(
        index=app.index,
        user=user.user_id,
        kind=kind,
        current=partial(app.registry.on_current_shard, user.user_id, kind),
        k=k,
        embed_many=searcher.embed_queries,
        query_embedding=query_embedding,
        embed_key=(
            KIND_CODE if kind == KIND_CODE else KIND_DESC,
            searcher.model.name,
            query,
        ),
        embed_text=query,
    )
    resolve = getattr(app.registry, f"resolve_{spec.kind}s")
    by_id = {
        getattr(record, spec.id_field): record
        for record in resolve(user, [rid for rid, _ in ranked])
    }
    return [(by_id[rid], score) for rid, score in ranked if rid in by_id]


def _kinds(kind):
    return [
        (record_type, spec)
        for record_type, spec in RECORD_KINDS.items()
        if kind in (spec.kind, "both")
    ]


def _semantic_rows(app, user, kind, query, k, query_embedding):
    rows = [
        (score, spec.kind, getattr(record, spec.id_field), record)
        for _type, spec in _kinds(kind)
        for record, score in _leg_records(
            app, user, spec.shards[0], query, k, query_embedding
        )
    ]
    rows.sort(key=lambda row: (-row[0], row[1], row[2]))
    return rows if k is None else rows[:k]


def _text_matches(app, user, kind, query, k):
    matches = []
    for record_type, spec in _kinds(kind):
        ranked = app.registry.text_topk(user, record_type, query, k)
        by_id = {
            getattr(record, spec.id_field): record
            for record in app.registry.resolve(
                user, record_type, [rid for rid, _ in ranked]
            )
        }
        matches += [
            TextMatch.of(by_id[rid], match_label(query, by_id[rid]), score)
            for rid, score in ranked
            if rid in by_id
        ]
    matches.sort(key=lambda m: (-m.score, m.kind, m.entity_id))
    return matches if k is None else matches[:k]


def _hybrid_hits(app, user, req, query_embedding):
    k = req.k
    depth = None if k is None else min(max(2 * k, k + 50), INT64_MAX)
    text = _text_matches(app, user, req.kind, req.query, depth)
    semantic = _semantic_rows(
        app, user, req.kind, req.query, depth, query_embedding
    )
    by_key = {}
    for m in text:
        by_key.setdefault((m.kind, m.entity_id), {})["text"] = m
    for score, kind, rid, record in semantic:
        by_key.setdefault((kind, rid), {})["semantic"] = (score, record)
    fused = rrf_fuse([
        [(m.kind, m.entity_id) for m in text],
        [(kind, rid) for _score, kind, rid, _record in semantic],
    ])
    if k is not None:
        fused = fused[:k]
    hits = []
    for key, score, (text_rank, semantic_rank) in fused:
        text_hit = by_key[key].get("text")
        sem_hit = by_key[key].get("semantic")
        if text_hit is not None:
            name, description = text_hit.name, text_hit.description
        else:
            record = sem_hit[1]
            name = getattr(record, RECORD_KINDS[type(record)].name_field)
            description = record.description
        hits.append({
            "kind": key[0],
            "id": key[1],
            "name": name,
            "description": description,
            "score": round(score, 6),
            "textRank": text_rank,
            "semanticRank": semantic_rank,
            "textScore": (
                round(text_hit.score, 4) if text_hit is not None else None
            ),
            "semanticScore": (
                round(sem_hit[0], 4) if sem_hit is not None else None
            ),
        })
    return hits


def reference_search(app, user, req):
    """``execute_search`` with every leg hydrated before the cut."""
    k, query = req.k, req.query
    query_embedding = req.query_embedding
    if query_embedding is not None:
        query_embedding = np.asarray(query_embedding, dtype=np.float32)
    if req.query_type == "code":
        return "code", [
            CodeHit.of(record, score, query).to_json()
            for record, score in _leg_records(
                app, user, KIND_CODE, query, k, query_embedding
            )
        ]
    if req.query_type == "hybrid":
        return "hybrid", _hybrid_hits(app, user, req, query_embedding)
    if req.query_type == "semantic" or req.kind == "pe":
        return "semantic", [
            (SemanticHit if kind == "pe" else WorkflowSemanticHit)
            .of(record, score)
            .to_json()
            for score, kind, _rid, record in _semantic_rows(
                app, user, req.kind, query, k, query_embedding
            )
        ]
    return "text", [
        m.to_json() for m in _text_matches(app, user, req.kind, query, k)
    ]


# ----------------------------------------------------------------------
# The fixture: PEs and workflows of one tenant, and another's
# ----------------------------------------------------------------------
#: (name, description) stems the records cycle through: rankings by
#: words and by embedding disagree on them
PE_STEMS = (
    ("isPrime", "checks whether numbers are prime"),
    ("addStream", "adds numbers to a stream"),
    ("filterReadings", "filters a stream of sensor readings"),
    ("primeSieve", "a prime sieve over a stream of numbers"),
    ("sortTotals", "sorts numbers and adds their totals"),
)
WORKFLOW_STEMS = (
    ("primeFlow", "streams numbers through a prime check"),
    # a PE's description word for word: equal semantic scores across
    # record kinds, which the merge orders by kind
    ("addFlow", "adds numbers to a stream"),
    ("readingsFlow", "collects readings"),
)


@pytest.fixture(scope="module")
def served(fast_bundle):
    app = LaminarServer(models=fast_bundle)
    tokens = {}
    for user, pes, workflows in (("u", 14, 6), ("v", 4, 2)):
        credentials = {"userName": user, "password": "pw"}
        app.dispatch(Request("POST", "/auth/register", credentials))
        tokens[user] = app.dispatch(
            Request("POST", "/auth/login", credentials)
        ).body["token"]
        for i in range(pes):
            name, description = PE_STEMS[i % len(PE_STEMS)]
            reply = app.dispatch(Request(
                "PUT",
                f"/v1/registry/{user}/pes/{user}{name}{i}",
                {
                    "peCode": f"def {name}{i}(x):\n    return x + {i}\n",
                    "description": description
                    + ("" if i < len(PE_STEMS) else f" in step {i}"),
                },
                token=tokens[user],
            ))
            assert reply.status == 201, reply.body
        for i in range(workflows):
            name, description = WORKFLOW_STEMS[i % len(WORKFLOW_STEMS)]
            reply = app.dispatch(Request(
                "PUT",
                f"/v1/registry/{user}/workflows/{user}{name}{i}",
                {"workflowCode": f"flow-{user}-{i}",
                 "description": description},
                token=tokens[user],
            ))
            assert reply.status == 201, reply.body
    return app, tokens["u"]


def both_ways(app, monkeypatch, request):
    """``(body now, body from the reference)`` of one dispatch, each as
    the JSON bytes a client would read."""
    now = app.dispatch(request)
    with monkeypatch.context() as patch:
        patch.setattr(v1, "execute_search", reference_search)
        then = app.dispatch(request)
    assert now.status == then.status == 200, (now.body, then.body)
    return json.dumps(now.body), json.dumps(then.body)


def v1_search(token, body):
    return Request("POST", "/v1/registry/u/search", body, token=token)


@pytest.mark.parametrize("k", [3, None])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("query_type", QUERY_TYPES)
@pytest.mark.parametrize("query", QUERIES)
def test_v1_responses_equal_the_reference(
    served, monkeypatch, query, query_type, kind, k
):
    app, token = served
    body = {"query": query, "queryType": query_type, "kind": kind}
    if k is not None:
        body["k"] = k
    now, then = both_ways(app, monkeypatch, v1_search(token, body))
    assert now == then
    assert json.loads(now)["hits"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("query_type", ["semantic", "text", "code"])
@pytest.mark.parametrize("query", QUERIES)
def test_table3_responses_equal_the_reference(
    served, monkeypatch, query, query_type, kind
):
    app, token = served
    request = Request(
        "GET",
        f"/registry/u/search/{query.replace(' ', '%20')}/type/{kind}",
        {"queryType": query_type, "k": 4},
        token=token,
    )
    now, then = both_ways(app, monkeypatch, request)
    assert now == then


@pytest.mark.parametrize("k", [None, 9])
@pytest.mark.parametrize("query_type", QUERY_TYPES)
def test_a_cursor_page_equals_the_reference(
    served, monkeypatch, query_type, k
):
    """The second page of a walk, over an unbounded ranking (capped at
    the page's end) and over a bounded one."""
    app, token = served
    body = {"query": QUERIES[0], "queryType": query_type, "kind": "both",
            "limit": 3}
    if k is not None:
        body["k"] = k
    first = app.dispatch(v1_search(token, body)).body
    assert first["nextCursor"]
    request = v1_search(token, {**body, "cursor": first["nextCursor"]})
    now, then = both_ways(app, monkeypatch, request)
    assert now == then
    assert json.loads(now)["hits"]


def count_hydration(app, monkeypatch):
    """Per ``resolve_{kind}s`` call, the ids it was given."""
    calls = []
    for kind in ("pe", "workflow"):
        name = f"resolve_{kind}s"
        real = getattr(app.registry, name)

        def counted(user, ids, real=real, kind=kind):
            calls.append((kind, list(ids)))
            return real(user, ids)

        monkeypatch.setattr(app.registry, name, counted)
    return calls


@pytest.mark.parametrize("query_type", QUERY_TYPES)
def test_only_the_returned_hits_are_hydrated(
    served, monkeypatch, query_type
):
    """One ``resolve_{kind}s`` call per record kind among the hits, of
    exactly the hits' ids; ``matchedOn`` labels only for text hits."""
    app, token = served
    calls = count_hydration(app, monkeypatch)
    labels = []
    monkeypatch.setattr(
        v1, "match_label", lambda query, record: labels.append(1) or "name"
    )
    kind = "pe" if query_type == "code" else "both"
    hits = app.dispatch(v1_search(token, {
        "query": QUERIES[0], "queryType": query_type, "kind": kind, "k": 5,
    })).body["hits"]
    assert len(hits) == 5
    hydrated = [(kind_, rid) for kind_, ids in calls for rid in ids]
    assert len({kind_ for kind_, _ in calls}) == len(calls)
    assert sorted(hydrated) == sorted(hit_key(hit) for hit in hits)
    assert len(labels) == (5 if query_type == "text" else 0)


def hit_key(hit):
    """``(kind, id)`` of a rendered hit of any query type."""
    if "kind" in hit:
        return hit["kind"], hit["id"]
    if "workflowId" in hit:
        return "workflow", hit["workflowId"]
    return "pe", hit["peId"]


def test_an_id_gone_before_hydration_is_skipped(served, monkeypatch):
    """A ranked id whose record vanished before the one hydration is
    left out; the other hits keep their order."""
    app, token = served
    body = {"query": QUERIES[0], "queryType": "semantic", "kind": "pe",
            "k": 5}
    full = app.dispatch(v1_search(token, body)).body["hits"]
    real = app.registry.resolve_pes
    monkeypatch.setattr(
        app.registry, "resolve_pes", lambda user, ids: real(user, ids[1:])
    )
    hits = app.dispatch(v1_search(token, body)).body["hits"]
    assert hits == full[1:]


def test_a_search_parked_at_its_hydration_holds_up_no_other(
    served, monkeypatch
):
    """A search parked inside ``resolve_pes`` — ranked, not yet read —
    while another search is served to its end on this thread; released,
    it answers what it answers alone."""
    app, token = served
    semantic = {"query": QUERIES[0], "queryType": "semantic", "kind": "pe",
                "k": 4}
    code = {**semantic, "queryType": "code"}
    alone = [
        app.dispatch(v1_search(token, body)).body for body in (semantic, code)
    ]
    real = app.registry.resolve_pes
    entered, release = threading.Event(), threading.Event()
    parked = []

    def park(user, ids):
        if not parked:
            parked.append(threading.current_thread())
            entered.set()
            assert release.wait(TIMEOUT)
        return real(user, ids)

    monkeypatch.setattr(app.registry, "resolve_pes", park)
    result = []
    thread = threading.Thread(
        target=lambda: result.append(
            app.dispatch(v1_search(token, semantic)).body
        )
    )
    thread.start()
    assert entered.wait(TIMEOUT)
    beside = app.dispatch(v1_search(token, code)).body
    release.set()
    thread.join(TIMEOUT)
    assert not thread.is_alive()
    assert parked == [thread]
    assert [result[0], beside] == alone

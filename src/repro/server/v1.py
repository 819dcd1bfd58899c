"""The versioned ``/v1/`` API surface (typed envelopes, cursors).

Two pieces live here:

* :func:`execute_search` — the single search core behind **both** API
  generations.  It receives an already validated
  :class:`~repro.server.schema.SearchRequest` and runs the paper's
  text/semantic/code/hybrid branches over the exact index.  Every
  branch ranks to ``(score, kind, id)`` rows (each embedding shard
  through :func:`_embedding_search`, ``(id, score)`` pairs from
  ``SearchBatcher.submit``; text through the DAO's BM25 index);
  ``kind=both`` merges PE and workflow rows on the raw score, hybrid
  RRF-fuses its two legs, and the rows are cut to ``k`` before any
  record is read.  :func:`_hydrate` then reads the survivors — one
  ``resolve_{kind}s`` call per record kind, the only place a search
  hydrates — and the hits are rendered from them.
  The legacy Table-3 route (``GET /registry/{user}/search/...``) is a
  thin adapter that builds a ``SearchRequest`` (always
  ``backend="exact"``) and re-shapes the result into the historical
  ``{"searchKind", "hits"}`` body; its hits equal v1's field for
  field, text included (one BM25 ranker serves both).
* :class:`V1Controller` — handlers for the ``/v1/`` route table:
  cursor-paginated listings (users, PEs, workflows, a workflow's PEs)
  and the unified ``POST /v1/registry/{user}/search`` accepting
  ``kind``/``queryType``/``backend``/``k``/``limit``/``cursor`` in one
  strict envelope.

Listing cursors mark an ascending-id position (see
:mod:`repro.server.schema`): concurrent inserts only ever append higher
ids, so a paginated walk never skips or repeats a pre-existing record.
Search "cursors" page over one ranked snapshot by offset — ranking runs
per request, so they are best-effort under concurrent mutation (the
invariant listings guarantee cannot hold for similarity-ordered
results).
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.net.transport import Request, Response
from repro.registry.entities import (
    RECORD_CLASSES,
    RECORD_KINDS,
    SHARD_KINDS,
    UserRecord,
)
from repro.search.code_search import CodeHit
from repro.search.fusion import rrf_fuse
from repro.search.index import KIND_CODE, KIND_DESC
from repro.search.semantic import SemanticHit, WorkflowSemanticHit
from repro.search.text_search import TextMatch, match_label
from repro.server.controllers import BaseController
from repro.server.schema import (
    BACKENDS,
    DEFAULT_LIMIT,
    INT64_MAX,
    PAGE,
    Page,
    SearchRequest,
    SearchResponse,
    check_embedding_dim,
    decode_cursor,
    encode_cursor,
    paginate_ids,
    parse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.app import LaminarServer


#: one ranked search result before hydration: ``(score, record kind,
#: id)`` — all a search needs to merge, fuse and cut to ``k``
Row = tuple[float, str, int]

#: the semantic hit class of each record kind
_SEMANTIC_HITS = {"pe": SemanticHit, "workflow": WorkflowSemanticHit}


def execute_search(
    app: "LaminarServer",
    user: UserRecord,
    req: SearchRequest,
) -> tuple[str, list[dict]]:
    """Run one registry search; returns ``(search_kind, hits_json)``.

    Every branch ranks to :data:`Row` s and reads no record: the
    embedding branches one shard per ``(user, kind)`` through
    :func:`_embedding_search` (one direct pass over the exact index:
    embed the query unless the LRU holds it, rank on the shard once it
    is current with the store), ``queryType=text`` in the DAO's
    FTS5/BM25 inverted index, and ``queryType=hybrid`` RRF-fuses those
    two rankings.  The rows are merged (or fused) and cut to ``k`` on
    ids alone; only the survivors are read, at the one hydration site
    (:func:`_hydrate`), and then rendered.
    Both API generations share this decision tree — including the
    historical quirk that ``queryType=text`` over ``kind=pe`` serves
    *semantic* ranking.
    """
    k = req.k
    query = req.query
    query_embedding = req.query_embedding
    if query_embedding is not None:
        query_embedding = np.asarray(query_embedding, dtype=np.float32)

    if req.query_type == "code":
        rows = _embedding_search(app, user, KIND_CODE, query, k, query_embedding)
        search_kind, render = "code", (
            lambda record, row: CodeHit.of(record, row[0], query).to_json()
        )
    elif req.query_type == "hybrid":
        search_kind = "hybrid"
        rows, render = _hybrid(app, user, req, query_embedding)
    elif req.query_type == "semantic" or req.kind == "pe":
        # semantic is the §8 extension over PEs and/or workflows; text
        # over kind=pe is the historical quirk that serves *semantic*
        # ranking (identical on both API generations)
        rows = _semantic_rows(app, user, req.kind, query, k, query_embedding)
        search_kind, render = "semantic", (
            lambda record, row: _SEMANTIC_HITS[row[1]].of(record, row[0]).to_json()
        )
    else:
        # indexed text: ranked inside the DAO's inverted index
        # (BM25 + whole-query name-substring bonus)
        rows = _text_rows(app.registry, user, req.kind, query, k)
        search_kind, render = "text", (
            lambda record, row: TextMatch.of(
                record, match_label(query, record), row[0]
            ).to_json()
        )
    records = _hydrate(app.registry, user, rows)
    return search_kind, [
        render(records[row[1:]], row) for row in rows if row[1:] in records
    ]


def _hydrate(registry, user: UserRecord, rows: list[Row]) -> dict:
    """The one place a search reads records: ``rows``' records by
    ``(kind, id)``, one ``resolve_{kind}s`` call per record kind that
    has a row.  Ids that vanished or changed hands since ranking are
    absent, so the response is slightly under-filled rather than
    wrong."""
    records = {}
    for spec in RECORD_KINDS.values():
        ids = [rid for _score, kind, rid in rows if kind == spec.kind]
        if ids:
            # the service's per-kind entry, looked up when called
            resolve = getattr(registry, f"resolve_{spec.kind}s")
            for record in resolve(user, ids):
                records[spec.kind, getattr(record, spec.id_field)] = record
    return records


def _embedding_search(
    app: "LaminarServer",
    user: UserRecord,
    kind: str,
    query: str,
    k: int | None,
    query_embedding: np.ndarray | None,
) -> list[Row]:
    """The rows, best first, of one search over ``user``'s ``kind``
    shard (:meth:`SearchBatcher.submit
    <repro.search.serving.SearchBatcher.submit>`)."""
    searcher = app.code_search if kind == KIND_CODE else app.semantic
    record_kind = RECORD_KINDS[SHARD_KINDS[kind].record_type].kind
    ranked = app.batcher.submit(
        index=app.index,
        user=user.user_id,
        kind=kind,
        current=partial(app.registry.on_current_shard, user.user_id, kind),
        k=k,
        embed_many=searcher.embed_queries,
        query_embedding=query_embedding,
        # PE and workflow descriptions share one query vector per text
        embed_key=(
            KIND_CODE if kind == KIND_CODE else KIND_DESC,
            searcher.model.name,
            query,
        ),
        embed_text=query,
    )
    return [(score, record_kind, rid) for rid, score in ranked]


def _merged(kind: str, k: int | None, leg) -> list[Row]:
    """``leg(record_type, spec)``'s rows for each record kind a search
    over ``kind`` (``pe``, ``workflow`` or ``both``) visits, merged on
    the raw score with ties by kind then id, and cut to ``k``."""
    rows = sorted(
        (
            row
            for record_type, spec in RECORD_KINDS.items()
            if kind in (spec.kind, "both")
            for row in leg(record_type, spec)
        ),
        key=lambda row: (-row[0], row[1], row[2]),
    )
    return rows if k is None else rows[:k]


def _semantic_rows(
    app: "LaminarServer",
    user: UserRecord,
    kind: str,
    query: str,
    k: int | None,
    query_embedding: np.ndarray | None,
) -> list[Row]:
    """Semantic rows over ``kind``, each record kind ranked on its
    description shard."""
    return _merged(kind, k, lambda _type, spec: _embedding_search(
        app, user, spec.shards[0], query, k, query_embedding
    ))


def _text_rows(
    registry, user: UserRecord, kind: str, query: str, k: int | None
) -> list[Row]:
    """FTS-ranked rows over ``kind``, scored by the DAO."""
    return _merged(kind, k, lambda record_type, spec: [
        (score, spec.kind, rid)
        for rid, score in registry.text_topk(user, record_type, query, k)
    ])


def check_embedding_width(app: "LaminarServer", req: SearchRequest) -> None:
    """400 unless ``req.query_embedding`` (if any) is as wide as the
    model that ranks ``req.query_type`` — the edge check the schema
    cannot make, since it does not know the serving model's width."""
    model = (
        app.code_search.model
        if req.query_type == "code"
        else app.semantic.model
    )
    check_embedding_dim("queryEmbedding", req.query_embedding, model.dim)


def _hybrid(
    app: "LaminarServer",
    user: UserRecord,
    req: SearchRequest,
    query_embedding,
):
    """``queryType=hybrid``: the fused rows and their renderer.

    Both legs rank to depth ``max(2k, k+50)`` (unbounded when ``k`` is
    ``None``) so the fusion sees well past the final cut, then
    :func:`~repro.search.fusion.rrf_fuse` merges them deterministically
    — given the two leg rankings the fused ordering is bitwise-stable.
    The text leg is the *real* BM25 ranking even for ``kind=pe`` (the
    text-route quirk is a ``queryType=text`` compatibility artifact;
    hybrid is new surface and fuses what it says it fuses).  A row's
    score is the fused one; each leg's rank and score ride in the
    renderer.
    """
    k = req.k
    # past SQLite's 64-bit LIMIT a depth ranks everything, as None does
    depth = None if k is None else min(max(2 * k, k + 50), INT64_MAX)
    # each leg's scores by (kind, id), in its rank order
    legs = [
        {row[1:]: row[0] for row in rows}
        for rows in (
            _text_rows(app.registry, user, req.kind, req.query, depth),
            _semantic_rows(
                app, user, req.kind, req.query, depth, query_embedding
            ),
        )
    ]
    fused = rrf_fuse([list(leg) for leg in legs])
    if k is not None:
        fused = fused[:k]
    ranks = {key: leg_ranks for key, _score, leg_ranks in fused}

    def render(record, row: Row) -> dict:
        score, kind, rid = row
        text_score, semantic_score = (leg.get((kind, rid)) for leg in legs)
        return {
            "kind": kind,
            "id": rid,
            "name": getattr(record, RECORD_KINDS[type(record)].name_field),
            "description": record.description,
            "score": round(score, 6),
            "textRank": ranks[kind, rid][0],
            "semanticRank": ranks[kind, rid][1],
            "textScore": (
                round(text_score, 4) if text_score is not None else None
            ),
            "semanticScore": (
                round(semantic_score, 4) if semantic_score is not None else None
            ),
        }

    return [(score, *key) for key, score, _ranks in fused], render


class V1Controller(BaseController):
    """Handlers behind the ``/v1/`` route table."""

    # ------------------------------------------------------------------
    # Listings (cursor-paginated, ascending id)
    # ------------------------------------------------------------------
    def list_users(self, request: Request, params: dict[str, str]) -> Response:
        # parity with the legacy /auth/all listing: no auth required
        page = parse(PAGE, request.body, "listing request")
        limit = page["limit"] or DEFAULT_LIMIT
        users = self.app.registry.all_users()
        page_ids, next_cursor = paginate_ids(
            [user.user_id for user in users],
            scope="users",
            limit=limit,
            cursor=page["cursor"],
        )
        by_id = {user.user_id: user for user in users}
        items = [by_id[user_id].to_json() for user_id in page_ids]
        return Response(200, Page(items, limit, next_cursor).to_json())

    def list_records(
        self, kind: str, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        page = parse(PAGE, request.body, "listing request")
        limit = page["limit"] or DEFAULT_LIMIT
        registry = self.app.registry
        page_ids, next_cursor = paginate_ids(
            getattr(registry, f"owned_{kind}_ids")(user),
            scope=f"{RECORD_KINDS[RECORD_CLASSES[kind]].plural}:{user.user_id}",
            limit=limit,
            cursor=page["cursor"],
        )
        # O(page) hydration: only this page's rows are materialized;
        # `revision` rides along so clients can poll for changes cheaply
        # (conditional reads — the legacy wire shapes stay untouched)
        records = getattr(registry, f"resolve_{kind}s")(user, page_ids)
        items = [
            {**record.to_json(), "revision": record.revision}
            for record in records
        ]
        return Response(200, Page(items, limit, next_cursor).to_json())

    # ------------------------------------------------------------------
    # Single-record reads (conditional: revision-based ETags)
    # ------------------------------------------------------------------
    @staticmethod
    def _conditional(request: Request, etag: str, body: dict) -> Response:
        """Serve ``body`` with an ``ETag``, or 304 on a validator hit.

        The ETag is strong and derived from the record's id + revision
        — every write path bumps the revision, so a matching validator
        proves the cached representation is current.  ``If-None-Match``
        accepts the usual comma-separated list and ``*``; weak ``W/``
        prefixes compare by opaque value (byte-identical JSON either
        way).  A 304 carries the ETag back and no body (RFC 9110).
        """
        validator = (request.headers or {}).get("If-None-Match")
        if validator is not None:
            candidates = {
                tag.strip().removeprefix("W/")
                for tag in validator.split(",")
            }
            if "*" in candidates or etag in candidates:
                return Response(304, {}, {"ETag": etag})
        return Response(200, body, {"ETag": etag})

    def get_record(
        self, kind: str, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        record_type = RECORD_CLASSES[kind]
        record = self.app.registry.get_by_name(user, record_type, params["name"])
        record_id = getattr(record, RECORD_KINDS[record_type].id_field)
        etag = f'"{kind}-{record_id}-{record.revision}"'
        body = {
            "apiVersion": "v1",
            "kind": kind,
            "item": {**record.to_json(), "revision": record.revision},
        }
        return self._conditional(request, etag, body)

    def workflow_pes(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        page = parse(PAGE, request.body, "listing request")
        limit = page["limit"] or DEFAULT_LIMIT
        workflow_id = self.int_param(params, "id")
        records = self.app.registry.workflow_pes(user, workflow_id)
        # v1 listings order by ascending id and list each PE once (the
        # legacy route keeps the workflow's raw link order, duplicates
        # included); bounded by the workflow's PE count
        by_id = {record.pe_id: record for record in records}
        page_ids, next_cursor = paginate_ids(
            sorted(by_id),
            scope=f"workflow-pes:{user.user_id}:{workflow_id}",
            limit=limit,
            cursor=page["cursor"],
        )
        items = [
            {**by_id[pe_id].to_json(), "revision": by_id[pe_id].revision}
            for pe_id in page_ids
        ]
        return Response(200, Page(items, limit, next_cursor).to_json())

    # ------------------------------------------------------------------
    # Unified search
    # ------------------------------------------------------------------
    def search(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = SearchRequest.from_json(request.body)
        check_embedding_width(self.app, req)
        paged = req.limit is not None or req.cursor is not None
        scope = limit = offset = None
        if paged:
            # the scope binds every ranking parameter — query text,
            # kind, queryType, backend, k AND the client-side embedding
            # as sent: a cursor replayed against any differently-ranked
            # search is a 400, never a silently shifted hit window
            fingerprint = hashlib.sha1(
                json.dumps(
                    [
                        req.query,
                        req.kind,
                        req.query_type,
                        req.backend,
                        req.k,
                        request.body.get("queryEmbedding"),
                    ],
                    separators=(",", ":"),
                ).encode("utf-8")
            ).hexdigest()[:12]
            scope = f"search:{user.user_id}:{fingerprint}"
            limit = req.limit if req.limit is not None else DEFAULT_LIMIT
            offset = (
                decode_cursor(req.cursor, scope, limit)
                if req.cursor is not None
                else 0
            )
        ranking_req = req
        if paged and req.k is None and req.query_type != "hybrid":
            # unbounded k would rank AND hydrate the whole corpus per
            # page; this page only ever shows hits[offset:offset+limit],
            # so cap the ranking there.  The exact top-(offset+limit) is
            # a prefix of the full ranking (stable descending order,
            # ascending-id tie-break), so every page slices one
            # consistent ordering.  Hybrid is excluded: its RRF leg
            # depth derives from k, so a capped ranking is not a prefix
            # of the uncapped one.
            ranking_req = SearchRequest(**{**vars(req), "k": offset + limit})
        search_kind, hits = execute_search(self.app, user, ranking_req)
        next_cursor = None
        if paged:
            sliced = hits[offset : offset + limit]
            if ranking_req is req:
                # client-bounded k: the full ranking is in hand, so the
                # end of the walk is known exactly
                more = offset + limit < len(hits)
            else:
                # capped ranking: a full page means more *may* exist
                # (the walk then terminates on the first short page)
                more = len(sliced) == limit
            if more:
                next_cursor = encode_cursor(scope, offset + limit)
            hits = sliced
        return Response(
            200,
            SearchResponse(
                query=req.query,
                kind=req.kind,
                query_type=req.query_type,
                backend=req.backend,
                search_kind=search_kind,
                k=req.k,
                hits=hits,
                next_cursor=next_cursor,
            ).to_json(),
        )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def list_backends(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        """The ranking engines a search may name (harmless metadata, no
        auth): ``exact`` alone."""
        return Response(
            200,
            {
                "apiVersion": "v1",
                "backends": list(BACKENDS),
                "default": "exact",
            },
        )

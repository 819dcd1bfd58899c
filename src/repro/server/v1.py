"""The versioned ``/v1/`` API surface (typed envelopes, cursors).

Two pieces live here:

* :func:`execute_search` — the single search core behind **both** API
  generations.  It receives an already validated
  :class:`~repro.server.schema.SearchRequest` and runs the paper's
  text/semantic/code branches over the exact index.
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
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.net.transport import Request, Response
from repro.registry.entities import UserRecord
from repro.search.fusion import rrf_fuse
from repro.search.text_search import (
    TextMatch,
    pe_match_label,
    workflow_match_label,
)
from repro.server.controllers import BaseController
from repro.server.schema import (
    BACKENDS,
    DEFAULT_LIMIT,
    Page,
    SearchRequest,
    SearchResponse,
    decode_cursor,
    encode_cursor,
    paginate_ids,
    parse_limit,
    reject_unknown_fields,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.app import LaminarServer


def execute_search(
    app: "LaminarServer",
    user: UserRecord,
    req: SearchRequest,
) -> tuple[str, list[dict]]:
    """Run one registry search; returns ``(search_kind, hits_json)``.

    The embedding branches route through the group-commit batcher
    against the exact index: rank on the shard, check
    membership against the lazily fetched owned-id projection, and
    materialize only the top-k union through the DAO (a shard mismatch
    falls back to the exact brute-force scan).  ``queryType=text`` ranks
    in the DAO's FTS5/BM25 inverted index and hydrates only the top-k
    winners; ``queryType=hybrid`` RRF-fuses that ranking with the
    semantic one.  Both API generations share this decision tree —
    including the historical quirk that ``queryType=text`` over
    ``kind=pe`` serves *semantic* ranking.
    """
    index = app.index
    registry = app.registry
    batcher = app.batcher
    k = req.k
    query = req.query
    query_embedding = req.query_embedding
    if query_embedding is not None:
        query_embedding = np.asarray(query_embedding, dtype=np.float32)

    if req.query_type == "code":
        hits = app.code_search.search_topk(
            query,
            index=index,
            user=user.user_id,
            owned_ids=lambda: registry.owned_pe_ids(user),
            resolve=lambda ids: registry.resolve_pes(user, ids),
            k=k,
            query_embedding=query_embedding,
            batcher=batcher,
        )
        return "code", [h.to_json() for h in hits]
    if req.query_type == "semantic":
        # §8 extension: explicit semantic search over PEs and/or
        # workflows (query_type='text' keeps the paper's behaviour)
        hits: list = []
        if req.kind in ("pe", "both"):
            hits.extend(
                h.to_json()
                for h in app.semantic.search_topk(
                    query,
                    index=index,
                    user=user.user_id,
                    owned_ids=lambda: registry.owned_pe_ids(user),
                    resolve=lambda ids: registry.resolve_pes(user, ids),
                    k=k,
                    query_embedding=query_embedding,
                    batcher=batcher,
                )
            )
        if req.kind in ("workflow", "both"):
            hits.extend(
                h.to_json()
                for h in app.semantic.search_workflows_topk(
                    query,
                    index=index,
                    user=user.user_id,
                    owned_ids=lambda: registry.owned_workflow_ids(user),
                    resolve=lambda ids: registry.resolve_workflows(user, ids),
                    k=k,
                    query_embedding=query_embedding,
                    batcher=batcher,
                )
            )
        hits.sort(key=lambda h: -h["score"])
        if k is not None:
            hits = hits[:k]
        return "semantic", hits
    if req.query_type == "hybrid":
        return "hybrid", _hybrid_hits(app, user, req, query_embedding)
    # query_type == "text" (validated upstream)
    if req.kind == "pe":
        # historical quirk: text search over kind=pe serves *semantic*
        # ranking (identical on both API generations)
        hits = app.semantic.search_topk(
            query,
            index=index,
            user=user.user_id,
            owned_ids=lambda: registry.owned_pe_ids(user),
            resolve=lambda ids: registry.resolve_pes(user, ids),
            k=k,
            query_embedding=query_embedding,
            batcher=batcher,
        )
        return "semantic", [h.to_json() for h in hits]
    # indexed text: ranked inside the DAO's inverted index
    # (BM25 + whole-query name-substring bonus), O(k) hydration
    matches = _indexed_text_matches(registry, user, req.kind, query, k)
    matches.sort(key=lambda m: (-m.score, m.kind, m.entity_id))
    if k is not None:
        matches = matches[:k]
    return "text", [m.to_json() for m in matches]


def check_embedding_width(app: "LaminarServer", req: SearchRequest) -> None:
    """400 unless ``req.query_embedding`` (if any) is as wide as the
    model that ranks ``req.query_type`` — the edge check the schema
    cannot make, since it does not know the serving model's width."""
    if req.query_embedding is None:
        return
    model = (
        app.code_search.model
        if req.query_type == "code"
        else app.semantic.model
    )
    if len(req.query_embedding) != model.dim:
        raise ValidationError(
            f"queryEmbedding must have {model.dim} dimensions, "
            f"got {len(req.query_embedding)}",
            params={"queryEmbeddingDim": len(req.query_embedding)},
        )


def _indexed_text_matches(
    registry, user: UserRecord, kind: str, query: str, k: int | None
) -> list[TextMatch]:
    """FTS-ranked :class:`TextMatch` rows for ``kind`` (already scored
    by the DAO; ``matchedOn`` labels recomputed from the records)."""
    matches: list[TextMatch] = []
    if kind in ("pe", "both"):
        matches.extend(
            TextMatch(
                kind="pe",
                entity_id=record.pe_id,
                name=record.pe_name,
                description=record.description,
                matched_on=pe_match_label(query, record),
                score=score,
            )
            for record, score in registry.text_topk_pes(user, query, k)
        )
    if kind in ("workflow", "both"):
        matches.extend(
            TextMatch(
                kind="workflow",
                entity_id=record.workflow_id,
                name=record.entry_point,
                description=record.description,
                matched_on=workflow_match_label(query, record),
                score=score,
            )
            for record, score in registry.text_topk_workflows(user, query, k)
        )
    return matches


def _hybrid_hits(
    app: "LaminarServer",
    user: UserRecord,
    req: SearchRequest,
    query_embedding,
) -> list[dict]:
    """``queryType=hybrid``: RRF-fuse the text and semantic rankings.

    Both legs rank to depth ``max(2k, k+50)`` (unbounded when ``k`` is
    ``None``) so the fusion sees well past the final cut, then
    :func:`~repro.search.fusion.rrf_fuse` merges them deterministically
    — given the two leg rankings the fused ordering is bitwise-stable.
    The text leg is the *real* BM25 ranking even for ``kind=pe`` (the
    text-route quirk is a ``queryType=text`` compatibility artifact;
    hybrid is new surface and fuses what it says it fuses).
    """
    registry = app.registry
    index = app.index
    batcher = app.batcher
    k = req.k
    query = req.query
    depth = None if k is None else max(2 * k, k + 50)

    text_matches = _indexed_text_matches(registry, user, req.kind, query, depth)
    text_matches.sort(key=lambda m: (-m.score, m.kind, m.entity_id))
    if depth is not None:
        text_matches = text_matches[:depth]

    sem_rows: list[tuple[float, str, int, object]] = []
    if req.kind in ("pe", "both"):
        sem_rows.extend(
            (float(h.score), "pe", h.pe_id, h)
            for h in app.semantic.search_topk(
                query,
                index=index,
                user=user.user_id,
                owned_ids=lambda: registry.owned_pe_ids(user),
                resolve=lambda ids: registry.resolve_pes(user, ids),
                k=depth,
                query_embedding=query_embedding,
                batcher=batcher,
            )
        )
    if req.kind in ("workflow", "both"):
        sem_rows.extend(
            (float(h.score), "workflow", h.workflow_id, h)
            for h in app.semantic.search_workflows_topk(
                query,
                index=index,
                user=user.user_id,
                owned_ids=lambda: registry.owned_workflow_ids(user),
                resolve=lambda ids: registry.resolve_workflows(user, ids),
                k=depth,
                query_embedding=query_embedding,
                batcher=batcher,
            )
        )
    sem_rows.sort(key=lambda row: (-row[0], row[1], row[2]))
    if depth is not None:
        sem_rows = sem_rows[:depth]

    by_key: dict[tuple[str, int], dict] = {}
    text_leg: list[tuple[str, int]] = []
    for m in text_matches:
        key = (m.kind, m.entity_id)
        text_leg.append(key)
        by_key.setdefault(key, {})["text"] = m
    semantic_leg: list[tuple[str, int]] = []
    for score, kind_, rid, hit in sem_rows:
        key = (kind_, rid)
        semantic_leg.append(key)
        by_key.setdefault(key, {})["semantic"] = hit

    fused = rrf_fuse([text_leg, semantic_leg])
    if k is not None:
        fused = fused[:k]
    hits = []
    for key, score, (text_rank, semantic_rank) in fused:
        kind_, rid = key
        text_hit = by_key[key].get("text")
        sem_hit = by_key[key].get("semantic")
        if text_hit is not None:
            name, description = text_hit.name, text_hit.description
        elif kind_ == "pe":
            name, description = sem_hit.pe_name, sem_hit.description
        else:
            name, description = sem_hit.entry_point, sem_hit.description
        hits.append(
            {
                "kind": kind_,
                "id": rid,
                "name": name,
                "description": description,
                "score": round(score, 6),
                "textRank": text_rank,
                "semanticRank": semantic_rank,
                "textScore": (
                    round(text_hit.score, 4) if text_hit is not None else None
                ),
                "semanticScore": (
                    round(float(sem_hit.score), 4)
                    if sem_hit is not None
                    else None
                ),
            }
        )
    return hits


class V1Controller(BaseController):
    """Handlers behind the ``/v1/`` route table."""

    #: wire fields a listing request may carry
    _PAGE_FIELDS = ("limit", "cursor")

    def _page_params(self, request: Request) -> tuple[int, str | None]:
        """Strictly parse the (optional) ``limit``/``cursor`` body."""
        body = request.body or {}
        reject_unknown_fields(body, self._PAGE_FIELDS, where="listing request")
        limit = body.get("limit")
        limit = DEFAULT_LIMIT if limit is None else parse_limit(limit)
        cursor = body.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise ValidationError(
                f"cursor must be a string, got {type(cursor).__name__}",
                params={"cursor": cursor},
            )
        return limit, cursor

    # ------------------------------------------------------------------
    # Listings (cursor-paginated, ascending id)
    # ------------------------------------------------------------------
    def list_users(self, request: Request, params: dict[str, str]) -> Response:
        # parity with the legacy /auth/all listing: no auth required
        limit, cursor = self._page_params(request)
        users = self.app.registry.all_users()
        page_ids, next_cursor = paginate_ids(
            [user.user_id for user in users],
            scope="users",
            limit=limit,
            cursor=cursor,
        )
        by_id = {user.user_id: user for user in users}
        items = [by_id[user_id].to_json() for user_id in page_ids]
        return Response(200, Page(items, limit, next_cursor).to_json())

    def list_pes(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        limit, cursor = self._page_params(request)
        page_ids, next_cursor = paginate_ids(
            self.app.registry.owned_pe_ids(user),
            scope=f"pes:{user.user_id}",
            limit=limit,
            cursor=cursor,
        )
        # O(page) hydration: only this page's rows are materialized;
        # `revision` rides along so clients can poll for changes cheaply
        # (conditional reads — the legacy wire shapes stay untouched)
        records = self.app.registry.resolve_pes(user, page_ids)
        items = [
            {**record.to_json(), "revision": record.revision}
            for record in records
        ]
        return Response(200, Page(items, limit, next_cursor).to_json())

    def list_workflows(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        limit, cursor = self._page_params(request)
        page_ids, next_cursor = paginate_ids(
            self.app.registry.owned_workflow_ids(user),
            scope=f"workflows:{user.user_id}",
            limit=limit,
            cursor=cursor,
        )
        records = self.app.registry.resolve_workflows(user, page_ids)
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

    def get_pe(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_pe_by_name(user, params["name"])
        etag = f'"pe-{record.pe_id}-{record.revision}"'
        body = {
            "apiVersion": "v1",
            "kind": "pe",
            "item": {**record.to_json(), "revision": record.revision},
        }
        return self._conditional(request, etag, body)

    def get_workflow(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        record = self.app.registry.get_workflow_by_name(user, params["name"])
        etag = f'"workflow-{record.workflow_id}-{record.revision}"'
        body = {
            "apiVersion": "v1",
            "kind": "workflow",
            "item": {**record.to_json(), "revision": record.revision},
        }
        return self._conditional(request, etag, body)

    def workflow_pes(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        limit, cursor = self._page_params(request)
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
            cursor=cursor,
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
            # kind, queryType, backend, k AND the client-side embedding:
            # a cursor replayed against any differently-ranked search is
            # a 400, never a silently shifted hit window
            fingerprint = hashlib.sha1(
                json.dumps(
                    [
                        req.query,
                        req.kind,
                        req.query_type,
                        req.backend,
                        req.k,
                        req.query_embedding,
                    ],
                    separators=(",", ":"),
                ).encode("utf-8")
            ).hexdigest()[:12]
            scope = f"search:{user.user_id}:{fingerprint}"
            limit = req.limit if req.limit is not None else DEFAULT_LIMIT
            offset = (
                decode_cursor(req.cursor, scope)
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
            ranking_req = replace(req, k=offset + limit)
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

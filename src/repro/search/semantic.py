"""Semantic code search over PE descriptions (paper §4.2, Figure 7).

The query is embedded with the fine-tuned code-search model and compared
(cosine) against all stored ``descEmbedding`` vectors — embeddings that
were computed once at registration (§3.1.1), never re-computed at query
time.  Results are the ranked PEs with their similarity scores, exactly
the Figure 7 table.

Served searches go through :meth:`SemanticSearcher.search_topk` /
:meth:`~SemanticSearcher.search_workflows_topk`, which hand the query to
the :class:`~repro.search.serving.SearchBatcher` (pre-stacked shard,
``argpartition`` top-k, LRU-cached query vector, O(k) hydration).
:meth:`~SemanticSearcher.search` / :meth:`~SemanticSearcher.search_workflows`
rebuild the corpus matrix from the records: the brute-force reference
and the batcher's fallback.  Both rank ties by insertion order (stable
sort) and return identical ids and scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.ml.embedding import EmbeddingModel
from repro.ml.models import UnixCoderCodeSearch
from repro.ml.similarity import cosine_similarity_matrix
from repro.registry.entities import PERecord, WorkflowRecord
from repro.search.index import KIND_DESC, KIND_WORKFLOW, VectorIndex
from repro.search.serving import OwnedIds, SearchBatcher


@dataclass
class SemanticHit:
    """One semantic-search result row (Figure 7)."""

    pe_id: int
    pe_name: str
    description: str
    description_origin: str
    score: float

    def to_json(self) -> dict:
        return {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "descriptionOrigin": self.description_origin,
            "score": round(float(self.score), 4),
        }


class SemanticSearcher:
    """Bi-encoder semantic search against stored description embeddings."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self.model = model or UnixCoderCodeSearch()

    def embed_query(self, query: str) -> np.ndarray:
        return self.model.embed_one(query, kind="text")

    def embed_description(self, description: str) -> np.ndarray:
        """The embedding computed at registration time (§3.1.1)."""
        return self.model.embed_one(description, kind="text")

    def embed_queries(self, queries: list[str]) -> np.ndarray:
        """Batch-embed query texts in one model call (row-independent,
        bitwise identical to per-query :meth:`embed_query`)."""
        return self.model.embed_many(queries, kind="text")

    def _query_vector(
        self, query: str, query_embedding: np.ndarray | None
    ) -> np.ndarray:
        if query_embedding is not None:
            return np.asarray(query_embedding, dtype=np.float32)
        return self.embed_query(query)

    def search(
        self,
        query: str,
        pes: Sequence[PERecord],
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list[SemanticHit]:
        """Rank ``pes`` by description similarity to ``query`` (brute
        force over the records).

        ``query_embedding`` may be supplied by the caller (the Client
        computes it in the paper's architecture); PEs lacking a stored
        embedding are embedded once as a fallback and the vector is
        cached back onto the record.
        """
        if not pes:
            return []
        qvec = self._query_vector(query, query_embedding)
        matrix = np.zeros((len(pes), qvec.shape[0]), dtype=np.float32)
        for i, record in enumerate(pes):
            vec = record.desc_embedding
            if vec is None:
                vec = self.embed_description(record.description or record.pe_name)
                record.desc_embedding = vec
            matrix[i] = vec
        sims = cosine_similarity_matrix(qvec, matrix)[0]
        order = np.argsort(-sims, kind="stable")
        if k is not None:
            order = order[:k]
        return [
            SemanticHit(
                pe_id=pes[i].pe_id,
                pe_name=pes[i].pe_name,
                description=pes[i].description,
                description_origin=pes[i].description_origin,
                score=float(sims[i]),
            )
            for i in order
        ]

    def search_topk(
        self,
        query: str,
        *,
        index: VectorIndex,
        user: Hashable,
        owned_ids: OwnedIds,
        resolve: Callable[[list[int]], Sequence[PERecord]],
        batcher: SearchBatcher,
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list[SemanticHit]:
        """Serve ``query`` over the description shard through ``batcher``.

        Per-request DAO work is O(k), not O(corpus), with the exact
        brute-force :meth:`search` as fallback; concurrent same-shard
        searches share one index pass and one embedding call.
        """
        return batcher.submit(
            index=index,
            user=user,
            kind=KIND_DESC,
            owned_ids=owned_ids,
            k=k,
            resolve=resolve,
            rid_of=lambda record: record.pe_id,
            build_hit=lambda record, score: SemanticHit(
                pe_id=record.pe_id,
                pe_name=record.pe_name,
                description=record.description,
                description_origin=record.description_origin,
                score=score,
            ),
            fallback=lambda records, qvec: self.search(
                query, records, k=k, query_embedding=qvec
            ),
            query_embedding=query_embedding,
            embed_key=(KIND_DESC, self.model.name, query),
            embed_text=query,
            embed_many=self.embed_queries,
        )

    def search_workflows_topk(
        self,
        query: str,
        *,
        index: VectorIndex,
        user: Hashable,
        owned_ids: OwnedIds,
        resolve: Callable[[list[int]], Sequence[WorkflowRecord]],
        batcher: SearchBatcher,
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list["WorkflowSemanticHit"]:
        """:meth:`search_topk` over the workflow-description shard."""
        return batcher.submit(
            index=index,
            user=user,
            kind=KIND_WORKFLOW,
            owned_ids=owned_ids,
            k=k,
            resolve=resolve,
            rid_of=lambda record: record.workflow_id,
            build_hit=lambda record, score: WorkflowSemanticHit(
                workflow_id=record.workflow_id,
                entry_point=record.entry_point,
                description=record.description,
                score=score,
            ),
            fallback=lambda records, qvec: self.search_workflows(
                query, records, k=k, query_embedding=qvec
            ),
            # the same LRU key as PE search: one vector per query text
            query_embedding=query_embedding,
            embed_key=(KIND_DESC, self.model.name, query),
            embed_text=query,
            embed_many=self.embed_queries,
        )

    def search_workflows(
        self,
        query: str,
        workflows: Sequence[WorkflowRecord],
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list["WorkflowSemanticHit"]:
        """Semantic search over *workflow* descriptions (brute force).

        Implements the paper's §8 future-work item ("enhance deep
        learning search for workflows") with the identical bi-encoder
        machinery: workflow descriptions are embedded at registration
        and ranked by cosine similarity at query time.
        """
        if not workflows:
            return []
        qvec = self._query_vector(query, query_embedding)
        matrix = np.zeros((len(workflows), qvec.shape[0]), dtype=np.float32)
        for i, record in enumerate(workflows):
            vec = record.desc_embedding
            if vec is None:
                vec = self.embed_description(
                    record.description or record.entry_point
                )
                record.desc_embedding = vec
            matrix[i] = vec
        sims = cosine_similarity_matrix(qvec, matrix)[0]
        order = np.argsort(-sims, kind="stable")
        if k is not None:
            order = order[:k]
        return [
            WorkflowSemanticHit(
                workflow_id=workflows[i].workflow_id,
                entry_point=workflows[i].entry_point,
                description=workflows[i].description,
                score=float(sims[i]),
            )
            for i in order
        ]


@dataclass
class WorkflowSemanticHit:
    """One workflow-level semantic search result (the §8 extension)."""

    workflow_id: int
    entry_point: str
    description: str
    score: float

    def to_json(self) -> dict:
        return {
            "workflowId": self.workflow_id,
            "entryPoint": self.entry_point,
            "description": self.description,
            "score": round(float(self.score), 4),
        }

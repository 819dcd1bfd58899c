"""Code-completion search over PE code embeddings (paper §4.3, Figure 8).

A partial (or complete) code query is embedded with the ReACC-style
retriever and compared against all stored ``codeEmbedding`` vectors.
Each hit also carries a suggested *continuation* extracted by aligning
the query against the retrieved code (the "completion" of ReACC's
retrieve-then-reuse loop).

Like :class:`~repro.search.semantic.SemanticSearcher`, the searcher
serves through the :class:`~repro.search.serving.SearchBatcher`
(:meth:`CodeSearcher.search_topk`), and :meth:`CodeSearcher.search`
rebuilds the corpus matrix as the brute-force reference and fallback;
both rank ties by insertion order and agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.ml.completion import align_continuation
from repro.ml.embedding import EmbeddingModel
from repro.ml.models import ReACCRetriever
from repro.ml.similarity import cosine_similarity_matrix
from repro.registry.entities import PERecord
from repro.search.index import KIND_CODE, VectorIndex
from repro.search.serving import OwnedIds, SearchBatcher


@dataclass
class CodeHit:
    """One code-search result row (Figure 8)."""

    pe_id: int
    pe_name: str
    description: str
    score: float
    continuation: str

    def to_json(self) -> dict:
        return {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "score": round(float(self.score), 4),
            "continuation": self.continuation,
        }


class CodeSearcher:
    """Bi-encoder code search against stored code embeddings."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self.model = model or ReACCRetriever()

    def embed_query(self, code: str) -> np.ndarray:
        return self.model.embed_one(code, kind="code")

    def embed_code(self, code: str) -> np.ndarray:
        """The embedding computed at registration time (§3.1.1)."""
        return self.model.embed_one(code, kind="code")

    def embed_queries(self, code_queries: list[str]) -> np.ndarray:
        """Batch-embed code queries in one model call (row-independent,
        bitwise identical to per-query :meth:`embed_query`)."""
        return self.model.embed_many(code_queries, kind="code")

    def _hit(self, record: PERecord, code_query: str, score: float) -> CodeHit:
        continuation = (
            align_continuation(code_query, record.pe_source)
            if record.pe_source
            else ""
        )
        return CodeHit(
            pe_id=record.pe_id,
            pe_name=record.pe_name,
            description=record.description,
            score=float(score),
            continuation=continuation,
        )

    def search(
        self,
        code_query: str,
        pes: Sequence[PERecord],
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list[CodeHit]:
        """Rank ``pes`` by code similarity to ``code_query`` (brute
        force over the records).

        PEs lacking a stored code embedding are embedded once as a
        fallback and the vector is cached back onto the record.
        """
        if not pes:
            return []
        qvec = (
            self.embed_query(code_query)
            if query_embedding is None
            else np.asarray(query_embedding, dtype=np.float32)
        )
        matrix = np.zeros((len(pes), qvec.shape[0]), dtype=np.float32)
        for i, record in enumerate(pes):
            vec = record.code_embedding
            if vec is None:
                vec = self.embed_code(record.pe_source or record.pe_name)
                record.code_embedding = vec
            matrix[i] = vec
        sims = cosine_similarity_matrix(qvec, matrix)[0]
        order = np.argsort(-sims, kind="stable")
        if k is not None:
            order = order[:k]
        return [self._hit(pes[i], code_query, sims[i]) for i in order]

    def search_topk(
        self,
        code_query: str,
        *,
        index: VectorIndex,
        user: Hashable,
        owned_ids: OwnedIds,
        resolve: Callable[[list[int]], Sequence[PERecord]],
        batcher: SearchBatcher,
        k: int | None = None,
        query_embedding: np.ndarray | None = None,
    ) -> list[CodeHit]:
        """Serve ``code_query`` over the code shard through ``batcher``:
        O(k) DAO work per request, with the exact brute-force
        :meth:`search` as fallback."""
        return batcher.submit(
            index=index,
            user=user,
            kind=KIND_CODE,
            owned_ids=owned_ids,
            k=k,
            resolve=resolve,
            rid_of=lambda record: record.pe_id,
            build_hit=lambda record, score: self._hit(
                record, code_query, score
            ),
            fallback=lambda records, qvec: self.search(
                code_query, records, k=k, query_embedding=qvec
            ),
            query_embedding=query_embedding,
            embed_key=(KIND_CODE, self.model.name, code_query),
            embed_text=code_query,
            embed_many=self.embed_queries,
        )

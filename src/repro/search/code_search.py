"""Code-completion search over PE code embeddings (paper §4.3, Figure 8).

A partial (or complete) code query is embedded with the ReACC-style
retriever and compared against all stored ``codeEmbedding`` vectors.
Each hit also carries a suggested *continuation* extracted by aligning
the query against the retrieved code (the "completion" of ReACC's
retrieve-then-reuse loop).

Like :class:`~repro.search.semantic.SemanticSearcher`,
:class:`CodeSearcher` holds only the model and its embedders: the
``KIND_CODE`` shard ranks through the one embedding-search path of
:mod:`repro.search.serving` (one direct pass per search, with
:func:`~repro.search.serving.exact_scan` as its reference),
and :meth:`CodeHit.of` renders a ranked, hydrated record and its
score, continuation included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.completion import align_continuation
from repro.ml.embedding import EmbeddingModel
from repro.ml.models import ReACCRetriever
from repro.registry.entities import PERecord


@dataclass
class CodeHit:
    """One code-search result row (Figure 8)."""

    pe_id: int
    pe_name: str
    description: str
    score: float
    continuation: str

    @classmethod
    def of(cls, record: PERecord, score: float, code_query: str) -> "CodeHit":
        continuation = (
            align_continuation(code_query, record.pe_source)
            if record.pe_source
            else ""
        )
        return cls(
            pe_id=record.pe_id,
            pe_name=record.pe_name,
            description=record.description,
            score=float(score),
            continuation=continuation,
        )

    def to_json(self) -> dict:
        return {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "score": round(float(self.score), 4),
            "continuation": self.continuation,
        }


class CodeSearcher:
    """The bi-encoder that embeds code queries and PE sources."""

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

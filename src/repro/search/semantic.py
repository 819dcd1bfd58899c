"""Semantic code search over PE descriptions (paper §4.2, Figure 7).

The query is embedded with the fine-tuned code-search model and compared
(cosine) against all stored ``descEmbedding`` vectors — embeddings that
were computed once at registration (§3.1.1), never re-computed at query
time.  Results are the ranked PEs with their similarity scores, exactly
the Figure 7 table.

:class:`SemanticSearcher` holds the model and its embedders; ranking is
the one embedding-search path of :mod:`repro.search.serving` —
:meth:`~repro.search.serving.SearchBatcher.submit`, one direct pass
per search, on the served path,
:func:`~repro.search.serving.exact_scan` as the brute-force reference
— over the ``KIND_DESC`` (PE) or ``KIND_WORKFLOW`` shard,
each the first of its record kind's ``RECORD_KINDS`` shards.  Both
rank to equal ids and scores, ties by ascending id (the served path to
``(id, score)`` pairs, whose surviving ids the search then hydrates
through the service's ``resolve_{kind}s`` entry); :class:`SemanticHit`
and :class:`WorkflowSemanticHit` render a record and its score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.embedding import EmbeddingModel
from repro.ml.models import UnixCoderCodeSearch
from repro.registry.entities import PERecord, WorkflowRecord


@dataclass
class SemanticHit:
    """One semantic-search result row (Figure 7)."""

    pe_id: int
    pe_name: str
    description: str
    description_origin: str
    score: float

    @classmethod
    def of(cls, record: PERecord, score: float) -> "SemanticHit":
        return cls(
            pe_id=record.pe_id,
            pe_name=record.pe_name,
            description=record.description,
            description_origin=record.description_origin,
            score=score,
        )

    def to_json(self) -> dict:
        return {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "descriptionOrigin": self.description_origin,
            "score": round(float(self.score), 4),
        }


class SemanticSearcher:
    """The bi-encoder that embeds semantic queries and descriptions."""

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


@dataclass
class WorkflowSemanticHit:
    """One workflow-level semantic search result (the §8 extension)."""

    workflow_id: int
    entry_point: str
    description: str
    score: float

    @classmethod
    def of(cls, record: WorkflowRecord, score: float) -> "WorkflowSemanticHit":
        return cls(
            workflow_id=record.workflow_id,
            entry_point=record.entry_point,
            description=record.description,
            score=score,
        )

    def to_json(self) -> dict:
        return {
            "workflowId": self.workflow_id,
            "entryPoint": self.entry_point,
            "description": self.description,
            "score": round(float(self.score), 4),
        }

"""Ranking metrics: MRR (Table 6), MAP@100 and Precision@1 (Table 7).

All metric math is vectorized: one similarity matrix product per
(model, dataset) pair, then NumPy argsorts — the corpus is never touched
in a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.datasets.retrieval import RetrievalDataset
from repro.errors import ValidationError
from repro.ml.embedding import EmbeddingModel
from repro.ml.similarity import cosine_similarity_matrix


def rank_corpus(
    query_matrix: np.ndarray,
    corpus_matrix: np.ndarray,
    exclude: Sequence[int | None] | None = None,
) -> np.ndarray:
    """Full ranking (descending similarity) of the corpus per query.

    ``exclude[i]`` masks one corpus index for query ``i`` (set to -inf
    before sorting).  Returns an (nq, nc) array of corpus indices.
    """
    sims = cosine_similarity_matrix(query_matrix, corpus_matrix)
    if exclude is not None:
        for qi, masked in enumerate(exclude):
            if masked is not None:
                sims[qi, masked] = -np.inf
    return np.argsort(-sims, axis=1, kind="stable")


def reciprocal_rank(ranking: np.ndarray, relevant: set[int]) -> float:
    """1/rank of the first relevant item (0 if none present)."""
    if not relevant:
        return 0.0
    for position, index in enumerate(ranking, 1):
        if int(index) in relevant:
            return 1.0 / position
    return 0.0


def mean_reciprocal_rank(
    rankings: np.ndarray, relevant: Sequence[set[int]]
) -> float:
    """MRR over all queries (the Table 6 metric)."""
    if len(rankings) != len(relevant):
        raise ValidationError("rankings and relevance sets must align")
    if len(rankings) == 0:
        return 0.0
    return float(
        np.mean([reciprocal_rank(r, rel) for r, rel in zip(rankings, relevant)])
    )


def average_precision_at_k(
    ranking: np.ndarray, relevant: set[int], k: int = 100
) -> float:
    """AP@k: mean of precision-at-hit over the top-k positions.

    Normalized by ``min(len(relevant), k)`` so a query with more relevant
    items than k is not penalized for the unreachable tail.
    """
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for position, index in enumerate(ranking[:k], 1):
        if int(index) in relevant:
            hits += 1
            precision_sum += hits / position
    denom = min(len(relevant), k)
    return precision_sum / denom if denom else 0.0


def mean_average_precision_at_k(
    rankings: np.ndarray, relevant: Sequence[set[int]], k: int = 100
) -> float:
    """MAP@k over all queries (the Table 7 headline metric)."""
    if len(rankings) == 0:
        return 0.0
    return float(
        np.mean(
            [
                average_precision_at_k(r, rel, k)
                for r, rel in zip(rankings, relevant)
            ]
        )
    )


def precision_at_1(
    rankings: np.ndarray, relevant: Sequence[set[int]]
) -> float:
    """Fraction of queries whose top-1 result is relevant (Table 7)."""
    if len(rankings) == 0:
        return 0.0
    return float(
        np.mean(
            [
                1.0 if int(r[0]) in rel else 0.0
                for r, rel in zip(rankings, relevant)
            ]
        )
    )


@dataclass
class RetrievalScores:
    """All metrics for one (model, dataset) pair."""

    model: str
    dataset: str
    mrr: float
    map_at_100: float
    p_at_1: float
    n_queries: int
    n_corpus: int


def evaluate_retrieval(
    model: EmbeddingModel,
    dataset: RetrievalDataset,
    *,
    query_kind: str = "text",
    corpus_kind: str = "code",
) -> RetrievalScores:
    """Embed, rank and score one model on one dataset."""
    query_matrix = model.embed(dataset.queries, kind=query_kind)  # type: ignore[arg-type]
    corpus_matrix = model.embed(dataset.corpus, kind=corpus_kind)  # type: ignore[arg-type]
    rankings = rank_corpus(query_matrix, corpus_matrix, dataset.exclude)
    return RetrievalScores(
        model=model.name,
        dataset=dataset.name,
        mrr=mean_reciprocal_rank(rankings, dataset.relevant),
        map_at_100=mean_average_precision_at_k(rankings, dataset.relevant, 100),
        p_at_1=precision_at_1(rankings, dataset.relevant),
        n_queries=dataset.n_queries,
        n_corpus=dataset.n_corpus,
    )

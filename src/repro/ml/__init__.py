"""Language-model substrate (paper §2.3/2.4/2.5).

The paper integrates pretrained transformer encoders (UnixCoder, ReACC,
CodeBERT, GraphCodeBERT, BGE, GTE) and a generation model (CodeT5) via
HuggingFace.  Pretrained weights are unavailable offline, so this
subpackage implements the closest synthetic equivalents from scratch
(DESIGN.md §5): deterministic feature embedders sharing the bi-encoder
interface the paper's models are used through —

    ``EmbeddingModel.embed(texts) -> (n, d) float32, L2-normalized rows``

with cosine similarity over stored embeddings for retrieval.  Each paper
model maps to one embedder class whose featurization mirrors what makes
that model comparatively strong or weak (AST structure vs. token
sequences vs. plain text), so the relative orderings of Tables 6 and 7
are reproduced by mechanism, not by fiat.

Code summarization (CodeT5's role) is an AST-driven template summarizer;
code completion (ReACC's role) is the registry's code search (the
ReACC-style retriever over stored code embeddings) plus the suffix
alignment of :func:`~repro.ml.completion.align_continuation`.
"""

from repro.ml.embedding import BiEncoder, CrossEncoder, EmbeddingModel
from repro.ml.models import (
    BGELargeSim,
    CodeBERTSim,
    GTELargeSim,
    GraphCodeBERTSim,
    ReACCRetriever,
    UnixCoderBase,
    UnixCoderCloneDetection,
    UnixCoderCodeSearch,
    get_model,
    MODEL_REGISTRY,
)
from repro.ml.similarity import cosine_similarity_matrix, cosine_topk
from repro.ml.summarize import CodeT5Summarizer, summarize_code

__all__ = [
    "EmbeddingModel",
    "BiEncoder",
    "CrossEncoder",
    "UnixCoderBase",
    "UnixCoderCodeSearch",
    "UnixCoderCloneDetection",
    "ReACCRetriever",
    "CodeBERTSim",
    "GraphCodeBERTSim",
    "BGELargeSim",
    "GTELargeSim",
    "get_model",
    "MODEL_REGISTRY",
    "cosine_topk",
    "cosine_similarity_matrix",
    "CodeT5Summarizer",
    "summarize_code",
]

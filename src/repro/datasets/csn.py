"""CSN-like dataset: clean docstring queries against curated code.

The CSN benchmark (paper §6.2.1) is CodeSearchNet with low-quality
queries filtered out: queries are well-formed documentation sentences
and functions keep meaningful names.  Synthetic equivalent: docstring
text as the query; corpus functions keep their author's names but have
the docstring itself removed so the match is never trivially exact.
"""

from __future__ import annotations

from repro.datasets.codebank import PROBLEMS
from repro.datasets.mutate import strip_docstrings
from repro.datasets.retrieval import RetrievalDataset


def build_csn(*, corpus_variants: int = 2) -> RetrievalDataset:
    """Build the CSN-like retrieval dataset.

    One query per problem (the canonical docstring); corpus keeps
    every name and strips docstrings.
    """
    corpus: list[str] = []
    corpus_keys: list[str] = []
    relevant_of: dict[str, set[int]] = {}
    for problem in PROBLEMS:
        indices: set[int] = set()
        for v in range(corpus_variants):
            variant = problem.variants[v % len(problem.variants)]
            # curated corpus = real code as its author named it: CSN does
            # not rename anything, it only withholds the docstring
            code = strip_docstrings(variant)
            indices.add(len(corpus))
            corpus.append(code)
            corpus_keys.append(problem.key)
        relevant_of[problem.key] = indices

    queries = [problem.docstring for problem in PROBLEMS]
    relevant = [set(relevant_of[problem.key]) for problem in PROBLEMS]
    # guard: no docstring survived the stripping
    assert all('"""' not in code for code in corpus)

    return RetrievalDataset(
        name="csn-like",
        queries=queries,
        corpus=corpus,
        relevant=relevant,
        corpus_keys=corpus_keys,
    )

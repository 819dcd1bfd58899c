"""CSN-like dataset: clean docstring queries against curated code.

The CSN benchmark (paper §6.2.1) is CodeSearchNet with low-quality
queries filtered out: queries are well-formed documentation sentences
and functions keep meaningful names.  Synthetic equivalent: docstring
text as the query; corpus functions keep their entry-point names (only
locals renamed) but have the docstring itself removed so the match is
never trivially exact.
"""

from __future__ import annotations

import random

from repro import pyast
from repro.datasets.codebank import PROBLEMS
from repro.datasets.mutate import (
    collect_renameable,
    rename_identifiers,
    strip_docstrings,
)
from repro.datasets.retrieval import RetrievalDataset


def _entry_names(code: str) -> set[str]:
    """The function-definition names to protect from renaming."""
    import ast

    try:
        tree = pyast.parse(code)
    except SyntaxError:
        return set()
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def build_csn(
    seed: int = 13,
    *,
    corpus_variants: int = 2,
) -> RetrievalDataset:
    """Build the CSN-like retrieval dataset.

    One query per problem (the canonical docstring); corpus keeps
    function names, renames locals, strips docstrings.
    """
    rng = random.Random(seed)
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
    _ = rng, _entry_names, rename_identifiers  # kept for ablation variants

    queries = [problem.docstring for problem in PROBLEMS]
    relevant = [set(relevant_of[problem.key]) for problem in PROBLEMS]
    # guard: renaming must never have leaked the docstring back in
    assert all('"""' not in code for code in corpus)
    _ = collect_renameable  # imported for doc purposes; silence linters

    return RetrievalDataset(
        name="csn-like",
        queries=queries,
        corpus=corpus,
        relevant=relevant,
        corpus_keys=corpus_keys,
    )

"""Tests for the CoSQA/CSN/CodeNet/AdvTest-like dataset builders."""

import ast

import pytest

from repro.datasets import (
    RetrievalDataset,
    build_codenet,
    build_cosqa,
    build_csn,
)
from repro.datasets.advtest import build_advtest, fitting_corpus
from repro.datasets.codebank import PROBLEMS


class TestRetrievalDatasetContainer:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            RetrievalDataset("x", ["q"], ["c"], [])

    def test_relevance_bounds_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            RetrievalDataset("x", ["q"], ["c"], [{5}])

    def test_exclude_defaults_to_none(self):
        ds = RetrievalDataset("x", ["q"], ["c"], [{0}])
        assert ds.exclude == [None]


class TestCosqa:
    def test_deterministic(self):
        a, b = build_cosqa(seed=5), build_cosqa(seed=5)
        assert a.queries == b.queries
        assert a.corpus == b.corpus

    def test_seed_changes_content(self):
        assert build_cosqa(seed=1).corpus != build_cosqa(seed=2).corpus

    def test_relevance_points_to_same_problem(self):
        ds = build_cosqa()
        per_problem = len(ds.queries) // len(PROBLEMS)
        assert per_problem >= 2
        for qi, relevant in enumerate(ds.relevant):
            keys = {ds.corpus_keys[ci] for ci in relevant}
            assert len(keys) == 1

    def test_corpus_parses(self):
        for code in build_cosqa().corpus:
            ast.parse(code)

    def test_queries_are_noisy_text(self):
        ds = build_cosqa()
        assert any("python" in q for q in ds.queries)


class TestCsn:
    def test_queries_are_docstrings(self):
        ds = build_csn()
        docstrings = {p.docstring for p in PROBLEMS}
        assert set(ds.queries) == docstrings

    def test_corpus_docstrings_stripped(self):
        for code in build_csn().corpus:
            assert '"""' not in code

    def test_entry_names_preserved(self):
        ds = build_csn()
        # CSN keeps author naming: the canonical function names survive
        joined = "\n".join(ds.corpus)
        assert "def is_prime" in joined
        assert "def levenshtein" in joined

    def test_corpus_parses(self):
        for code in build_csn().corpus:
            ast.parse(code)


class TestCodenet:
    def test_cluster_structure(self):
        ds = build_codenet()
        assert ds.n_corpus >= 150
        assert ds.n_queries >= 2 * len(PROBLEMS) - 5

    def test_queries_are_truncated_members(self):
        ds = build_codenet()
        for qi, query in enumerate(ds.queries):
            source = ds.corpus[ds.exclude[qi]]
            assert len(query) < len(source) + 1

    def test_source_excluded_from_relevance(self):
        ds = build_codenet()
        for qi, relevant in enumerate(ds.relevant):
            assert ds.exclude[qi] not in relevant

    def test_relevant_same_problem_only(self):
        ds = build_codenet()
        for qi, relevant in enumerate(ds.relevant):
            source_key = ds.corpus_keys[ds.exclude[qi]]
            assert all(ds.corpus_keys[ci] == source_key for ci in relevant)

    def test_clones_have_no_docstrings(self):
        for code in build_codenet().corpus:
            assert '"""' not in code

    def test_corpus_parses(self):
        for code in build_codenet().corpus:
            ast.parse(code)

    def test_deterministic(self):
        assert build_codenet(seed=3).corpus == build_codenet(seed=3).corpus


class TestAdvtest:
    def test_pairs_cover_all_variants(self):
        pairs = build_advtest()
        assert len(pairs) == sum(len(p.variants) for p in PROBLEMS)

    def test_identifiers_normalized(self):
        pairs = build_advtest()
        normalized = sum(1 for pair in pairs if "var0" in pair.code)
        assert normalized >= len(pairs) * 0.9

    def test_docs_match_problem(self):
        docstrings = {p.key: p.docstring for p in PROBLEMS}
        for pair in build_advtest():
            assert pair.doc == docstrings[pair.problem_key]

    def test_fitting_corpus_includes_both_regimes(self):
        corpus = fitting_corpus()
        assert len(corpus) == 2 * sum(len(p.variants) for p in PROBLEMS)

    def test_normalized_code_parses(self):
        for pair in build_advtest():
            ast.parse(pair.code)

"""Tests for the embedding-model zoo and the bi-encoder contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.ml.embedding import BiEncoder, CrossEncoder
from repro.ml.models import MODEL_REGISTRY, get_model

CODE_A = "def is_prime(num):\n    return all(num % i for i in range(2, num))\n"
CODE_B = "def sort_items(xs):\n    return sorted(xs)\n"


class TestRegistry:
    def test_all_models_instantiable(self):
        for name in MODEL_REGISTRY:
            model = get_model(name)
            assert model.name == name

    def test_paper_aliases(self):
        assert get_model("BAAI/bge-large-en").name == "bge-large-en"
        assert get_model("thenlper/gte-large").name == "gte-large"
        assert get_model("ReACC-retriever-py").name == "reacc-py-retriever"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError, match="unknown model"):
            get_model("gpt-17")


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestEmbeddingContract:
    """Every zoo model must satisfy the bi-encoder interface."""

    def test_shape_and_dtype(self, name):
        model = get_model(name, dim=512)
        matrix = model.embed([CODE_A, CODE_B], kind="code")
        assert matrix.shape == (2, 512)
        assert matrix.dtype == np.float32

    def test_rows_l2_normalized(self, name):
        model = get_model(name)
        matrix = np.vstack(
            [
                model.embed([CODE_A, CODE_B], kind="code"),
                model.embed(["check primes"], kind="text"),
            ]
        )
        norms = np.linalg.norm(matrix, axis=1)
        for norm in norms:
            assert norm == pytest.approx(1.0, abs=1e-5) or norm == 0.0

    def test_deterministic(self, name):
        model = get_model(name)
        a = model.embed_one(CODE_A, kind="code")
        b = model.embed_one(CODE_A, kind="code")
        np.testing.assert_array_equal(a, b)

    def test_self_similarity_is_maximal(self, name):
        model = get_model(name)
        matrix = model.embed([CODE_A, CODE_B], kind="code")
        sims = matrix @ matrix.T
        assert sims[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert sims[0, 1] <= sims[0, 0] + 1e-6

    def test_empty_text_embeds_to_zero_or_unit(self, name):
        vec = get_model(name).embed_one("", kind="text")
        norm = float(np.linalg.norm(vec))
        assert norm == pytest.approx(0.0, abs=1e-6) or norm == pytest.approx(1.0, abs=1e-5)

    def test_fit_returns_self(self, name):
        model = get_model(name)
        assert model.fit([CODE_A, CODE_B], kind="code") is model
        assert model.is_fitted


class TestModelBehaviours:
    """The mechanism-level properties DESIGN.md §5 promises."""

    def test_code_search_bridges_nl_to_identifiers(self):
        model = get_model("unixcoder-code-search")
        query = model.embed_one("checks whether a number is prime", kind="text")
        corpus = model.embed([CODE_A, CODE_B], kind="code")
        sims = corpus @ query
        assert sims[0] > sims[1]

    def test_base_model_misses_subtoken_alignment(self):
        base = get_model("unixcoder-base")
        tuned = get_model("unixcoder-code-search")
        query = "checks whether a number is prime"
        def margin(model):
            qvec = model.embed_one(query, kind="text")
            corpus = model.embed([CODE_A, CODE_B], kind="code")
            sims = corpus @ qvec
            return sims[0] - sims[1]
        assert margin(tuned) > margin(base)

    def test_clone_detection_rename_robust(self):
        model = get_model("unixcoder-clone-detection")
        renamed = CODE_A.replace("num", "value").replace("is_prime", "check_p")
        matrix = model.embed([CODE_A, renamed, CODE_B], kind="code")
        sims = matrix @ matrix.T
        assert sims[0, 1] > sims[0, 2]

    def test_reacc_prefix_robust(self):
        model = get_model("reacc-py-retriever")
        partial = CODE_A.splitlines()[0] + "\n"
        query = model.embed_one(partial, kind="code")
        corpus = model.embed([CODE_A, CODE_B], kind="code")
        sims = corpus @ query
        assert sims[0] > sims[1]

    def test_gte_destroyed_by_renaming_more_than_clone_model(self):
        gte = get_model("gte-large")
        clone_model = get_model("unixcoder-clone-detection")
        renamed = CODE_A.replace("num", "zq").replace("is_prime", "fn")
        def self_sim(model):
            matrix = model.embed([CODE_A, renamed], kind="code")
            return float(matrix[0] @ matrix[1])
        assert self_sim(clone_model) > self_sim(gte)

    def test_codebert_similarities_compressed(self):
        """Anisotropy: all pairwise similarities bunched together."""
        model = get_model("codebert")
        corpus = model.embed([CODE_A, CODE_B, CODE_A + CODE_B], kind="code")
        sims = corpus @ corpus.T
        off_diagonal = sims[np.triu_indices(3, k=1)]
        assert off_diagonal.min() > 0.3  # everything looks similar


class TestBiEncoder:
    def test_index_and_search(self):
        model = get_model("unixcoder-code-search")
        encoder = BiEncoder(model).index([CODE_A, CODE_B])
        results = encoder.search("test whether an integer is prime", k=2)
        assert results[0][0] == 0

    def test_search_before_index_rejected(self):
        encoder = BiEncoder(get_model("unixcoder-base"))
        with pytest.raises(RuntimeError, match="index"):
            encoder.search("x")


class TestCrossEncoder:
    def test_scores_relevant_pair_higher(self):
        model = get_model("unixcoder-code-search")
        cross = CrossEncoder(model)
        relevant = cross.score_pair("check if a number is prime", CODE_A)
        irrelevant = cross.score_pair("check if a number is prime", CODE_B)
        assert relevant > irrelevant

    def test_rank_orders_candidates(self):
        cross = CrossEncoder(get_model("unixcoder-code-search"))
        ranked = cross.rank("sort a list", [CODE_A, CODE_B])
        assert ranked[0][0] == 1

    def test_scores_bounded(self):
        cross = CrossEncoder(get_model("unixcoder-code-search"))
        score = cross.score_pair("primes", CODE_A)
        assert 0.0 <= score <= 1.0 + 1e-9


@given(st.text(max_size=150))
@settings(max_examples=30, deadline=None)
def test_every_model_total_on_arbitrary_input(text):
    """No input may crash an embedder (queries are user-controlled)."""
    for name in MODEL_REGISTRY:
        for kind in ("code", "text"):
            vec = get_model(name).embed_one(text, kind=kind)
            assert not np.isnan(vec).any()

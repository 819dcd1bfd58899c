"""Tests for AST feature extraction (structure, dataflow, docstrings)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.ast_features import (
    dataflow_pairs,
    docstring_of,
    parse_lenient,
    structural_features,
)

SAMPLE = '''
def is_prime(num):
    """Check whether num is prime."""
    if num < 2:
        return False
    for divisor in range(2, num):
        if num % divisor == 0:
            return False
    return True
'''


class TestParseLenient:
    def test_full_module(self):
        assert parse_lenient(SAMPLE) is not None

    def test_indented_fragment(self):
        assert parse_lenient("    x = 1\n    y = x + 1") is not None

    def test_bare_return_fragment(self):
        assert parse_lenient("return x * 2") is not None

    def test_truncated_code_prefix(self):
        truncated = SAMPLE.strip().rsplit("\n", 2)[0] + "\n    if num %"
        assert parse_lenient(truncated) is not None

    def test_hopeless_input_returns_none(self):
        assert parse_lenient(")(*&^%$") is None

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_never_raises(self, text):
        parse_lenient(text)


class TestStructuralFeatures:
    def test_families_present(self):
        features = structural_features(SAMPLE)
        prefixes = {f.split(":", 1)[0] for f in features}
        assert {"ast2", "call", "op", "shape"} <= prefixes

    def test_call_targets_extracted(self):
        assert "call:range" in structural_features(SAMPLE)

    def test_operator_kinds(self):
        features = structural_features(SAMPLE)
        assert "op:Mod" in features
        assert "op:Lt" in features

    def test_rename_invariance(self):
        renamed = SAMPLE.replace("num", "zzz").replace("divisor", "qqq")
        assert structural_features(SAMPLE) == structural_features(renamed)

    def test_shape_summary(self):
        features = structural_features(SAMPLE)
        assert "shape:loops=1" in features
        assert any(f.startswith("shape:depth=") for f in features)

    def test_ctx_nodes_filtered(self):
        # Load/Store/Del only say how a name is used; no edge names them
        edges = [f for f in structural_features(SAMPLE) if f.startswith("ast2:")]
        assert "ast2:FunctionDef>arguments" in edges
        assert not any(f.endswith((">Load", ">Store", ">Del")) for f in edges)

    def test_unparsable_gives_empty(self):
        assert structural_features("((((") == []


class TestDataflow:
    def test_def_use_pairs_slot_normalized(self):
        a = dataflow_pairs("def f(a):\n    b = a + 1\n    return b\n")
        b = dataflow_pairs("def f(x):\n    y = x + 1\n    return y\n")
        assert a == b
        assert a  # non-empty

    def test_augmented_assignment(self):
        features = dataflow_pairs("total = 0\nfor x in xs:\n    total += x\n")
        assert any("aug" in f for f in features)

    def test_loop_target_marked_iter(self):
        features = dataflow_pairs("for item in seq:\n    print(item)\n")
        assert any(f.endswith("<-iter") for f in features)

    def test_unparsable_gives_empty(self):
        assert dataflow_pairs("((((") == []


class TestDocAndNames:
    def test_docstring_of_function(self):
        assert docstring_of(SAMPLE) == "Check whether num is prime."

    def test_docstring_missing(self):
        assert docstring_of("def f():\n    return 1\n") == ""

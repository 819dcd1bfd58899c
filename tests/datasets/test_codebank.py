"""Tests of the code bank, including differential execution of variants.

Every problem's implementation variants must be *behaviourally
equivalent* — this is what makes the clone clusters of the CodeNet-like
dataset semantically honest.  We execute each variant on sample inputs
and compare outputs across variants.
"""

import ast

import pytest

from repro.datasets.codebank import PROBLEM_INDEX, PROBLEMS, all_canonical_sources

#: sample invocations per problem key: list of argument tuples
SAMPLE_CALLS: dict[str, list[tuple]] = {
    "is_prime": [(2,), (7,), (8,), (1,), (97,)],
    "gcd": [(12, 18), (7, 13), (100, 10)],
    "fibonacci": [(0,), (1,), (7,)],
    "factorial": [(0,), (1,), (6,)],
    "collatz": [(1,), (6,), (27,)],
    "prime_factors": [(84,), (97,), (1,)],
    "is_palindrome": [("Level",), ("python",), ("",)],
    "count_vowels": [("Hello World",), ("xyz",)],
    "word_count": [("a b a",), ("",)],
    "reverse_words": [("one two three",), ("single",)],
    "is_anagram": [("listen", "silent"), ("abc", "abd")],
    "caesar_cipher": [("abc xyz", 2), ("Hello, World!", 13)],
    "levenshtein": [("kitten", "sitting"), ("", "abc"), ("same", "same")],
    "find_max": [([3, 1, 4, 1, 5],), ([-2, -7],)],
    "moving_average": [([1, 2, 3, 4], 2), ([5, 5, 5], 3)],
    "flatten": [([1, [2, [3]], 4],), ([],)],
    "chunk_list": [([1, 2, 3, 4, 5], 2), ([], 3)],
    "dedupe": [([1, 2, 1, 3, 2],), ([],)],
    "merge_sorted": [([1, 3, 5], [2, 4]), ([], [1])],
    "binary_search": [([1, 3, 5, 7], 5), ([1, 3, 5, 7], 4), ([], 1)],
    "quicksort": [([3, 1, 2],), ([],), ([5, 5, 1],)],
    "bubble_sort": [([3, 1, 2],), ([],)],
    "rotate_list": [([1, 2, 3, 4], 1), ([1, 2, 3], 5), ([], 2)],
    "invert_dict": [({"a": 1, "b": 2},), ({},)],
    "group_by_key": [([("a", 1), ("a", 2), ("b", 3)],), ([],)],
    "most_common": [([1, 2, 2, 3],), (["x"],)],
    "parse_json_field": [('{"a": 5}', "a"), ('{"a": 5}', "b")],
    "celsius_to_fahrenheit": [(0,), (100,), (-40,)],
    "std_dev": [([1, 2, 3, 4],), ([5, 5],)],
    "dot_product": [([1, 2], [3, 4]), ([], [])],
    "transpose": [([[1, 2], [3, 4]],), ([[1, 2, 3]],)],
    "roman_numerals": [(1994,), (4,), (3888,)],
    "leap_year": [(2000,), (1900,), (2024,), (2023,)],
    "find_emails": [("mail a.b@c.org and x@y.io now",), ("none here",)],
    "slugify": [("Hello, World!",), ("  many   spaces  ",)],
    "running_total": [([1, 2, 3],), ([],)],
    "second_largest": [([5, 1, 5, 3],), ([2, 2],)],
    "is_armstrong": [(153,), (154,), (9,)],
    "digit_sum": [(1234,), (0,), (999,)],
    "swap_case": [("aBc",), ("",)],
    "clamp": [(5, 1, 3), (0, 1, 3), (2, 1, 3)],
    "histogram_bins": [([1, 2, 3, 9], 2, 0, 10), ([], 3, 0, 1)],
    "max_subarray": [([-2, 1, -3, 4, -1, 2, 1, -5, 4],), ([-3, -1, -2],)],
    "binary_to_decimal": [("1011",), ("0",), ("11111111",)],
    "common_elements": [([1, 2, 3, 2], [2, 4]), ([], [1])],
    "title_case": [("hello world",), ("a  b",), ("",)],
}

# file-based problems need a real file argument
FILE_PROBLEMS = {"read_lines", "count_lines"}


def run_variant(source: str, args: tuple):
    namespace: dict = {}
    exec(compile(source, "<variant>", "exec"), namespace)
    functions = [
        value
        for name, value in namespace.items()
        if callable(value) and not name.startswith("__")
    ]
    assert len(functions) >= 1, "variant defines no function"
    return functions[0](*args)


class TestBankStructure:
    def test_bank_size_sufficient_for_figure7_scenario(self):
        assert len(PROBLEMS) >= 40

    def test_every_problem_has_multiple_variants(self):
        for problem in PROBLEMS:
            assert len(problem.variants) >= 2, problem.key

    def test_every_problem_has_queries_and_docstring(self):
        for problem in PROBLEMS:
            assert len(problem.queries) >= 2
            assert problem.docstring.endswith(".")

    def test_unique_keys(self):
        keys = [p.key for p in PROBLEMS]
        assert len(keys) == len(set(keys))

    def test_all_variants_parse(self):
        for source in all_canonical_sources():
            ast.parse(source)

    def test_variants_of_problem_differ_structurally(self):
        """Variants are genuinely different implementations, not renames."""
        from repro.ml.ast_features import structural_features

        different = 0
        for problem in PROBLEMS:
            shapes = {frozenset(structural_features(v)) for v in problem.variants}
            if len(shapes) == len(problem.variants):
                different += 1
        assert different >= len(PROBLEMS) * 0.9

    def test_canonical_corpus_size(self):
        assert len(all_canonical_sources()) >= 80


@pytest.mark.parametrize("key", sorted(SAMPLE_CALLS))
class TestVariantEquivalence:
    def test_variants_agree_on_samples(self, key):
        problem = PROBLEM_INDEX[key]
        for args in SAMPLE_CALLS[key]:
            outputs = [run_variant(v, args) for v in problem.variants]
            first = outputs[0]
            for other in outputs[1:]:
                assert other == first, (
                    f"{key}{args}: variants disagree: {first!r} vs {other!r}"
                )


class TestFileProblems:
    def test_read_lines_variants(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(" a \nb\n")
        problem = PROBLEM_INDEX["read_lines"]
        outputs = [run_variant(v, (str(path),)) for v in problem.variants]
        assert all(o == ["a", "b"] for o in outputs)

    def test_count_lines_variants(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n2\n3\n")
        problem = PROBLEM_INDEX["count_lines"]
        outputs = [run_variant(v, (str(path),)) for v in problem.variants]
        assert all(o == 3 for o in outputs)

    def test_every_problem_is_covered_by_a_sample(self):
        covered = set(SAMPLE_CALLS) | FILE_PROBLEMS
        assert covered == {p.key for p in PROBLEMS}

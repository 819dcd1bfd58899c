"""Tests for code/NL tokenizers, including totality properties."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tokenize import (
    char_ngrams,
    code_identifiers,
    identifier_subtokens,
    split_subtokens,
    stem,
    token_ngrams,
    tokenize_code,
    tokenize_text,
)


class TestCodeTokenizer:
    def test_basic_statement(self):
        tokens = tokenize_code("result = random.randint(1, 1000)")
        assert "result" in tokens
        assert "randint" in tokens
        assert "<num>" in tokens
        assert "(" in tokens and ")" in tokens

    def test_strings_abstracted_with_words_kept(self):
        tokens = tokenize_code('greeting = "Hello World"')
        assert "<str>" in tokens
        assert "hello" in tokens and "world" in tokens

    def test_operators_tokenized(self):
        tokens = tokenize_code("a == b != c <= d ** e // f")
        for op in ("==", "!=", "<=", "**", "//"):
            assert op in tokens

    def test_partial_code_never_raises(self):
        # completion queries are partial programs
        tokenize_code("def broken(:")
        tokenize_code("for i in range(")
        tokenize_code("")

    @given(st.text(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        tokens = tokenize_code(text)
        assert all(isinstance(t, str) and t for t in tokens)


class TestSubtokens:
    def test_snake_case(self):
        assert split_subtokens("read_ra_dec") == ("read", "ra", "dec")

    def test_camel_case(self):
        assert split_subtokens("getVoTable") == ("get", "vo", "table")

    def test_pascal_case(self):
        assert split_subtokens("NumberProducer") == ("number", "producer")

    def test_allcaps_run(self):
        assert split_subtokens("HTTPServer") == ("http", "server")

    def test_digits_dropped(self):
        assert split_subtokens("var2name3") == ("var", "name")

    def test_empty(self):
        assert split_subtokens("") == ()
        assert split_subtokens("_") == ()

    @given(st.text(alphabet=st.characters(categories=("Ll", "Lu", "Nd")), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_subtokens_lowercase_alpha(self, identifier):
        for sub in split_subtokens(identifier):
            assert sub.islower()
            assert sub.isalpha()


def chunked_subtokens(identifier):
    """The reference split: each ``_``-separated chunk on its own, its
    capital/lowercase/digit runs found, the digit runs dropped."""
    return tuple(
        piece.lower()
        for chunk in identifier.split("_")
        for piece in re.findall(
            r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+", chunk
        )
        if not piece.isdigit()
    )


class TestSubtokenScan:
    @given(st.text(alphabet="aBzZ_09é٣ .-", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_one_scan_splits_as_the_chunks_do(self, identifier):
        assert split_subtokens(identifier) == chunked_subtokens(identifier)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_on_any_text(self, identifier):
        assert split_subtokens(identifier) == chunked_subtokens(identifier)


class TestTextTokenizer:
    def test_synonym_bridge(self):
        tokens = tokenize_text("checks whether a number is prime")
        assert "check" in tokens  # 'checks' -> synonym 'check'
        assert "num" in tokens  # 'number' -> 'num'

    def test_no_normalization_mode(self):
        tokens = tokenize_text("checks numbers", synonyms=False, stemming=False)
        assert tokens == ["checks", "numbers"]

    def test_stemming(self):
        assert stem("sorting") == "sort"
        assert stem("sorted") == "sort"
        assert stem("is") == "is"  # too short to strip

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        tokens = tokenize_text(text)
        assert all(t for t in tokens)


class TestNgramsAndIdentifiers:
    def test_char_ngrams_window(self):
        assert char_ngrams("abcd", 3) == ["abc", "bcd"]

    def test_char_ngrams_collapse_whitespace(self):
        assert char_ngrams("a  b", 3) == ["a b"]

    def test_char_ngrams_short_input(self):
        assert char_ngrams("ab", 3) == ["ab"]
        assert char_ngrams("", 3) == []

    def test_token_ngrams(self):
        grams = token_ngrams(["a", "b", "c"], 2)
        assert len(grams) == 2
        assert grams[0] != grams[1]

    def test_token_ngrams_too_short(self):
        assert token_ngrams(["a"], 2) == []

    def test_code_identifiers_skip_keywords(self):
        names = code_identifiers("def f(x):\n    return x + len(y)")
        assert "f" in names and "x" in names and "y" in names
        assert "def" not in names and "return" not in names and "len" not in names

    def test_identifier_subtokens_flatten(self):
        subs = identifier_subtokens("def is_prime(num): pass")
        assert "is" in subs and "prime" in subs and "num" in subs

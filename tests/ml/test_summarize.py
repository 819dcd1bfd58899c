"""Tests for the CodeT5-substitute summarizer."""

import hashlib

from repro.ml.summarize import CodeT5Summarizer, summarize_code
from tests.helpers import e2e_style_functions


class TestDocstringPriority:
    def test_docstring_wins(self):
        source = 'def f(x):\n    """Compute the froop of x."""\n    return x\n'
        summary = summarize_code(source)
        assert summary.text == "Compute the froop of x."
        assert summary.source == "docstring"

    def test_process_method_docstring_used_for_pe(self):
        source = (
            "class MyPE(IterativePE):\n"
            "    def _process(self, data):\n"
            '        """Stream the squares of incoming values."""\n'
            "        return data * data\n"
        )
        assert summarize_code(source).text == "Stream the squares of incoming values."

    def test_multiline_docstring_first_line_only(self):
        source = 'def f():\n    """First line.\n\n    More detail.\n    """\n'
        assert summarize_code(source).text == "First line."


class TestCommentFallback:
    def test_leading_comment_used(self):
        source = (
            "class NumberProducer(ProducerPE):\n"
            "    def _process(self):\n"
            "        # Generate a random number\n"
            "        return random.randint(1, 1000)\n"
        )
        summary = summarize_code(source)
        assert summary.text == "Generate a random number."
        assert summary.source == "comment"


class TestTemplateFallback:
    def test_is_prefix_name(self):
        source = (
            "class IsPrime(IterativePE):\n"
            "    def _process(self, num):\n"
            "        if all(num % i != 0 for i in range(2, num)):\n"
            "            return num\n"
        )
        text = summarize_code(source).text
        assert "checks whether the input is prime" in text

    def test_verb_name_phrasing(self):
        source = (
            "class FilterColumns(IterativePE):\n"
            "    def _process(self, row):\n"
            "        return row\n"
        )
        text = summarize_code(source).text.lower()
        assert "filters columns" in text

    def test_producer_suffix_phrasing(self):
        source = (
            "class NumberProducer(ProducerPE):\n"
            "    def _process(self):\n"
            "        return 4\n"
        )
        text = summarize_code(source).text.lower()
        assert "produces number data" in text

    def test_idiom_mining(self):
        source = (
            "class R(ProducerPE):\n"
            "    def _process(self):\n"
            "        return random.randint(1, 10)\n"
        )
        text = summarize_code(source).text.lower()
        assert "random" in text

    def test_name_parameter_used_for_fragments(self):
        text = summarize_code("x % 2 == 0", name="IsEven").text
        assert "even" in text.lower()

    def test_unparsable_code_still_summarized(self):
        text = summarize_code(")(", name="Mystery").text
        assert text.endswith(".")
        assert len(text) > 5

    def test_no_name_no_parse_generic(self):
        text = summarize_code(")(").text
        assert "streaming data" in text


class TestWrapper:
    def test_codet5_summarizer_interface(self):
        summarizer = CodeT5Summarizer()
        assert summarizer.name == "codet5-base-multi-sum"
        text = summarizer.summarize("def add(a, b):\n    return a + b\n")
        assert isinstance(text, str) and text


def test_ingest_style_corpus_summaries_are_pinned():
    """Byte-identical to the summarizer that walked the tree five times
    (the digest was taken from it): every fourth function has no
    docstring and exercises the template path."""
    digest = hashlib.sha256()
    for source, _doc in e2e_style_functions(200):
        digest.update(summarize_code(source).text.encode())
    assert digest.hexdigest()[:32] == "0433084de85c5ddbac03f6b20ba2c224"

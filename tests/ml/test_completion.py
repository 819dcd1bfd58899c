"""Suffix alignment for retrieval-based code completion (the ReACC
role); the served route's completion pins are in
``tests/server/test_v1_api.py::TestCodeCompletion``."""

from repro.ml.completion import align_continuation

PRODUCER = (
    "class NumberProducer(ProducerPE):\n"
    "    def _process(self):\n"
    "        result = random.randint(1, 1000)\n"
    "        return result\n"
)
PRIME = (
    "class IsPrime(IterativePE):\n"
    "    def _process(self, num):\n"
    "        if all(num % i != 0 for i in range(2, num)):\n"
    "            return num\n"
)


class TestAlignment:
    def test_continuation_after_matched_region(self):
        query = "result = random.randint(1, 1000)"
        continuation = align_continuation(query, PRODUCER)
        assert "return result" in continuation
        assert "class NumberProducer" not in continuation

    def test_no_alignment_returns_whole_candidate(self):
        continuation = align_continuation("zzz qqq www", PRIME)
        assert continuation == PRIME

    def test_empty_query_returns_candidate(self):
        assert align_continuation("", PRIME) == PRIME

    def test_empty_candidate(self):
        assert align_continuation("x = 1", "") == ""

    def test_prefix_query_full_alignment(self):
        lines = PRIME.splitlines()
        partial = "\n".join(lines[:2])
        continuation = align_continuation(partial, PRIME)
        assert continuation.strip().startswith("if all(")

    def test_only_the_trailing_window_aligns(self):
        # tokens before the last ``window`` ones play no part
        query = "zzz qqq www " * 5 + "result = random.randint(1, 1000)"
        continuation = align_continuation(query, PRODUCER)
        assert continuation == "        return result\n"

    def test_first_of_equal_alignments_wins(self):
        candidate = "x = 1\ny = 2\nx = 1\nz = 3\n"
        assert align_continuation("x = 1", candidate) == "y = 2\nx = 1\nz = 3\n"

    def test_string_literal_is_one_token(self):
        candidate = "s = 'a b'\nreturn s\n"
        assert align_continuation("s = 'a b'", candidate) == "return s\n"
        # a literal matches whole or not at all
        assert align_continuation("'a'", candidate) == candidate

    def test_query_ending_the_candidate_leaves_nothing(self):
        assert align_continuation(PRODUCER, PRODUCER) == ""

"""The (code, source) codec: lossless, never larger, corruption raises.

:func:`~repro.registry.textcodec.encode_texts` deflates a record's code,
and its source against the code as a preset dictionary; each value is
stored as a blob only when strictly shorter than its UTF-8 text.
:func:`~repro.registry.textcodec.decode_texts` reads a text value as
itself (a v13 row) and raises ``ValueError`` on a truncated or altered
blob.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.textcodec import _WBITS, decode_texts, encode_texts

#: the deflate window, in bytes: a longer text still round-trips
WINDOW = 1 << _WBITS

CODE = "".join(
    f"def step_{i}(items, limit={i}):\n"
    f"    total = {i}\n"
    "    for item in items:\n"
    "        if item > limit:\n"
    f"            total += item * {i % 7 + 2}\n"
    "    return total\n\n"
    for i in range(4)
)
SOURCE = f"# module: pkg/mod_0001.py\nimport json\nimport os\n\n{CODE}"


def stored_size(value):
    return len(value) if isinstance(value, bytes) else len(value.encode())


def repeated(min_bytes):
    """Text of at least ``min_bytes`` UTF-8 bytes: a drawn unit repeated
    with a counter, so it is neither random noise nor one run."""
    return st.text(min_size=1, max_size=24).map(
        lambda unit: "".join(
            f"{unit}{i}\n"
            for i in range(min_bytes // len(unit.encode()) + 1)
        )
    )


texts = st.one_of(st.text(), st.text(alphabet="\x00ab\n"), repeated(400))

#: (code, source): a source that contains its code, an unrelated one,
#: and either longer than the deflate window
pairs = st.one_of(
    st.tuples(texts, texts, texts).map(
        lambda t: (t[1], t[0] + t[1] + t[2])
    ),
    st.tuples(texts, texts),
    st.tuples(repeated(WINDOW + 200), texts).map(
        lambda t: (t[0], t[1] + t[0])
    ),
    st.tuples(texts, repeated(2 * WINDOW)),
)

EDGES = [
    ("", ""),
    ("\x00", "\x00\x00code\x00"),
    ("𝔡𝔢𝔣 𝔣(): 🙂\n" * 40, "# ☃\n" + "𝔡𝔢𝔣 𝔣(): 🙂\n" * 40),
    (CODE * 8, "# header\n" + CODE * 8),  # longer than the window
    (CODE, SOURCE),
    (CODE, "an unrelated source " * 30),
    ("x = 1", ""),
    ("", SOURCE),
]


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(pairs)
    def test_decode_inverts_encode(self, pair):
        stored = encode_texts(*pair)
        assert decode_texts(*stored) == pair
        for value, text in zip(stored, pair):
            # a blob only when strictly shorter; text stays text
            assert stored_size(value) <= len(text.encode())
            if isinstance(value, bytes):
                assert len(value) < len(text.encode())
            else:
                assert value == text

    @pytest.mark.parametrize("pair", EDGES, ids=range(len(EDGES)))
    def test_edges(self, pair):
        stored = encode_texts(*pair)
        assert decode_texts(*stored) == pair
        assert all(
            stored_size(value) <= len(text.encode())
            for value, text in zip(stored, pair)
        )

    def test_a_source_that_contains_its_code_costs_its_extra_text(self):
        code, source = encode_texts(CODE, SOURCE)
        assert isinstance(code, bytes) and isinstance(source, bytes)
        # the header and imports, not the code again: the extra text
        # plus zlib's 10 bytes of framing and a back-reference
        alone = encode_texts("", SOURCE)[1]
        assert len(source) < len(alone) // 2
        assert len(source) <= len(SOURCE) - len(CODE) + 16

    def test_text_values_read_as_themselves(self):
        """A v13 row: code and source are TEXT; either column may be a
        blob while the other is text."""
        assert decode_texts(CODE, SOURCE) == (CODE, SOURCE)
        code, source = encode_texts(CODE, SOURCE)
        assert decode_texts(CODE, source) == (CODE, SOURCE)
        assert decode_texts(code, SOURCE) == (CODE, SOURCE)


class TestCorruption:
    @pytest.mark.parametrize("column", [0, 1], ids=["code", "source"])
    def test_every_truncation_raises(self, column):
        stored = list(encode_texts(CODE, SOURCE))
        blob = stored[column]
        for cut in range(len(blob)):
            stored[column] = blob[:cut]
            with pytest.raises(ValueError):
                decode_texts(*stored)

    @pytest.mark.parametrize("column", [0, 1], ids=["code", "source"])
    def test_every_flipped_bit_raises_or_is_never_read(self, column):
        """A flipped bit raises — unless it is one of the padding bits
        that end the deflate data before the checksum, which inflate
        never reads: those decode to the same texts."""
        stored = list(encode_texts(CODE, SOURCE))
        blob = stored[column]
        unread = []
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            stored[column] = bytes(flipped)
            try:
                texts = decode_texts(*stored)
            except ValueError:
                continue
            assert texts == (CODE, SOURCE)
            unread.append(bit)
        # at most seven, all in the last byte before the 4-byte trailer
        assert len(unread) <= 7
        assert {bit // 8 for bit in unread} <= {len(blob) - 5}

    def test_trailing_bytes_raise(self):
        code, source = encode_texts(CODE, SOURCE)
        with pytest.raises(ValueError):
            decode_texts(code + b"\x00", source)
        with pytest.raises(ValueError):
            decode_texts(code, source + b"\x00")

    def test_a_source_read_against_another_code_raises(self):
        _, source = encode_texts(CODE, SOURCE)
        with pytest.raises(ValueError):
            decode_texts(CODE.replace("total", "totals"), source)

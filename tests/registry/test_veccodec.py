"""The at-rest vector codec: bit-exact, validated, legacy-compatible.

Three layouts — dense, sparse (tag 1) and the value table (tag 2) — and
the encoder writes the strictly smallest; every decoder reads all three.
"""

import sqlite3
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.registry.veccodec import decode_many, decode_vector, encode_vector
from repro.search import KIND_CODE, KIND_DESC, VectorIndex
from tests.helpers import brute_force_index, shard_bytes
from tests.registry.test_attach import attached
from tests.registry.test_dao import make_pe

#: bit patterns zero-suppression must not touch: -0.0, a quiet and a
#: signalling NaN with payloads, infinities, the smallest denormal
SPECIALS = np.array(
    [0x80000000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0x7F800000,
     0xFF800000, 0x00000001],
    dtype=np.uint32,
)


@st.composite
def matrices(draw, max_rows=6, max_dim=40, min_rows=0):
    """float32 matrices as raw bit patterns, from all-zero to full."""
    rows = draw(st.integers(min_rows, max_rows))
    dim = draw(st.integers(0, max_dim))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.5, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**32, size=(rows, dim), dtype=np.uint32)
    special = rng.random((rows, dim)) < 0.1
    bits[special] = rng.choice(SPECIALS, size=int(special.sum()))
    bits[rng.random((rows, dim)) >= density] = 0
    # per-row density varies too: blank one row, fill another
    if rows >= 2:
        bits[draw(st.integers(0, rows - 1))] = 0
        bits[draw(st.integers(0, rows - 1))] |= 0x3F800000
    return bits.view(np.float32)


def vectors(max_dim=40):
    return matrices(min_rows=1, max_rows=1, max_dim=max_dim).map(
        lambda matrix: matrix[0]
    )


@st.composite
def palette_matrices(draw, max_rows=6, max_dim=40, min_rows=0):
    """float32 matrices whose non-zeros take a few distinct bit patterns
    (special ones among them) — the value table's home ground — with
    now and then a row of many distinct values or none."""
    rows = draw(st.integers(min_rows, max_rows))
    dim = draw(st.integers(0, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.integers(1, 2**32, size=draw(st.integers(1, 8)),
                           dtype=np.uint32)
    palette[rng.random(palette.shape[0]) < 0.3] = rng.choice(SPECIALS)
    bits = rng.choice(palette, size=(rows, dim))
    bits[rng.random((rows, dim)) >= draw(st.sampled_from([0.1, 0.3, 0.6]))] = 0
    if rows >= 2:
        bits[draw(st.integers(0, rows - 1))] = 0
        many = draw(st.integers(0, rows - 1))
        bits[many] = rng.integers(1, 2**32, size=dim, dtype=np.uint32)
    return bits.view(np.float32)


def palette_vectors(max_dim=40):
    return palette_matrices(min_rows=1, max_rows=1, max_dim=max_dim).map(
        lambda matrix: matrix[0]
    )


def any_matrices(**sizes):
    return st.one_of(matrices(**sizes), palette_matrices(**sizes))


def is_headed(blob):
    """A sparse or value-table blob: a dense one's length is a multiple
    of four, a headed one's never is."""
    return len(blob) % 4 != 0


def tag(blob):
    """1 sparse, 2 value table, 0 dense."""
    return blob[-1] if is_headed(blob) else 0


def seal(body, dim, rows=1, layout=1):
    sealed = body + struct.pack("=II", rows, dim)
    return sealed + struct.pack("=IB", zlib.crc32(sealed), layout)


def table_blob(vector):
    """The value-table layout written out by hand, the reference the
    encoder's table blobs must equal byte for byte: count, nvals, the
    distinct bit patterns ascending, then a (code, column step) byte
    pair per stored value in column order, sealed with tag 2."""
    bits = vector.view(np.uint32)
    columns = [c for c in range(bits.shape[0]) if bits[c]]
    table = sorted({int(bits[c]) for c in columns})
    body = struct.pack(f"=II{len(table)}I", len(columns), len(table), *table)
    previous = 0
    for column in columns:
        body += bytes([table.index(int(bits[column])), column - previous])
        previous = column
    return seal(body, bits.shape[0], layout=2)


def kept_whole(vector):
    """The layout's ``count == dim`` form of a vector: every value, no
    columns.  The encoder never picks it for a single vector (dense is
    smaller), but it is part of the layout, so both decoders read it."""
    return seal(
        struct.pack("=I", vector.shape[0]) + vector.tobytes(), vector.shape[0]
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(vectors(), palette_vectors()))
    def test_decode_of_encode_is_the_same_bytes(self, vector):
        blob = encode_vector(vector)
        decoded = decode_vector(blob)
        assert decoded.tobytes() == vector.tobytes()
        assert decoded.shape == vector.shape
        assert decoded.dtype == np.float32
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        # never larger than dense; a headed layout only when smaller
        assert len(blob) <= vector.nbytes
        assert is_headed(blob) == (len(blob) < vector.nbytes)

    def test_typical_embedding_is_stored_sparse(self):
        vec = np.zeros(2048, dtype=np.float32)
        vec[[3, 700, 2047]] = [0.5, -0.25, 1.0]
        blob = encode_vector(vec)
        assert len(blob) == 4 + 3 * 6 + 13
        assert decode_vector(blob).tobytes() == vec.tobytes()

    def test_vector_kept_whole_inside_the_sparse_layout(self):
        vec = np.arange(1, 33, dtype=np.float32)
        assert decode_vector(kept_whole(vec)).tobytes() == vec.tobytes()

    def test_width_beyond_uint16_columns_falls_back_to_dense(self):
        assert is_headed(encode_vector(np.zeros(0xFFFF, dtype=np.float32)))
        wider = np.zeros(0x10000, dtype=np.float32)
        wider[0xFFFF] = 1.0
        blob = encode_vector(wider)
        assert blob == wider.tobytes()
        assert decode_vector(blob).tobytes() == wider.tobytes()

    def test_legacy_dense_blob_decodes_through_the_same_function(self):
        vec = np.zeros(16, dtype=np.float32)
        vec[1] = 2.0
        legacy = vec.tobytes()  # what schema v6 and older stored
        assert legacy != encode_vector(vec)
        assert decode_vector(legacy).tobytes() == legacy


def spread(rng, dim, count, distinct):
    """A ``dim``-wide vector of ``count`` non-zeros using exactly
    ``distinct`` bit patterns (``distinct`` may be a palette)."""
    palette = (
        distinct
        if isinstance(distinct, np.ndarray)
        else rng.choice(2**31 - 1, size=distinct, replace=False).astype(
            np.uint32
        ) + 1
    )
    bits = np.zeros(dim, dtype=np.uint32)
    values = palette[np.arange(count) % palette.shape[0]]
    bits[np.sort(rng.choice(dim, size=count, replace=False))] = (
        rng.permutation(values)
    )
    return bits.view(np.float32)


class TestValueTable:
    """The third layout: distinct bit patterns once, a byte code and a
    byte column step per stored value."""

    @pytest.mark.parametrize(
        "dim, count, distinct, layout",
        [
            # -0.0, NaN payloads, infinities, a denormal
            (2048, 300, SPECIALS, 2),
            (2048, 200, 1, 2),
            (2048, 700, 256, 2),
            # one value too many for a byte code: stays sparse
            (2048, 700, 257, 1),
            # a width that is not a multiple of 8
            (1001, 150, 10, 2),
        ],
        ids=["specials", "one-value", "256-values", "257-values", "dim-1001"],
    )
    def test_round_trip_is_bitwise(self, dim, count, distinct, layout):
        rng = np.random.default_rng(dim + count)
        vector = spread(rng, dim, count, distinct)
        blob = encode_vector(vector)
        assert tag(blob) == layout
        if layout == 2:
            assert blob == table_blob(vector)
        assert decode_vector(blob).tobytes() == vector.tobytes()
        pair = np.stack([vector, vector])
        assert decode_many([blob, blob]).tobytes() == pair.tobytes()

    def test_the_all_zero_vector(self):
        """Stored sparse (17 bytes); its table form, never written, still
        decodes."""
        vector = np.zeros(300, dtype=np.float32)
        assert tag(encode_vector(vector)) == 1
        blob = table_blob(vector)
        assert len(blob) == 21
        assert decode_vector(blob).tobytes() == vector.tobytes()
        assert decode_many([blob]).tobytes() == vector.tobytes()

    @pytest.mark.parametrize(
        "columns, layout",
        [
            ([256, 300, 301, 302], 1),  # the first column is its step
            ([0, 256, 257, 258], 1),
            ([0, 255, 256, 257], 2),  # steps 0, 255, 1, 1: a byte each
        ],
    )
    def test_a_column_step_beyond_a_byte_stays_sparse(self, columns, layout):
        vector = np.zeros(512, dtype=np.float32)
        vector[columns] = 0.5
        blob = encode_vector(vector)
        assert tag(blob) == layout
        assert decode_vector(blob).tobytes() == vector.tobytes()

    def test_benchmark_shaped_code_vector(self):
        """200 non-zeros of 2 048, 24 distinct: 517 bytes instead of the
        sparse layout's 1 217."""
        rng = np.random.default_rng(5)
        vector = spread(rng, 2048, 200, 24)
        assert len(encode_vector(vector)) == 8 + 4 * 24 + 2 * 200 + 13 == 517
        assert len(encode_through_blocks(vector.reshape(1, -1))) == 1217

    @settings(max_examples=200, deadline=None)
    @given(palette_vectors(max_dim=80))
    def test_a_table_blob_length_is_never_a_multiple_of_four(self, vector):
        blob = encode_vector(vector)
        if tag(blob) == 2:
            assert len(blob) % 2 == 1
            assert blob == table_blob(vector)

    def small_table_blob(self):
        rng = np.random.default_rng(6)
        vector = spread(rng, 40, 12, 2)
        blob = encode_vector(vector)
        assert tag(blob) == 2
        return vector, blob

    def test_every_bit_flip_raises(self):
        _vector, blob = self.small_table_blob()
        for position in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[position // 8] ^= 1 << (position % 8)
            with pytest.raises(ValueError):
                decode_vector(bytes(flipped))
            with pytest.raises(ValueError):
                decode_many([blob, bytes(flipped)])

    def test_every_truncation_raises_or_reads_as_narrower_dense(self):
        _vector, blob = self.small_table_blob()
        for cut in range(len(blob)):
            if cut % 4:
                with pytest.raises(ValueError):
                    decode_vector(blob[:cut])
                with pytest.raises(ValueError):
                    decode_many([blob[:cut]])
            else:
                assert decode_vector(blob[:cut]).tobytes() == blob[:cut]

    @pytest.mark.parametrize(
        "body, dim, message",
        [
            # count 1, nvals 1: code 1 of a one-value table
            (struct.pack("=III", 1, 1, 7) + bytes([1, 0]), 8, "out of range"),
            # a step that lands past the last column
            (struct.pack("=III", 2, 1, 7) + bytes([0, 3, 0, 5]), 8,
             "out of range"),
            # 257 values: more than a byte code can name
            (struct.pack("=II", 0, 257) + bytes(4 * 257), 8,
             "inconsistent value table"),
            # a pair short
            (struct.pack("=III", 2, 1, 7) + bytes([0, 1]), 8, "truncated"),
        ],
        ids=["code", "column", "nvals", "length"],
    )
    def test_a_well_sealed_but_inconsistent_blob_is_a_value_error(
        self, body, dim, message
    ):
        blob = seal(body, dim, layout=2)
        good = table_blob(spread(np.random.default_rng(7), dim, 4, 1))
        with pytest.raises(ValueError, match=message):
            decode_vector(blob)
        for rows in ([blob], [good, blob], [blob, good]):
            with pytest.raises(ValueError, match=message):
                decode_many(rows)

    def test_decode_many_over_all_three_layouts_equals_row_by_row(self):
        rng = np.random.default_rng(8)
        rows = [
            spread(rng, 64, 20, 3),  # value table
            spread(rng, 64, 6, 6),  # sparse
            spread(rng, 64, 60, 60),  # dense
            np.zeros(64, dtype=np.float32),  # sparse, empty
            spread(rng, 64, 30, SPECIALS),  # value table
        ]
        blobs = [encode_vector(row) for row in rows]
        assert [tag(blob) for blob in blobs] == [2, 1, 0, 1, 2]
        # and the forms a record row may still hold from older code
        blobs += [rows[0].tobytes(), kept_whole(rows[4])]
        matrix = np.stack(rows + [rows[0], rows[4]])
        reference = np.stack([decode_vector(blob) for blob in blobs])
        assert reference.tobytes() == matrix.tobytes()
        for order in (range(len(blobs)), reversed(range(len(blobs)))):
            order = list(order)
            decoded = decode_many([blobs[i] for i in order])
            assert decoded.tobytes() == matrix[order].tobytes()


def encode_through_blocks(matrix):
    """The multi-row layout as base slabs stored it until schema v9:
    the reference a vector's blob must match byte for byte (it is that
    layout's one-row case, so legacy rows and new ones are one format)."""
    rows, dim = matrix.shape
    stored = matrix.view(np.uint32) != 0
    nnz = np.count_nonzero(stored, axis=1)
    keep_dense = 6 * nnz >= 4 * dim
    stored[keep_dense] = True
    counts = np.where(keep_dense, dim, nnz).astype(np.uint32)
    flat = np.flatnonzero(stored)
    values = matrix.reshape(-1)[flat].tobytes()
    columns = (flat[~np.repeat(keep_dense, counts)] % dim).astype(np.uint16)
    sealed = b"".join(
        (counts.tobytes(), values, columns.tobytes(),
         struct.pack("=II", rows, dim))
    )
    if len(sealed) + 5 < matrix.nbytes:
        return sealed + struct.pack("=IB", zlib.crc32(sealed), 1)
    return matrix.tobytes()


def parent_encode_vector(vector):
    """The encoder as it was before the distinct-prefix shortcut — every
    eligible vector's distinct values counted in full — kept as the
    reference :func:`encode_vector` must equal byte for byte."""
    row = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    dim = row.shape[0]
    if not 0 < dim <= 0xFFFF:
        return row.tobytes()
    bits = row.view(np.uint32)
    stored = bits.nonzero()[0]
    count = len(stored)
    sparse = 4 + 6 * count + 13
    best = min(sparse, dim * 4)
    if 8 + 4 + 2 * count + 13 < best:
        steps = stored.copy()
        steps[1:] -= stored[:-1]
        if steps.max() <= 255:
            values = bits[stored]
            table = np.unique(values)
            size = 8 + 4 * len(table) + 2 * count + 13
            if len(table) <= 256 and size < best:
                pairs = np.empty((count, 2), dtype=np.uint8)
                pairs[:, 0] = table.searchsorted(values)
                pairs[:, 1] = steps
                body = struct.pack("=II", count, len(table))
                return seal(body + table.tobytes() + pairs.tobytes(), dim,
                            layout=2)
    if sparse < dim * 4:
        body = struct.pack("=I", count) + row[stored].tobytes()
        return seal(body + stored.astype(np.uint16).tobytes(), dim)
    return row.tobytes()


@st.composite
def wide_vectors(draw):
    """Vectors on both sides of the shortcut: up to 2 048 wide, from no
    stored value to every column, their values drawn from a palette of
    one to a few hundred bit patterns (specials among them: -0.0, NaN
    payloads) — so more than 256 stored values with at most 256
    distinct ones, and dense client vectors whose first 257 differ, are
    both common — in column order or shuffled."""
    dim = draw(st.one_of(
        st.integers(1, 2048), st.sampled_from([300, 700, 2048]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.one_of(
        st.integers(0, dim),
        st.sampled_from([min(dim, n) for n in (255, 256, 257, 258, dim)]),
    ))
    distinct = draw(st.one_of(
        st.integers(1, 300), st.sampled_from([255, 256, 257, max(1, count)]),
    ))
    palette = rng.integers(1, 2**32, size=distinct, dtype=np.uint32)
    # specials in place of a few, each at most once: the palette's
    # patterns stay distinct
    specials = draw(st.integers(0, min(distinct, len(SPECIALS))))
    palette[rng.choice(distinct, size=specials, replace=False)] = SPECIALS[
        :specials
    ]
    values = palette[np.arange(count) % distinct]
    if draw(st.booleans()):
        values = rng.permutation(values)
    bits = np.zeros(dim, dtype=np.uint32)
    bits[np.sort(rng.choice(dim, size=count, replace=False))] = values
    return bits.view(np.float32)


class TestDistinctPrefixShortcut:
    """A vector whose first 257 stored values already differ skips the
    full distinct-value count; every blob stays what it was."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(wide_vectors(), vectors(), palette_vectors(max_dim=80)))
    def test_blobs_equal_the_parent_encoder(self, vector):
        blob = encode_vector(vector)
        assert blob == parent_encode_vector(vector)
        assert decode_vector(blob).tobytes() == vector.tobytes()

    @pytest.mark.parametrize(
        "count, distinct, shuffled, layout",
        [
            # a dense client vector: dense, as before
            (2048, 2048, False, 0),
            # 256 distinct, the first 256 stored values among them: a table
            (700, 256, False, 2),
            # the first 257 stored values differ: sparse, uncounted
            (700, 257, False, 1),
            # 257 distinct, repeats among the first 257: counted, sparse
            (700, 257, True, 1),
        ],
    )
    def test_the_edges(self, count, distinct, shuffled, layout):
        """``count`` stored values in the first columns, cycling through
        ``distinct`` bit patterns in column order, or shuffled."""
        bits = np.zeros(2048, dtype=np.uint32)
        bits[:count] = 0x3F800000 + np.arange(count) % distinct
        if shuffled:
            bits[:count] = np.random.default_rng(count).permutation(
                bits[:count]
            )
        vector = bits.view(np.float32)
        blob = encode_vector(vector)
        assert (tag(blob), blob) == (layout, parent_encode_vector(vector))


class TestOneRowLayout:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(vectors(max_dim=64), palette_vectors(max_dim=64)))
    def test_same_bytes_as_the_block_layout(self, vector):
        """Wherever the value table is not strictly smaller, a vector's
        blob is the block layout's, byte for byte; where it is, the
        table blob is strictly smaller than that."""
        if vector.shape[0]:
            blob = encode_vector(vector)
            block = encode_through_blocks(vector.reshape(1, -1))
            if tag(blob) == 2:
                assert len(blob) < len(block)
            else:
                assert blob == block

    def test_a_multi_row_blob_is_not_a_vector(self):
        """Nothing at rest holds one since v9; both decoders refuse it
        rather than read its first count as a vector's."""
        matrix = np.zeros((2, 48), dtype=np.float32)
        matrix[0, 3] = matrix[1, 7] = 1.0
        blob = encode_through_blocks(matrix)
        assert is_headed(blob)
        with pytest.raises(ValueError, match="inconsistent sparse trailer"):
            decode_vector(blob)
        with pytest.raises(ValueError, match="inconsistent sparse trailer"):
            decode_many([blob])


def as_stored(matrix, whole):
    """One blob per row, as record rows hold them: the codec's choice,
    or — where ``whole`` says so — the headerless dense bytes a legacy
    row holds, or the layout's kept-whole form."""
    blobs = []
    for row, form in zip(matrix, whole):
        if form == "legacy" or not row.shape[0]:
            blobs.append(row.tobytes())
        elif form == "whole":
            blobs.append(kept_whole(row))
        else:
            blobs.append(encode_vector(row))
    return blobs


row_forms = st.lists(
    st.sampled_from(["codec", "codec", "codec", "legacy", "whole"]),
    min_size=6, max_size=6,
)


class TestDecodeMany:
    """Cold start decodes a shard's rows in one call; the per-row
    decoder stays the reference: same bits, same refusals."""

    @settings(max_examples=300, deadline=None)
    @given(any_matrices(), row_forms)
    def test_same_bytes_as_decoding_row_by_row(self, matrix, forms):
        blobs = as_stored(matrix, forms)
        decoded = decode_many(blobs)
        assert decoded.dtype == np.float32
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        if not blobs:
            assert decoded.shape == (0, 0)
            return
        reference = np.stack([decode_vector(blob) for blob in blobs])
        assert decoded.shape == reference.shape == matrix.shape
        assert decoded.tobytes() == reference.tobytes() == matrix.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(any_matrices(min_rows=1, max_rows=3, max_dim=24), row_forms)
    def test_every_bit_flip_of_a_sparse_row_raises(self, matrix, forms):
        blobs = as_stored(matrix, forms)
        for row, blob in enumerate(blobs):
            if not is_headed(blob):
                continue
            for position in range(len(blob) * 8):
                flipped = bytearray(blob)
                flipped[position // 8] ^= 1 << (position % 8)
                torn = [*blobs[:row], bytes(flipped), *blobs[row + 1:]]
                with pytest.raises(ValueError):
                    decode_many(torn)

    @settings(max_examples=100, deadline=None)
    @given(any_matrices(min_rows=1, max_rows=3), row_forms, st.data())
    def test_truncated_row_raises_or_reads_as_a_narrower_one(
        self, matrix, forms, data
    ):
        """Exactly :func:`decode_vector`'s verdict on the cut blob: an
        error, or (the documented limit of headerless dense bytes) a
        dense vector — which then is of another width than its
        neighbours unless it is the only row, or a kept-whole row cut to
        exactly ``4 * dim`` bytes, which reads as a dense row as wide as
        the others."""
        blobs = as_stored(matrix, forms)
        row = data.draw(st.integers(0, len(blobs) - 1))
        if not blobs[row]:
            return
        cut = blobs[row][: data.draw(st.integers(0, len(blobs[row]) - 1))]
        torn = [*blobs[:row], cut, *blobs[row + 1:]]
        try:
            narrower = decode_vector(cut)
        except ValueError:
            with pytest.raises(ValueError):
                decode_many(torn)
            return
        if len(blobs) == 1 or narrower.shape[0] == matrix.shape[1]:
            reference = np.stack([decode_vector(blob) for blob in torn])
            assert decode_many(torn).tobytes() == reference.tobytes()
        else:
            with pytest.raises(ValueError, match="dimension mismatch"):
                decode_many(torn)

    def test_row_of_another_width_raises(self):
        narrow = np.ones(4, dtype=np.float32)
        wide = np.zeros(64, dtype=np.float32)
        wide[3] = 1.0
        for blobs in (
            [encode_vector(wide), encode_vector(narrow)],
            [encode_vector(narrow), encode_vector(wide)],
            [encode_vector(wide), kept_whole(narrow)],
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decode_many(blobs)

    def test_kept_whole_row_cut_to_its_width_reads_as_a_dense_row(self):
        """The count and the first ``dim - 1`` values of a kept-whole
        row are ``4 * dim`` bytes: nothing tells them from a dense row."""
        matrix = np.zeros((3, 7), dtype=np.float32)
        matrix[0] = 1.0
        blobs = as_stored(matrix, ["codec", "codec", "whole"])
        torn = [*blobs[:2], blobs[2][:28]]
        reference = np.stack([decode_vector(blob) for blob in torn])
        assert reference.shape == matrix.shape
        assert decode_many(torn).tobytes() == reference.tobytes()

    def test_column_out_of_range_in_any_row_is_a_value_error(self):
        good = np.zeros(8, dtype=np.float32)
        good[2] = 1.0
        bad = seal(
            struct.pack("=I", 1)
            + np.array([1.0], dtype=np.float32).tobytes()
            + np.array([9], dtype=np.uint16).tobytes(),
            8,
        )
        with pytest.raises(ValueError, match="column out of range"):
            decode_many([encode_vector(good), bad, encode_vector(good)])


class TestCorruptInput:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(vectors(), palette_vectors()))
    def test_every_truncation_raises_or_reads_as_narrower_dense(self, vector):
        """(Nothing beside a record row says how wide it is, so a blob
        cut to a multiple of four bytes is a narrower dense vector —
        the documented limit.)"""
        blob = encode_vector(vector)
        for cut in range(len(blob)):
            if cut % 4:
                with pytest.raises(ValueError):
                    decode_vector(blob[:cut])
            else:
                assert decode_vector(blob[:cut]).tobytes() == blob[:cut]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(vectors(max_dim=24), palette_vectors(max_dim=24)))
    def test_every_bit_flip_of_a_sparse_blob_raises(self, vector):
        """A flipped bit never decodes to a different vector.  (Only the
        sparse layout carries a checksum; a headerless dense blob — the
        legacy format — has no redundancy beyond its length.)"""
        blob = encode_vector(vector)
        if not is_headed(blob):
            return
        for position in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[position // 8] ^= 1 << (position % 8)
            with pytest.raises(ValueError):
                decode_vector(bytes(flipped))

    def test_column_out_of_range_is_a_value_error(self):
        """A well-sealed blob whose column points past the row."""
        blob = seal(
            np.array([1], dtype=np.uint32).tobytes()
            + np.array([1.0], dtype=np.float32).tobytes()
            + np.array([9], dtype=np.uint16).tobytes(),
            8,
        )
        with pytest.raises(ValueError, match="column out of range"):
            decode_vector(blob)

    def test_corrupt_record_blob_surfaces_as_an_error_not_zeros(
        self, tmp_path
    ):
        dao = SqliteDAO(tmp_path / "registry.db")
        vec = np.zeros(64, dtype=np.float32)
        vec[7] = 1.0
        record = dao.insert_pe(make_pe("P", desc_embedding=vec, owners={1}))
        stored = dao._conn.execute(
            "SELECT desc_embedding FROM pes WHERE pe_id=?", (record.pe_id,)
        ).fetchone()[0]
        assert is_headed(stored)
        torn = bytearray(stored)
        torn[5] ^= 0x10  # one bit of the stored value
        for damaged in (stored[:-1], bytes(torn)):
            dao._conn.execute(
                "UPDATE pes SET desc_embedding=? WHERE pe_id=?",
                (damaged, record.pe_id),
            )
            dao._conn.commit()
            with pytest.raises(ValueError):
                dao.get_pe(record.pe_id)
            with pytest.raises(ValueError):
                dao.get_pes([record.pe_id])


DIM = 64


def sparse_unit(rng):
    """A hashed-embedding-like vector: a few non-zeros of DIM."""
    vec = np.zeros(DIM, dtype=np.float32)
    hot = rng.choice(DIM, size=int(rng.integers(2, 9)), replace=False)
    vec[hot] = rng.standard_normal(hot.size).astype(np.float32)
    return vec / np.linalg.norm(vec)


def palette_unit(rng):
    """A hashed-code-embedding-like vector: a few term counts over one
    norm, so its non-zeros take a few distinct values (the value table
    wins)."""
    vec = np.zeros(DIM, dtype=np.float32)
    hot = rng.choice(DIM, size=int(rng.integers(12, 24)), replace=False)
    vec[hot] = rng.integers(1, 4, size=hot.size) * rng.choice([-1, 1], hot.size)
    return vec / np.linalg.norm(vec)


def write_dense_rows(path, encode=lambda vec: vec.tobytes(), ids=None):
    """Give every vector in a registry file's record rows (those of
    ``ids`` only, when given) the blob ``encode`` makes of it — by
    default the headerless dense float32 blob schema v6 and older wrote
    — through raw SQL: the bytes a long-migrated file may still hold.
    ``user_version`` and the stamps stay as they are: the vectors do
    not change, only their encoding."""
    conn = sqlite3.connect(path)
    for table, key, columns in (
        ("pes", "pe_id", ("desc_embedding", "code_embedding")),
        ("workflows", "workflow_id", ("desc_embedding",)),
    ):
        for column in columns:
            rows = conn.execute(
                f"SELECT {key}, {column} FROM {table}"
                f" WHERE {column} IS NOT NULL"
            ).fetchall()
            for rid, blob in rows:
                if ids is None or rid in ids:
                    conn.execute(
                        f"UPDATE {table} SET {column}=? WHERE {key}=?",
                        (encode(decode_vector(blob)), rid),
                    )
    conn.commit()
    conn.close()


def sparse_blob(vec):
    """The tag-1 blob code of schema v7 to v11 wrote for ``vec``."""
    return encode_through_blocks(vec.reshape(1, -1))


def blob_tags(path, column):
    conn = sqlite3.connect(path)
    try:
        return {
            pe_id: tag(blob)
            for pe_id, blob in conn.execute(f"SELECT pe_id, {column} FROM pes")
        }
    finally:
        conn.close()


def blob_lengths(path):
    conn = sqlite3.connect(path)
    try:
        return dict(
            conn.execute("SELECT pe_id, LENGTH(desc_embedding) FROM pes")
        )
    finally:
        conn.close()


class TestLegacyFile:
    def test_dense_rows_serve_bitwise_and_reencode_only_when_written(
        self, tmp_path
    ):
        rng = np.random.default_rng(71)
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        for i in range(20):
            service.register_pe(
                alice,
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=sparse_unit(rng),
                    code_embedding=sparse_unit(rng),
                ),
            )
        service.register_pe(
            alice,
            make_pe("Tail", code="dGFpbA==", desc_embedding=sparse_unit(rng)),
        )
        service.dao.close()
        write_dense_rows(path)
        legacy = blob_lengths(path)
        assert set(legacy.values()) == {DIM * 4}

        dao = SqliteDAO(path)
        version = dao._conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == _SCHEMA_VERSION
        restarted = RegistryService(dao)
        warm = VectorIndex()
        restarted.attach_index(warm)
        # neither opening nor attaching rewrote a record row
        assert blob_lengths(path) == legacy

        user = restarted.get_user("alice")
        records = restarted.owned_records(user, PERecord)
        for kind, attr in (
            (KIND_DESC, "desc_embedding"), (KIND_CODE, "code_embedding")
        ):
            held = [r for r in records if getattr(r, attr) is not None]
            vectors = np.stack([getattr(r, attr) for r in held])
            query = sparse_unit(rng)
            sims = vectors @ query
            order = np.argsort(-sims, kind="stable")[:5]
            ids, scores = warm.search(user.user_id, kind, query, 5)
            assert ids == [held[row].pe_id for row in order]
            assert np.array_equal(scores, sims[order])

        # one write re-encodes that record and nothing else
        target = records[3]
        revised = make_pe(
            target.pe_name,
            code=target.pe_code,
            description="revised",
            desc_embedding=sparse_unit(rng),
            code_embedding=target.code_embedding,
        )
        restarted.revise_pe(user, target, revised)
        after = blob_lengths(path)
        assert after[target.pe_id] < DIM * 4
        untouched = {k: v for k, v in after.items() if k != target.pe_id}
        assert untouched == {
            k: v for k, v in legacy.items() if k != target.pe_id
        }
        dao.close()

        again = SqliteDAO(path)
        assert shard_bytes(attached(again)) == shard_bytes(
            brute_force_index(again)
        )
        again.close()

    def test_a_legacy_dense_row_reencodes_on_a_metadata_write(
        self, tmp_path
    ):
        """Rewriting a legacy dense row with the same vector stores it
        sparse, and the vector reads back bit for bit."""
        rng = np.random.default_rng(72)
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        stored = service.register_pe(
            alice,
            make_pe(
                "P", code="cA==", description="before",
                desc_embedding=sparse_unit(rng),
            ),
        )[0]
        service.dao.close()
        write_dense_rows(path)
        assert blob_lengths(path)[stored.pe_id] == DIM * 4

        dao = SqliteDAO(path)
        record = dao.get_pe(stored.pe_id)
        record.description = "after"  # metadata only, same vector
        dao.update_pe(record)
        assert blob_lengths(path)[stored.pe_id] < DIM * 4
        assert dao.get_pe(stored.pe_id).desc_embedding.tobytes() == (
            stored.desc_embedding.tobytes()
        )

    def test_dense_sparse_and_table_rows_serve_bitwise(self, tmp_path):
        """A file whose record rows hold all three layouts — dense from
        v6 and older, tag-1 sparse from v7 to v11, value tables since
        v12 — attaches and ranks both vector kinds bitwise as
        brute force does; a metadata-only revise of an older row stores
        it in the smallest layout."""
        rng = np.random.default_rng(73)
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        for i in range(24):
            service.register_pe(
                alice,
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=sparse_unit(rng),
                    code_embedding=palette_unit(rng),
                ),
            )
        ids = sorted(blob_tags(path, "code_embedding"))
        service.dao.close()
        write_dense_rows(path, ids=set(ids[:8]))
        write_dense_rows(path, encode=sparse_blob, ids=set(ids[8:16]))
        tags = blob_tags(path, "code_embedding")
        assert [tags[i] for i in ids] == [0] * 8 + [1] * 8 + [2] * 8
        assert set(blob_tags(path, "desc_embedding").values()) == {0, 1}
        before = blob_lengths(path), blob_tags(path, "code_embedding")

        dao = SqliteDAO(path)
        restarted = RegistryService(dao)
        warm = VectorIndex()
        restarted.attach_index(warm)
        # neither opening nor attaching rewrote a record row
        assert (blob_lengths(path), blob_tags(path, "code_embedding")) == before
        user = restarted.get_user("alice")
        records = restarted.owned_records(user, PERecord)
        for kind, attr in (
            (KIND_DESC, "desc_embedding"), (KIND_CODE, "code_embedding")
        ):
            vectors = np.stack([getattr(r, attr) for r in records])
            for query in (sparse_unit(rng), palette_unit(rng)):
                sims = vectors @ query
                order = np.argsort(-sims, kind="stable")[:5]
                got, scores = warm.search(user.user_id, kind, query, 5)
                assert got == [records[row].pe_id for row in order]
                assert np.array_equal(scores, sims[order])

        for target in (ids[0], ids[8]):
            record = dao.get_pe(target)
            record.description = "same vectors, new words"
            dao.update_pe(record)
            assert blob_tags(path, "code_embedding")[target] == 2
        dao.close()
        again = SqliteDAO(path)
        assert shard_bytes(attached(again)) == shard_bytes(
            brute_force_index(again)
        )
        again.close()

"""The at-rest vector codec: bit-exact, validated, legacy-compatible.

Two layouts — dense and bit-packed (tag 3) — and the encoder writes the
packed one wherever it is strictly smaller; both decoders read both.
The sparse (tag 1) and value-table (tag 2) layouts of schema v7 to v16
are read by ``restate`` alone, which the v16 -> v17 step runs; they are
built here by hand, the references their retired encoders were checked
against.
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
from repro.registry.veccodec import (
    decode_many,
    decode_vector,
    encode_vector,
    restate,
)
from repro.search import KIND_CODE, KIND_DESC, VectorIndex
from tests.helpers import brute_force_index, shard_bytes
from tests.registry.test_attach import attached
from tests.registry.test_dao import make_pe

#: bit patterns zero-suppression must not touch: -0.0, a quiet and a
#: signalling NaN with payloads, infinities, the smallest and the
#: largest subnormal
SPECIALS = np.array(
    [0x80000000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0x7F800000,
     0xFF800000, 0x00000001, 0x807FFFFF],
    dtype=np.uint32,
)
SIGN = 0x80000000


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


@st.composite
def palette_matrices(draw, max_rows=6, max_dim=40, min_rows=0):
    """float32 matrices whose non-zeros take a few distinct bit patterns
    (special ones among them, and each pattern's negation) — the packed
    layout's home ground — with now and then a row of many distinct
    values or none."""
    rows = draw(st.integers(min_rows, max_rows))
    dim = draw(st.integers(0, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.integers(1, 2**32, size=draw(st.integers(1, 8)),
                           dtype=np.uint32)
    palette[rng.random(palette.shape[0]) < 0.3] = rng.choice(SPECIALS)
    palette = np.concatenate([palette, palette ^ SIGN])
    bits = rng.choice(palette, size=(rows, dim))
    bits[rng.random((rows, dim)) >= draw(st.sampled_from([0.1, 0.3, 0.6]))] = 0
    if rows >= 2:
        bits[draw(st.integers(0, rows - 1))] = 0
        many = draw(st.integers(0, rows - 1))
        bits[many] = rng.integers(1, 2**32, size=dim, dtype=np.uint32)
    return bits.view(np.float32)


def one_row(strategy):
    return strategy.map(lambda matrix: matrix[0])


def vectors(max_dim=40):
    return st.one_of(
        one_row(matrices(min_rows=1, max_rows=1, max_dim=max_dim)),
        one_row(palette_matrices(min_rows=1, max_rows=1, max_dim=max_dim)),
    )


def any_matrices(**sizes):
    return st.one_of(matrices(**sizes), palette_matrices(**sizes))


@st.composite
def wide_vectors(draw):
    """Vectors 1 to 65 535 wide: no stored value to a few thousand, their
    magnitudes one, a few, all distinct or the specials (-0.0, NaN
    payloads, subnormals), each with either sign, at random columns or
    at the far ends (the largest column step a width allows)."""
    dim = draw(st.one_of(
        st.integers(1, 0xFFFF), st.sampled_from([1, 2, 7, 2048, 0xFFFF]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    placement = draw(st.sampled_from(["random", "ends", "last"]))
    if placement == "last":
        columns = np.array([dim - 1])
    elif placement == "ends":
        columns = np.unique([0, dim - 1])
    else:
        count = draw(st.integers(0, min(dim, 3000)))
        columns = np.sort(rng.choice(dim, size=count, replace=False))
    magnitudes = draw(st.sampled_from(["one", "few", "distinct", "specials"]))
    if magnitudes == "one":
        values = np.full(len(columns), 0x3DCCCCCD, dtype=np.uint32)
    elif magnitudes == "few":
        values = rng.choice(
            rng.integers(1, 2**31, size=5, dtype=np.uint32), len(columns)
        )
    elif magnitudes == "distinct":
        values = rng.choice(2**31 - 1, size=len(columns), replace=False)
        values = values.astype(np.uint32) + 1
    else:
        values = rng.choice(SPECIALS, len(columns))
    values ^= rng.integers(0, 2, size=len(columns), dtype=np.uint32) << 31
    bits = np.zeros(dim, dtype=np.uint32)
    bits[columns] = values
    return bits.view(np.float32)


def is_headed(blob):
    """A packed blob (or a retired headed one): a dense one's length is
    a multiple of four, a headed one's never is."""
    return len(blob) % 4 != 0


def tag(blob):
    """3 packed, 0 dense (1 sparse, 2 value table: retired)."""
    return blob[-1] if is_headed(blob) else 0


def seal(body, dim, rows=1, layout=3):
    sealed = body + struct.pack("=II", rows, dim)
    return sealed + struct.pack("=IB", zlib.crc32(sealed), layout)


def packed_size(vector):
    """Bytes of ``vector``'s packed blob, whether or not it is written."""
    return len(packed_blob(vector))


def packed_blob(vector):
    """The packed layout written out by hand, the reference the
    encoder's packed blobs must equal byte for byte: count, nmag, step
    bits, the distinct magnitudes ascending, then per stored value in
    column order the field ``sign | code << 1 | step << (1 + code
    bits)``, one little-endian bit stream padded to an even number of
    bytes, sealed with tag 3."""
    bits = vector.view(np.uint32)
    columns = [int(c) for c in np.flatnonzero(bits)]
    values = [int(bits[c]) for c in columns]
    mags = sorted({value & ~SIGN for value in values})
    code_bits = (len(mags) - 1).bit_length() if mags else 0
    steps = [c - p for c, p in zip(columns, [0] + columns[:-1])]
    step_bits = max(steps, default=0).bit_length()
    width = 1 + code_bits + step_bits
    stream = 0
    for at, (value, step) in enumerate(zip(values, steps)):
        field = value >> 31 | mags.index(value & ~SIGN) << 1
        stream |= (field | step << (1 + code_bits)) << (at * width)
    size = (len(columns) * width + 7) // 8
    body = struct.pack(
        f"=IHH{len(mags)}I", len(columns), len(mags), step_bits, *mags
    ) + stream.to_bytes(size + size % 2, "little")
    return seal(body, bits.shape[0])


def table_blob(vector):
    """The retired value-table layout (tag 2, schema v12 to v16),
    written out by hand: count, nvals, the distinct bit patterns
    ascending, then a (code, column step) byte pair per stored value in
    column order."""
    bits = vector.view(np.uint32)
    columns = [c for c in range(bits.shape[0]) if bits[c]]
    table = sorted({int(bits[c]) for c in columns})
    body = struct.pack(f"=II{len(table)}I", len(columns), len(table), *table)
    previous = 0
    for column in columns:
        body += bytes([table.index(int(bits[column])), column - previous])
        previous = column
    return seal(body, bits.shape[0], layout=2)


def sparse_blob(vector):
    """The retired sparse layout (tag 1, schema v7 to v16): count, the
    float32 values, their uint16 columns."""
    bits = vector.view(np.uint32)
    columns = np.flatnonzero(bits)
    body = (
        struct.pack("=I", len(columns)) + bits[columns].tobytes()
        + columns.astype(np.uint16).tobytes()
    )
    return seal(body, bits.shape[0], layout=1)


def kept_whole(vector):
    """The sparse layout's ``count == dim`` form of a vector: every
    value, no columns."""
    return seal(
        struct.pack("=I", vector.shape[0]) + vector.tobytes(),
        vector.shape[0], layout=1,
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(vectors())
    def test_decode_of_encode_is_the_same_bytes(self, vector):
        blob = encode_vector(vector)
        decoded = decode_vector(blob)
        assert decoded.tobytes() == vector.tobytes()
        assert decoded.shape == vector.shape
        assert decoded.dtype == np.float32
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        # never larger than dense; packed exactly where that is smaller
        assert len(blob) <= vector.nbytes
        headed = bool(vector.shape[0]) and packed_size(vector) < vector.nbytes
        assert is_headed(blob) == headed
        if headed:
            assert blob == packed_blob(vector)

    @settings(max_examples=300, deadline=None)
    @given(wide_vectors())
    def test_every_width_to_65535_round_trips_bitwise(self, vector):
        blob = encode_vector(vector)
        assert decode_vector(blob).tobytes() == vector.tobytes()
        assert decode_many([blob, blob]).tobytes() == (
            np.stack([vector, vector]).tobytes()
        )
        assert len(blob) <= vector.nbytes
        if is_headed(blob):
            assert tag(blob) == 3 and len(blob) % 2 == 1

    def test_typical_description_vector_is_packed(self):
        """Three non-zeros of 2 048: three magnitudes (2-bit codes),
        steps up to 1 347 (11 bits): 14-bit fields, 6 bytes of them."""
        vec = np.zeros(2048, dtype=np.float32)
        vec[[3, 700, 2047]] = [0.5, -0.25, 1.0]
        blob = encode_vector(vec)
        assert len(blob) == 8 + 3 * 4 + 6 + 13
        assert blob == packed_blob(vec)
        assert decode_vector(blob).tobytes() == vec.tobytes()

    def test_the_largest_column_step_takes_16_bits(self):
        vec = np.zeros(0xFFFF, dtype=np.float32)
        vec[0xFFFE] = -0.0
        blob = encode_vector(vec)
        assert struct.unpack_from("=IHH", blob) == (1, 1, 16)
        assert decode_vector(blob).tobytes() == vec.tobytes()

    def test_width_beyond_65535_falls_back_to_dense(self):
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


class TestPackedLayout:
    """Distinct magnitudes once, then a sign bit, a magnitude code and a
    column step per stored value, bit-packed."""

    @pytest.mark.parametrize(
        "dim, count, distinct",
        [
            # -0.0, NaN payloads, infinities, subnormals
            (2048, 300, SPECIALS),
            (2048, 200, 1),
            (2048, 700, 256),
            # more distinct values than a byte code could name
            (2048, 700, 300),
            # a width that is not a multiple of 8
            (1001, 150, 10),
        ],
        ids=["specials", "one-value", "256-values", "300-values", "dim-1001"],
    )
    def test_round_trip_is_bitwise(self, dim, count, distinct):
        rng = np.random.default_rng(dim + count)
        vector = spread(rng, dim, count, distinct)
        blob = encode_vector(vector)
        assert blob == packed_blob(vector)
        assert decode_vector(blob).tobytes() == vector.tobytes()
        pair = np.stack([vector, vector])
        assert decode_many([blob, blob]).tobytes() == pair.tobytes()

    def test_the_all_zero_vector(self):
        """No magnitude and no field: 21 bytes."""
        vector = np.zeros(300, dtype=np.float32)
        blob = encode_vector(vector)
        assert (len(blob), tag(blob)) == (21, 3)
        assert decode_vector(blob).tobytes() == vector.tobytes()
        assert decode_many([blob]).tobytes() == vector.tobytes()

    def test_a_sign_shares_its_magnitude(self):
        """0.5 and -0.5 are one magnitude: no code bit, a sign bit each."""
        vector = np.zeros(64, dtype=np.float32)
        vector[[5, 9, 30]] = [0.5, -0.5, 0.5]
        blob = encode_vector(vector)
        assert struct.unpack_from("=IHH", blob) == (3, 1, 5)
        assert len(blob) == 8 + 4 + 4 + 13
        assert decode_vector(blob).tobytes() == vector.tobytes()

    def test_benchmark_shaped_code_vector(self):
        """200 non-zeros of 2 048 ten columns apart (4-bit steps), 24
        distinct magnitudes (5-bit codes), either sign: 10-bit fields,
        250 bytes of them — 367 bytes in all, against 613 as a value
        table (48 distinct values) and 1 217 sparse."""
        rng = np.random.default_rng(5)
        bits = np.zeros(2048, dtype=np.uint32)
        bits[np.arange(0, 2000, 10)] = rng.choice(
            np.arange(24, dtype=np.uint32) + 0x3D000000, 200
        ) | (rng.integers(0, 2, 200, dtype=np.uint32) << 31)
        vector = bits.view(np.float32)
        mags = len(np.unique(bits[bits != 0] & ~np.uint32(SIGN)))
        assert mags == 24
        assert len(encode_vector(vector)) == 8 + 4 * 24 + 250 + 13 == 367
        assert len(table_blob(vector)) == 8 + 4 * 48 + 2 * 200 + 13 == 613
        assert len(sparse_blob(vector)) == 1217

    @settings(max_examples=200, deadline=None)
    @given(vectors(max_dim=80))
    def test_a_packed_blob_length_is_odd(self, vector):
        blob = encode_vector(vector)
        if is_headed(blob):
            assert len(blob) % 2 == 1 and tag(blob) == 3

    def small_blobs(self):
        """A few small packed blobs: a palette, a single sign-only
        field, specials, and the empty vector."""
        rng = np.random.default_rng(6)
        vectors = [
            spread(rng, 40, 12, 2),
            spread(rng, 9, 1, 1),
            spread(rng, 24, 8, SPECIALS),
            np.zeros(8, dtype=np.float32),
        ]
        blobs = [encode_vector(vector) for vector in vectors]
        assert all(tag(blob) == 3 for blob in blobs)
        return blobs

    def test_every_bit_flip_raises(self):
        good = encode_vector(spread(np.random.default_rng(8), 40, 6, 2))
        for blob in self.small_blobs():
            for position in range(len(blob) * 8):
                flipped = bytearray(blob)
                flipped[position // 8] ^= 1 << (position % 8)
                with pytest.raises(ValueError):
                    decode_vector(bytes(flipped))
                with pytest.raises(ValueError):
                    decode_many([good, bytes(flipped)])

    def test_every_truncation_raises_or_reads_as_narrower_dense(self):
        for blob in self.small_blobs():
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
            # three magnitudes, 2-bit codes: code 3 names none
            (struct.pack("=IHHIII", 1, 3, 0, 7, 9, 11)
             + bytes([3 << 1, 0]), 8, "code out of range"),
            # a step that lands past the last column: steps 3 and 5
            (struct.pack("=IHHI", 2, 1, 3, 7)
             + bytes([3 << 1 | 5 << 5, 0]), 8, "column out of range"),
            # a 17-bit step
            (struct.pack("=IHHI", 1, 1, 17, 7) + bytes(4), 8,
             "inconsistent packed head"),
            # more stored values than columns
            (struct.pack("=IHHI", 9, 1, 1, 7) + bytes(4), 8,
             "inconsistent packed head"),
            # a field byte short
            (struct.pack("=IHHI", 2, 1, 3, 7), 8, "truncated"),
        ],
        ids=["code", "column", "step-bits", "count", "length"],
    )
    def test_a_well_sealed_but_inconsistent_blob_is_a_value_error(
        self, body, dim, message
    ):
        blob = seal(body, dim)
        good = encode_vector(spread(np.random.default_rng(7), dim, 4, 1))
        with pytest.raises(ValueError, match=message):
            decode_vector(blob)
        for rows in ([blob], [good, blob], [blob, good]):
            with pytest.raises(ValueError, match=message):
                decode_many(rows)

    def test_decode_many_over_both_layouts_equals_row_by_row(self):
        rng = np.random.default_rng(8)
        rows = [
            spread(rng, 64, 20, 3),  # packed
            spread(rng, 64, 6, 6),  # packed
            spread(rng, 64, 60, 60),  # dense
            np.zeros(64, dtype=np.float32),  # packed, empty
            spread(rng, 64, 30, SPECIALS),  # packed
        ]
        blobs = [encode_vector(row) for row in rows]
        assert [tag(blob) for blob in blobs] == [3, 3, 0, 3, 3]
        # and the dense form a record row may still hold from older code
        blobs.append(rows[0].tobytes())
        matrix = np.stack(rows + [rows[0]])
        reference = np.stack([decode_vector(blob) for blob in blobs])
        assert reference.tobytes() == matrix.tobytes()
        for order in (range(len(blobs)), reversed(range(len(blobs)))):
            order = list(order)
            decoded = decode_many([blobs[i] for i in order])
            assert decoded.tobytes() == matrix[order].tobytes()


class TestRetiredLayouts:
    """Neither decoder reads a sparse or value-table blob; ``restate``
    reads them, once, for the v16 -> v17 step."""

    @settings(max_examples=200, deadline=None)
    @given(vectors(max_dim=64))
    def test_restate_writes_any_older_blob_as_the_encoder_does(self, vector):
        if not vector.shape[0]:
            return
        now = encode_vector(vector)
        older = [vector.tobytes(), kept_whole(vector)]
        bits = vector.view(np.uint32)
        # a sparse blob with every value stored is the kept-whole form
        if np.count_nonzero(bits) < vector.shape[0]:
            older.append(sparse_blob(vector))
        steps = np.diff(np.flatnonzero(bits), prepend=0)
        # a table names at most 256 values, each a byte step on
        if len(np.unique(bits[bits != 0])) <= 256 and steps.max(initial=0) < 256:
            older.append(table_blob(vector))
        for blob in older + [now]:
            assert restate(blob) == now
            if tag(blob) in (1, 2):
                with pytest.raises(ValueError, match="layout"):
                    decode_vector(blob)
                with pytest.raises(ValueError, match="layout"):
                    decode_many([now, blob])

    def test_every_bit_flip_of_a_retired_blob_raises(self):
        vector = spread(np.random.default_rng(9), 40, 12, 3)
        for blob in (table_blob(vector), sparse_blob(vector)):
            for position in range(len(blob) * 8):
                flipped = bytearray(blob)
                flipped[position // 8] ^= 1 << (position % 8)
                with pytest.raises(ValueError):
                    restate(bytes(flipped))

    @pytest.mark.parametrize(
        "body, layout, message",
        [
            # count 1, nvals 1: code 1 of a one-value table
            (struct.pack("=III", 1, 1, 7) + bytes([1, 0]), 2, "out of range"),
            # a step that lands past the last column
            (struct.pack("=III", 2, 1, 7) + bytes([0, 3, 0, 5]), 2,
             "out of range"),
            # 257 values: more than a byte code can name
            (struct.pack("=II", 0, 257) + bytes(4 * 257), 2,
             "inconsistent value table"),
            # a sparse column past the row
            (struct.pack("=If", 1, 1.0) + struct.pack("=H", 9), 1,
             "out of range"),
            # a sparse value short
            (struct.pack("=IH", 2, 3), 1, "truncated"),
        ],
        ids=["code", "column", "nvals", "sparse-column", "sparse-length"],
    )
    def test_an_inconsistent_retired_blob_is_a_value_error(
        self, body, layout, message
    ):
        with pytest.raises(ValueError, match=message):
            restate(seal(body, 8, layout=layout))

    def test_a_multi_row_blob_is_not_a_vector(self):
        """The sparse layout's multi-row form, which base slabs used
        until schema v9: nothing reads it."""
        body = struct.pack("=II", 1, 1) + struct.pack("=ff", 1.0, 2.0)
        blob = seal(body + struct.pack("=HH", 3, 7), 48, rows=2, layout=1)
        for read in (decode_vector, restate, lambda b: decode_many([b])):
            with pytest.raises(ValueError, match="inconsistent trailer"):
                read(blob)


def as_stored(matrix, forms):
    """One blob per row, as record rows hold them: the codec's choice,
    or — where ``forms`` says so — the headerless dense bytes a legacy
    row holds."""
    return [
        row.tobytes() if form == "legacy" or not row.shape[0]
        else encode_vector(row)
        for row, form in zip(matrix, forms)
    ]


row_forms = st.lists(
    st.sampled_from(["codec", "codec", "codec", "legacy"]),
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
    def test_every_bit_flip_of_a_packed_row_raises(self, matrix, forms):
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
        neighbours unless it is the only row."""
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
        narrow_packed = np.zeros(32, dtype=np.float32)
        narrow_packed[1] = 1.0
        for blobs in (
            [encode_vector(wide), encode_vector(narrow)],
            [encode_vector(narrow), encode_vector(wide)],
            [encode_vector(wide), encode_vector(narrow_packed)],
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decode_many(blobs)


class TestCorruptInput:
    @settings(max_examples=150, deadline=None)
    @given(vectors())
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
    @given(vectors(max_dim=24))
    def test_every_bit_flip_of_a_packed_blob_raises(self, vector):
        """A flipped bit never decodes to a different vector.  (Only the
        packed layout carries a checksum; a headerless dense blob has
        no redundancy beyond its length.)"""
        blob = encode_vector(vector)
        if not is_headed(blob):
            return
        for position in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[position // 8] ^= 1 << (position % 8)
            with pytest.raises(ValueError):
                decode_vector(bytes(flipped))

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
        torn[8] ^= 0x10  # one bit of the stored magnitude
        for damaged in (stored[:-1], bytes(torn)):
            dao._conn.execute(
                "UPDATE pes SET desc_embedding=? WHERE pe_id=?",
                (damaged, record.pe_id),
            )
            dao._conn.commit()
            with pytest.raises(ValueError):
                dao.get_pe(record.pe_id)
            with pytest.raises(ValueError):
                dao.find_pe_by_name("P")


DIM = 64


def sparse_unit(rng):
    """A hashed-embedding-like vector: a few non-zeros of DIM."""
    vec = np.zeros(DIM, dtype=np.float32)
    hot = rng.choice(DIM, size=int(rng.integers(2, 9)), replace=False)
    vec[hot] = rng.standard_normal(hot.size).astype(np.float32)
    return vec / np.linalg.norm(vec)


def palette_unit(rng):
    """A hashed-code-embedding-like vector: a few term counts over one
    norm, so its non-zeros take a few distinct magnitudes."""
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
            ids, scores = warm.search_among(user.user_id, kind, query, 5)
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
        packed, and the vector reads back bit for bit."""
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

    def test_dense_and_packed_rows_serve_bitwise(self, tmp_path):
        """A file whose record rows hold both layouts — dense from v6
        and older, packed since v17 — attaches and ranks both vector
        kinds bitwise as brute force does; a metadata-only revise of a
        dense row stores it packed."""
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
        tags = blob_tags(path, "code_embedding")
        assert [tags[i] for i in ids] == [0] * 8 + [3] * 16
        assert set(blob_tags(path, "desc_embedding").values()) == {0, 3}
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
                got, scores = warm.search_among(user.user_id, kind, query, 5)
                assert got == [records[row].pe_id for row in order]
                assert np.array_equal(scores, sims[order])

        for target in (ids[0], ids[8]):
            record = dao.get_pe(target)
            record.description = "same vectors, new words"
            dao.update_pe(record)
            assert blob_tags(path, "code_embedding")[target] == 3
        dao.close()
        again = SqliteDAO(path)
        assert shard_bytes(attached(again)) == shard_bytes(
            brute_force_index(again)
        )
        again.close()

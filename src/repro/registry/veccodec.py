"""Bit-exact codec for every float32 vector blob SQLite stores.

A vector lives in its record row (``pes.code_embedding`` /
``desc_embedding``, ``workflows.desc_embedding``) and nowhere else, one
vector to a blob: :func:`encode_vector` writes it, :func:`decode_vector`
reads one back (a record's fetch) and :func:`decode_many` reads a whole
shard's rows into one matrix (cold start).  Hashed embeddings are mostly
zeros (median 7 and 168 non-zeros of 2 048 on the e2e corpus), and an
unfitted code embedding's non-zeros take few distinct magnitudes
(median 14: term counts over one norm, each with either sign).  So a
blob is written in one of two layouts, the packed one wherever it is
strictly smaller than dense; decoding always yields dense float32, so
nothing above the DAO can tell which layout a row was stored in.

**Dense** — the vector's float32 bytes, ``dim * 4`` bytes, no header.
Written where packing would not be smaller (a client's dense vector),
and for a vector wider than 65 535.

**Packed** (tag 3, schema v17)::

    count      uint32          stored (non-zero) values, <= dim
    nmag       uint16          distinct magnitudes among them
    step_bits  uint16          bits of a column step, <= 16
    mags       uint32[nmag]    the magnitudes: each stored value's bit
                               pattern with the sign bit cleared,
                               ascending; starts at byte 8
    fields     count fields of width = 1 + code_bits + step_bits bits,
               in column order, then a zero byte if that made an odd
               number of bytes
    trailer    uint32 1, uint32 dim, uint32 crc32(all before it),
               uint8 3

A field is the integer ``sign | code << 1 | step << (1 + code_bits)``:
the value's sign bit, the index of its magnitude in ``mags``
(``code_bits = ceil(log2(nmag))``, none for one magnitude) and its
column less the previous stored column (the first: its column;
``step_bits`` is the bit length of the largest).  The fields are one
little-endian bit stream: a field's bits go least significant first,
and bit ``i`` of the stream is bit ``i % 8`` of its byte ``i // 8``.
Every blob is odd in length — ``21 + 4 * nmag`` plus the even field
bytes — and that is what tells it from a dense one: a record row
carries no ``dim`` column to compare against.  Zero is decided on the
``uint32`` view and values move as ``uint32``, so ``-0.0`` (magnitude
0, sign 1) and NaN payloads survive: ``decode(encode(v)).tobytes() ==
v.tobytes()`` for every float32 vector.  (The leading ``1`` of the
trailer is the row count of a multi-row form that base slabs used until
schema v9 dropped them; nothing at rest holds more than one row.)

Measured on the 640 seeded records of the e2e ``mixed_rw`` corpus
(seed 1, unfitted models), against schema v16's value table (tag 2: a
byte code and a byte column step per value, each distinct float32
once): the median code vector takes 311 bytes instead of 437, and a
description vector 35 instead of 59 (one magnitude, so a field is a
sign bit and a step).  Such a PE row (deflated code and source, both
vectors) is ~615 bytes instead of ~760, so on 512-byte pages it keeps
~120 bytes on its leaf beside its overflow page instead of ~260: three
rows share a leaf where one did.  The e2e runs write 15 % fewer bytes
on ``mixed_rw`` (seed 1: 9 522 240 -> 8 090 208), 8 % on
``read_static`` (997 440 -> 915 320) and 11 % on ``ingest_live``
(~19.06 -> ~16.90 MB).

A packed blob is only ever smaller than dense; against v16's layouts
it can be larger, since each distinct magnitude costs 4 bytes and a
field grows with the bits of the largest column step.  On the same 640
records embedded by an IDF-fitted bundle (``repro serve`` without
``--no-fit``: median 73 distinct magnitudes of 168 non-zeros) the
median code vector takes 608 bytes instead of 695 and a description
vector 39 instead of 59, and none of the 1 280 grows.  A client's
vector whose non-zeros are all distinct gains nothing and may grow a
little: 300 random non-zeros of 2 048 take a median 1 821 bytes packed
against 1 817 as v16's sparse layout (181 of 200 vectors grew, at most
42 bytes; +0.1 % over all 200), and 300 at a column step of 64 (17-bit
fields) 1 859 against 1 817 (every one grew, +2.3 %); 30 random
non-zeros took 195 bytes against 197, 800 took 4 721 against 4 817.
Such blobs grow by that much at the v16 -> v17 step too.

What it costs, against v16's codec on a 2-CPU Linux host (the 640
records' 1 280 vectors, 30 interleaved passes, medians):
``encode_vector`` 25.5 us a vector instead of 17.9 (the sort of the
magnitudes and the bit packing), ``decode_many`` 6.7 us a row instead
of 4.1 (6.3 instead of 3.7 over the same rows ten times over) and
``decode_vector`` 16.7 us instead of 6.5.  On the fitted bundle's
vectors (15 interleaved passes): ``encode_vector`` 48.1 us a code
vector instead of 46.0 and 20.7 instead of 9.6 a description vector
(together 1.24x), ``decode_many`` 11.5 us a code row instead of 7.9
and 2.9 a description row instead of 2.0; on the 300 all-distinct
client vectors 46.0 instead of 37.9 to encode and 10.7 instead of 4.4
a row to decode in a batch.  An attach of the ``mixed_rw``
seeded registry (~770 records, both vector kinds) takes 20.6 ms
instead of 17.0, of ``read_static``'s 44.6 instead of 30.5 (medians of
40 attaches each).  No search or listing decodes a vector (the id
fetch that hydrates hits and listing pages reads none), nor does a v1
record read, so the slower single-vector decode is paid on a legacy
record read and on a write's reads.

``decode_many`` reads every field as the 64-bit little-endian word at
its first byte (a field is at most 33 bits, at most 7 in), shifted and
masked, one numpy pass over all rows' joined streams; a field's sign
bit and code, read together as one key, index a table that holds each
row's magnitudes twice, positive then negative, so the sign costs no
pass of its own.

Decoding validates everything it reads and raises ``ValueError`` on a
truncated, inconsistent or out-of-range blob; the checksum extends that
to any flipped bit of a packed blob.  (That columns ascend, and that
``mags`` ascends without a sign bit, is not checked: a well-sealed blob
that repeats a column decodes, its later value winning.)  A headerless
dense blob has no redundancy beyond its length, and a record row cut to
a multiple of four bytes still reads as a narrower dense vector, as it
always did.

Schema v7 to v16 wrote two other layouts, sparse (tag 1: float32 values
and uint16 columns) and the value table (tag 2).  Neither decoder reads
them: opening a v16 file re-encodes every stored blob through
:func:`restate`, the one reader of those layouts left.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

#: count, distinct magnitudes, bits of a column step
_HEAD = struct.Struct("=IHH")
_SHAPE = struct.Struct("=II")
_SEAL = struct.Struct("=IB")  # crc32 of everything before it, layout tag
_TRAILER = struct.Struct("=IIIB")  # _SHAPE then _SEAL, read in one call
_PACKED_TAG = 3
#: a count and a code fit 16 bits: wider vectors are always stored dense
_MAX_PACKED_DIM = 0xFFFF
_MAX_STEP_BITS = 16
_MAGNITUDE = np.uint32(0x7FFFFFFF)
_SIGN = np.uint32(0x80000000)


def _field_bytes(count: int, width: int) -> int:
    """Bytes of ``count`` ``width``-bit fields, rounded up to an even
    number: what makes a packed blob's length odd."""
    size = (count * width + 7) // 8
    return size + (size & 1)


def _code_bits(nmag: int) -> int:
    """Bits of a magnitude code: ``ceil(log2(nmag))``, none for one."""
    return max(nmag - 1, 0).bit_length()


def encode_vector(vector: np.ndarray) -> bytes:
    """The at-rest bytes of one float32 ``vector``."""
    row = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    dim = row.shape[0]
    if not 0 < dim <= _MAX_PACKED_DIM:
        return row.tobytes()
    bits = row.view(np.uint32)
    stored = bits.nonzero()[0]
    count = len(stored)
    # the least a packed blob of ``count`` values can take: one
    # magnitude (none for no value), a sign bit a value
    least = (
        _HEAD.size + 4 * min(count, 1) + _field_bytes(count, 1)
        + _TRAILER.size
    )
    if least >= 4 * dim:
        return row.tobytes()
    steps = stored.copy()
    steps[1:] -= stored[:-1]
    step_bits = int(steps.max()).bit_length() if count else 0
    values = bits[stored]
    magnitudes = values & _MAGNITUDE
    ordered = np.sort(magnitudes)
    distinct = np.empty(count, dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    mags = ordered[distinct]
    code_bits = _code_bits(len(mags))
    width = 1 + code_bits + step_bits
    if (
        _HEAD.size + 4 * len(mags) + _field_bytes(count, width)
        + _TRAILER.size >= 4 * dim
    ):
        return row.tobytes()
    fields = steps
    fields <<= 1 + code_bits
    fields |= mags.searchsorted(magnitudes) << 1
    fields |= values >> 31
    # each field's low ``width`` bits, least significant first
    stream = np.packbits(
        np.unpackbits(
            fields.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8),
            axis=1, count=width, bitorder="little",
        ),
        bitorder="little",
    ).tobytes()
    sealed = b"".join(
        (
            _HEAD.pack(count, len(mags), step_bits),
            mags.tobytes(),
            stream,
            bytes(len(stream) & 1),
            _SHAPE.pack(1, dim),
        )
    )
    return sealed + _SEAL.pack(zlib.crc32(sealed), _PACKED_TAG)


def _sealed(blob: bytes) -> tuple[int, int, int]:
    """``(body, dim, tag)`` of a headed blob — ``body`` its length
    before the trailer — after checking the trailer and checksum."""
    body = len(blob) - _TRAILER.size
    if body < 4:
        raise ValueError("truncated blob")
    rows, dim, crc, tag = _TRAILER.unpack_from(blob, body)
    if rows != 1 or not 0 < dim <= _MAX_PACKED_DIM:
        raise ValueError("inconsistent trailer")
    # a sliced copy checksums faster than a memoryview of the same bytes
    if zlib.crc32(blob[: body + _SHAPE.size]) != crc:
        raise ValueError("blob checksum mismatch")
    return body, dim, tag


def _layout(blob: bytes) -> tuple[int, int, int, int, int]:
    """``(dim, count, nmag, code_bits, step_bits)`` of a packed blob,
    after checking its trailer, checksum, head and length — everything
    but the fields."""
    body, dim, tag = _sealed(blob)
    if tag != _PACKED_TAG:
        raise ValueError(f"vector layout {tag} is not read by this code")
    # a blob too short for this head fails the length check
    count, nmag, step_bits = _HEAD.unpack_from(blob)
    if count > dim or step_bits > _MAX_STEP_BITS:
        raise ValueError("inconsistent packed head")
    code_bits = _code_bits(nmag)
    width = 1 + code_bits + step_bits
    if body != _HEAD.size + 4 * nmag + _field_bytes(count, width):
        raise ValueError("truncated blob")
    return dim, count, nmag, code_bits, step_bits


def _words(stream: bytes, at: np.ndarray) -> np.ndarray:
    """The bits of ``stream`` from bit ``at[i]`` on, as int64: the
    field that starts there is their low ``width`` bits."""
    padded = stream + bytes(8)
    # every eight bytes from each byte on, as one little-endian word
    words = np.ndarray(
        (len(padded) - 7,), dtype="<i8", buffer=padded, strides=(1,)
    )
    return words[at >> 3] >> (at & 7)


def _signed(mags: bytes) -> np.ndarray:
    """Each magnitude of ``mags`` twice, positive then negative: indexed
    by a field's sign bit and code read together as one key."""
    magnitudes = np.frombuffer(mags, dtype=np.uint32)
    signed = np.empty((magnitudes.shape[0], 2), dtype=np.uint32)
    signed[:, 0] = magnitudes
    signed[:, 1] = magnitudes | _SIGN
    return signed.reshape(-1)


def decode_vector(blob: bytes) -> np.ndarray:
    """The float32 vector ``blob`` encodes — writable, its width taken
    from the blob itself (nothing beside a record row says how wide it
    is).

    Raises ``ValueError`` unless the blob is exactly one well-formed
    encoding of one vector.
    """
    if len(blob) % 4 == 0:
        return np.frombuffer(blob, dtype=np.float32).copy()
    dim, count, nmag, code_bits, step_bits = _layout(blob)
    out = np.zeros(dim, dtype=np.uint32)
    if count:
        width = 1 + code_bits + step_bits
        at = _HEAD.size + 4 * nmag
        words = _words(blob[at:], np.arange(0, count * width, width))
        keys = words & ((2 << code_bits) - 1)
        if keys.max() >= 2 * nmag:
            raise ValueError("code out of range")
        columns = words >> (1 + code_bits)
        columns &= (1 << step_bits) - 1
        columns.cumsum(out=columns)
        if columns[-1] >= dim:
            raise ValueError("column out of range")
        out[columns] = _signed(blob[_HEAD.size : at])[keys]
    return out.view(np.float32)


def decode_many(blobs: Sequence[bytes]) -> np.ndarray:
    """The ``(len(blobs), dim)`` float32 matrix whose row ``i`` is
    ``decode_vector(blobs[i])`` — C-contiguous, writable, same bits.

    Every blob is validated exactly as :func:`decode_vector` validates
    it; what is batched is the numpy work: one zeroed slab, one copy of
    the dense rows and one pass over the joined fields of all packed
    rows (their cells one running sum over the joined steps), instead
    of arrays, views and a scatter per row (a cold start decodes every
    vector of the registry).  Raises ``ValueError`` for a malformed blob
    or one of another width; no blobs decode to a ``(0, 0)`` matrix.
    """
    dim = None
    dense_rows: list[int] = []
    dense_parts: list[bytes] = []
    rows: list[int] = []
    counts: list[int] = []
    nmags: list[int] = []
    code_bits: list[int] = []
    widths: list[int] = []
    mag_parts: list[bytes] = []
    streams: list[bytes] = []
    for row, blob in enumerate(blobs):
        if len(blob) % 4 == 0:
            width = len(blob) // 4
            dense_rows.append(row)
            dense_parts.append(blob)
        else:
            width, count, nmag, bits, step_bits = _layout(blob)
            if count:
                at = _HEAD.size + 4 * nmag
                rows.append(row)
                counts.append(count)
                nmags.append(nmag)
                code_bits.append(bits)
                widths.append(1 + bits + step_bits)
                mag_parts.append(blob[_HEAD.size : at])
                streams.append(blob[at : len(blob) - _TRAILER.size])
        if dim is None:
            dim = width
        elif width != dim:
            raise ValueError("record vector dimension mismatch")
    out = np.zeros((len(blobs), dim or 0), dtype=np.float32)
    if dense_rows:
        out[dense_rows] = np.frombuffer(
            b"".join(dense_parts), dtype=np.float32
        ).reshape(len(dense_rows), dim)
    if not rows:
        return out
    sizes = np.array(counts)
    firsts = np.cumsum(sizes) - sizes
    width = np.array(widths)
    # each field's first bit in the joined streams: a running sum of
    # the widths, each row's first field jumping past the rest of the
    # previous row's stream
    lengths = np.array([len(stream) for stream in streams])
    at = np.repeat(width, sizes)
    at[0] = 0
    at[firsts[1:]] = 8 * lengths[:-1] - (sizes[:-1] - 1) * width[:-1]
    at.cumsum(out=at)
    words = _words(b"".join(streams), at)
    bits = np.array(code_bits)
    keys = words & np.repeat((2 << bits) - 1, sizes)
    nmag = np.array(nmags)
    if (np.maximum.reduceat(keys, firsts) >= 2 * nmag).any():
        raise ValueError("code out of range")
    columns = words >> np.repeat(1 + bits, sizes)
    columns &= np.repeat((1 << (width - 1 - bits)) - 1, sizes)
    # a row's last column is the sum of its steps
    lasts = np.add.reduceat(columns, firsts)
    if (lasts >= dim).any():
        raise ValueError("column out of range")
    # each row's keys index its own magnitudes inside the joined ones
    keys += np.repeat(2 * (np.cumsum(nmag) - nmag), sizes)
    # one running sum over all rows' steps lands on the rows' cells of
    # ``out`` once each row's first step also jumps there from the
    # previous row's last cell
    starts = np.asarray(rows) * dim
    columns[firsts] += starts - np.concatenate(([0], (starts + lasts)[:-1]))
    columns.cumsum(out=columns)
    out.reshape(-1).view(np.uint32)[columns] = _signed(b"".join(mag_parts))[
        keys
    ]
    return out


def restate(blob: bytes) -> bytes:
    """The blob :func:`encode_vector` writes for the vector ``blob``
    holds — ``blob`` itself where it already is that blob.

    ``blob`` may be in any layout this schema's predecessors wrote:
    dense, packed, or the sparse (tag 1) and value-table (tag 2)
    layouts of schema v7 to v16, which only this function still reads
    (the v16 -> v17 step re-encodes every stored blob through it).  A
    retired layout is validated as its own decoder did; raises
    ``ValueError`` for a malformed blob.
    """
    if len(blob) % 4 == 0 or blob[-1] == _PACKED_TAG:
        return encode_vector(decode_vector(blob))
    return encode_vector(_retired_vector(blob))


def _retired_vector(blob: bytes) -> np.ndarray:
    """The vector of a sparse (tag 1) or value-table (tag 2) blob.

    Sparse: uint32 count, float32 values, uint16 columns (absent when
    count == dim).  Value table: uint32 count, uint32 nvals <= 256,
    uint32 bit patterns, then a byte code and a byte column step a
    value.  Both end in this module's trailer."""
    body, dim, tag = _sealed(blob)
    (count,) = struct.unpack_from("=I", blob)
    out = np.zeros(dim, dtype=np.uint32)
    if tag == 1:
        whole = count == dim
        if body != 4 + (4 if whole else 6) * count:
            raise ValueError("truncated blob")
        values = np.frombuffer(blob, dtype=np.uint32, count=count, offset=4)
        if whole:
            return values.view(np.float32).copy()
        columns = np.frombuffer(
            blob, dtype=np.uint16, count=count, offset=4 + 4 * count
        )
    elif tag == 2:
        (nvals,) = struct.unpack_from("=I", blob, 4)
        if body != 8 + 4 * nvals + 2 * count:
            raise ValueError("truncated blob")
        if nvals > 256:
            raise ValueError("inconsistent value table")
        pairs = np.frombuffer(
            blob, dtype=np.uint8, count=2 * count, offset=8 + 4 * nvals
        ).reshape(count, 2)
        table = np.frombuffer(blob, dtype=np.uint32, count=nvals, offset=8)
        columns = pairs[:, 1].astype(np.intp).cumsum()
        if count and pairs[:, 0].max() >= nvals:
            raise ValueError("code out of range")
        values = table[pairs[:, 0]]
    else:
        raise ValueError(f"unknown vector layout {tag}")
    if count and columns.max() >= dim:
        raise ValueError("column out of range")
    out[columns] = values
    return out.view(np.float32)

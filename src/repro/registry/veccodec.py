"""Bit-exact codec for every float32 vector blob SQLite stores.

A vector lives in its record row (``pes.code_embedding`` /
``desc_embedding``, ``workflows.desc_embedding``) and nowhere else, one
vector to a blob: :func:`encode_vector` writes it, :func:`decode_vector`
reads one back (top-k hydration) and :func:`decode_many` reads a whole
shard's rows into one matrix (cold start).  Hashed embeddings are mostly
zeros (median 7 and 172 non-zeros of 2 048 on the e2e corpus), and an
unfitted code embedding's non-zeros take few distinct values (median
22: term counts over one norm).  So a blob is written in whichever of
three layouts is strictly smallest; decoding always yields dense
float32, so nothing above the DAO can tell which layout a row was
stored in.

**Dense** — the vector's float32 bytes, ``dim * 4`` bytes, no header.
This is the only layout schema v6 and older wrote, so legacy files
decode through the same functions with no rewrite pass.

**Sparse** (tag 1) — chosen only when strictly smaller than dense::

    count    uint32              stored values; == dim marks a vector
                                 kept whole (never written for a single
                                 vector — sparse would not be smaller —
                                 but part of the layout, so decoded)
    values   float32[count]
    columns  uint16[count]       ascending; absent when count == dim
    trailer  uint32 1, uint32 dim, uint32 crc32(all before it),
             uint8 1

**Value table** (tag 2, schema v12) — chosen only when strictly
smaller than both others::

    count    uint32              stored values
    nvals    uint32              distinct stored bit patterns, <= 256
    table    float32[nvals]      those bit patterns, ascending as uint32
    pairs    uint8[count][2]     per stored value, in column order: its
                                 index into the table, then its column
                                 less the previous stored column (the
                                 first: its column), so <= 255
    trailer  uint32 1, uint32 dim, uint32 crc32(all before it),
             uint8 2

A vector with more than 256 distinct values, or a stored column more
than 255 past the previous one (the first: past column 0), is not
eligible.  Measured on 1 200
records of the e2e corpus, bulk-loaded through the server with
unfitted models on 1 KB pages: the median code vector takes 443 bytes
instead of 1 043 sparse, and a ``pes`` row 1.23 pages instead of 1.92
(0.40 leaf + 0.82 overflow instead of 0.85 + 1.06); since schema v14
deflates its code and source (:mod:`repro.registry.textcodec`) the row
fits one leaf, 1.01 pages (1.00 leaf, no overflow; ~780 bytes instead
of ~1 130).  The e2e runs write
25 % fewer bytes on ``ingest_live`` (seed 1: 45.86 -> 34.39 MB), 15 %
on ``mixed_rw`` (25.56 -> 21.69) and 8 % on ``read_static`` (2.96 ->
2.73).  A fitted server (``repro serve`` without ``--no-fit``) weighs
terms by IDF, which spreads the values (median 85 distinct of 170 on
the same corpus): the table still wins there, at ~700 bytes.  No blob
ever grows — the table is written only where it is the smaller.

A ``ceil(dim / 8)``-byte column bitmap in place of the steps was built
and measured too: numpy turns a bitmap
back into columns only through a mask over every cell or a pass per set
bit, and its ``decode_many`` took 2.1x the sparse layout's time, while
a running sum over byte steps is one in-place ``cumsum`` — and the
steps are the smaller for fewer than ``dim / 8`` non-zeros (200 bytes
against 256 at 200 of 2 048).  What the table still costs, against the
sparse layout on a 2-CPU Linux host (500 benchmark-shaped vectors, 60
interleaved pairs, medians): ``decode_many`` 3.0 us a row instead of
2.7 (the running sum and the table lookup are the difference),
``decode_vector`` 7.5 us instead of 5.0 and ``encode_vector`` 22 us
instead of 9.  A cold start does not pay for it: an attach — the owner
scan that reads the rows, plus ``decode_many`` — of 1 200 records takes
14.2 ms instead of 13.9 and of 6 600 records 85.5 ms instead of 89.2,
since the scan reads a third fewer pages.

Both headed layouts start their float payload at a multiple of four
bytes (an unaligned ``frombuffer`` view costs microseconds per vector on
the hydration path) and end in a 13-byte trailer, which makes every
headed blob's length odd — ``17 + 6 * count`` sparse, ``21 + 4 * nvals
+ 2 * count`` table — and that is what tells it from a dense one: a
record row carries no ``dim`` column to compare against.  Zero is
decided on the ``uint32`` view and a table moves values as ``uint32``,
so ``-0.0`` and NaN payloads survive: ``decode(encode(v)).tobytes() ==
v.tobytes()`` for every float32 vector.  (The leading ``1`` of the
trailer is the row count of the sparse layout's multi-row form, which
base slabs used until schema v9 dropped them; nothing at rest holds
more than one row now.)

Decoding validates everything it reads and raises ``ValueError`` on a
truncated, inconsistent or out-of-range blob; the checksum extends that
to any flipped bit of a headed blob.  (That columns ascend is not
checked, in either headed layout: a well-sealed blob that repeats a
column decodes, its later value winning.)  A headerless dense blob has no
redundancy beyond its length, and a record row cut to a multiple of four
bytes still reads as a narrower dense vector, as it always did.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

_COUNT = struct.Struct("=I")
_TABLE_HEAD = struct.Struct("=II")  # count, nvals
_SHAPE = struct.Struct("=II")
_SEAL = struct.Struct("=IB")  # crc32 of everything before it, layout tag
_TRAILER = struct.Struct("=IIIB")  # _SHAPE then _SEAL, read in one call
_SPARSE_TAG = 1
_TABLE_TAG = 2
#: codes and column steps are uint8
_MAX_TABLE_VALUES = 256
_MAX_STEP = 255
#: sparse columns are uint16, and the table layout shares the limit:
#: wider vectors are always stored dense
_MAX_SPARSE_DIM = 0xFFFF


def _table_size(count: int, nvals: int) -> int:
    """Bytes of a table blob — always odd, like a sparse blob's."""
    return _TABLE_HEAD.size + 4 * nvals + 2 * count + _TRAILER.size


def encode_vector(vector: np.ndarray) -> bytes:
    """The at-rest bytes of one float32 ``vector``."""
    row = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    dim = row.shape[0]
    if not 0 < dim <= _MAX_SPARSE_DIM:
        return row.tobytes()
    bits = row.view(np.uint32)
    stored = bits.nonzero()[0]
    sparse = _COUNT.size + 6 * len(stored) + _TRAILER.size
    table = _value_table(bits, stored, dim, min(sparse, dim * 4))
    if table is not None:
        return table
    if sparse < dim * 4:
        sealed = b"".join(
            (
                _COUNT.pack(len(stored)),
                row[stored].tobytes(),
                stored.astype(np.uint16).tobytes(),
                _SHAPE.pack(1, dim),
            )
        )
        return sealed + _SEAL.pack(zlib.crc32(sealed), _SPARSE_TAG)
    return row.tobytes()


def _value_table(
    bits: np.ndarray, stored: np.ndarray, dim: int, best: int
) -> bytes | None:
    """The value-table blob of the ``uint32`` view ``bits`` of a vector
    whose non-zeros are at ``stored``, if it is eligible and smaller than
    ``best`` bytes.  The cheap bounds go first: the size of a one-value
    table, then the column steps, then whether the first 257 stored
    values are already all distinct (a dense client vector's are: a
    2 048-wide one encodes in ~63 instead of ~290 us on a 2-CPU Xeon
    host), and only then the distinct values."""
    count = len(stored)
    if _table_size(count, 1) >= best:
        return None
    steps = stored.copy()
    steps[1:] -= stored[:-1]
    if steps.max() > _MAX_STEP:
        return None
    values = bits[stored]
    head = values[: _MAX_TABLE_VALUES + 1]
    if len(head) > _MAX_TABLE_VALUES and len(np.unique(head)) == len(head):
        return None
    table = np.unique(values)
    if len(table) > _MAX_TABLE_VALUES or _table_size(count, len(table)) >= best:
        return None
    pairs = np.empty((count, 2), dtype=np.uint8)
    pairs[:, 0] = table.searchsorted(values)
    pairs[:, 1] = steps
    sealed = b"".join(
        (
            _TABLE_HEAD.pack(count, len(table)),
            table.tobytes(),
            pairs.tobytes(),
            _SHAPE.pack(1, dim),
        )
    )
    return sealed + _SEAL.pack(zlib.crc32(sealed), _TABLE_TAG)


def _layout(blob: bytes) -> tuple[int, int, int, int]:
    """``(tag, dim, count, nvals)`` of a headed blob (``nvals`` 0 for a
    sparse one), after checking its trailer, checksum and length —
    everything but the columns and codes."""
    body = len(blob) - _TRAILER.size
    if body < _COUNT.size:
        raise ValueError("truncated blob")
    rows, dim, crc, tag = _TRAILER.unpack_from(blob, body)
    if rows != 1 or not 0 < dim <= _MAX_SPARSE_DIM:
        raise ValueError("inconsistent sparse trailer")
    # a sliced copy checksums faster than a memoryview of the same bytes
    if zlib.crc32(blob[: body + _SHAPE.size]) != crc:
        raise ValueError("sparse blob checksum mismatch")
    if tag == _TABLE_TAG:
        # a blob too short for this head fails the length check
        count, nvals = _TABLE_HEAD.unpack_from(blob)
        if body != _TABLE_HEAD.size + 4 * nvals + 2 * count:
            raise ValueError("truncated blob")
        if nvals > _MAX_TABLE_VALUES:
            raise ValueError("inconsistent value table")
        return tag, dim, count, nvals
    if tag != _SPARSE_TAG:
        raise ValueError("inconsistent sparse trailer")
    (count,) = _COUNT.unpack_from(blob)
    if body != _COUNT.size + (4 if count == dim else 6) * count:
        raise ValueError("truncated blob")
    return tag, dim, count, 0


def decode_vector(blob: bytes) -> np.ndarray:
    """The float32 vector ``blob`` encodes — writable, its width taken
    from the blob itself (nothing beside a record row says how wide it
    is).

    Raises ``ValueError`` unless the blob is exactly one well-formed
    encoding of one vector.
    """
    if len(blob) % 4 == 0:
        return np.frombuffer(blob, dtype=np.float32).copy()
    tag, dim, count, nvals = _layout(blob)
    if tag == _TABLE_TAG:
        at = _TABLE_HEAD.size + 4 * nvals
        pairs = np.frombuffer(
            blob, dtype=np.uint8, count=2 * count, offset=at
        ).reshape(count, 2)
        columns = pairs[:, 1].astype(np.intp)
        columns.cumsum(out=columns)
        table = np.frombuffer(
            blob, dtype=np.uint32, count=nvals, offset=_TABLE_HEAD.size
        )
        out = np.zeros(dim, dtype=np.uint32)
        try:
            out[columns] = table[pairs[:, 0]]
        except IndexError:
            raise ValueError("column or code out of range") from None
        return out.view(np.float32)
    values = np.frombuffer(
        blob, dtype=np.float32, count=count, offset=_COUNT.size
    )
    if count == dim:
        return values.copy()
    columns = np.frombuffer(
        blob, dtype=np.uint16, count=count, offset=_COUNT.size + 4 * count
    )
    out = np.zeros(dim, dtype=np.float32)
    try:
        out[columns] = values
    except IndexError:
        raise ValueError("column out of range") from None
    return out


def decode_many(blobs: Sequence[bytes]) -> np.ndarray:
    """The ``(len(blobs), dim)`` float32 matrix whose row ``i`` is
    ``decode_vector(blobs[i])`` — C-contiguous, writable, same bits.

    Every blob is validated exactly as :func:`decode_vector` validates
    it; what is batched is the numpy work: one zeroed slab, one scatter
    for all sparse rows and one for all table rows (their cells one
    running sum over the joined steps), instead of arrays, views and a
    scatter per row (a cold start decodes every vector of the registry).
    Raises ``ValueError`` for a malformed blob or one of another width;
    no blobs decode to a ``(0, 0)`` matrix.
    """
    dim = None
    whole_rows: list[int] = []
    whole_parts: list[bytes] = []
    sparse_rows: list[int] = []
    counts: list[int] = []
    value_parts: list[bytes] = []
    column_parts: list[bytes] = []
    table_rows: list[int] = []
    table_counts: list[int] = []
    table_nvals: list[int] = []
    table_parts: list[bytes] = []
    pair_parts: list[bytes] = []
    for row, blob in enumerate(blobs):
        if len(blob) % 4 == 0:
            width = len(blob) // 4
            whole_rows.append(row)
            whole_parts.append(blob)
        else:
            tag, width, count, nvals = _layout(blob)
            if tag == _TABLE_TAG:
                at = _TABLE_HEAD.size + 4 * nvals
                table_rows.append(row)
                table_counts.append(count)
                table_nvals.append(nvals)
                table_parts.append(blob[_TABLE_HEAD.size : at])
                pair_parts.append(blob[at : at + 2 * count])
            elif count == width:
                whole_rows.append(row)
                whole_parts.append(blob[_COUNT.size : _COUNT.size + 4 * count])
            else:
                values_end = _COUNT.size + 4 * count
                sparse_rows.append(row)
                counts.append(count)
                value_parts.append(blob[_COUNT.size : values_end])
                column_parts.append(blob[values_end : values_end + 2 * count])
        if dim is None:
            dim = width
        elif width != dim:
            raise ValueError("record vector dimension mismatch")
    out = np.zeros((len(blobs), dim or 0), dtype=np.float32)
    if whole_rows:
        out[whole_rows] = np.frombuffer(
            b"".join(whole_parts), dtype=np.float32
        ).reshape(len(whole_rows), dim)
    if sparse_rows:
        columns = np.frombuffer(b"".join(column_parts), dtype=np.uint16)
        if columns.shape[0] and int(columns.max()) >= dim:
            raise ValueError("column out of range")
        out[np.repeat(sparse_rows, counts), columns] = np.frombuffer(
            b"".join(value_parts), dtype=np.float32
        )
    pairs = np.frombuffer(b"".join(pair_parts), dtype=np.uint8)
    if pairs.size:
        sizes = np.array(table_counts)
        held = sizes > 0
        firsts = (np.cumsum(sizes) - sizes)[held]
        nvals = np.array(table_nvals)
        codes, steps = pairs.reshape(-1, 2).T
        if (np.maximum.reduceat(codes, firsts) >= nvals[held]).any():
            raise ValueError("code out of range")
        # each row's codes index its own table inside the joined ones
        values = np.frombuffer(b"".join(table_parts), dtype=np.uint32)[
            codes + np.repeat(np.cumsum(nvals) - nvals, sizes)
        ]
        # a row's last column is the sum of its steps
        lasts = np.add.reduceat(steps, firsts, dtype=np.intp)
        if (lasts >= dim).any():
            raise ValueError("column out of range")
        # one running sum over all rows' steps lands on the rows' cells
        # of ``out`` once each row's first step also jumps there from the
        # previous row's last cell
        starts = np.asarray(table_rows)[held] * dim
        cells = steps.astype(np.intp)
        cells[firsts] += starts - np.concatenate(([0], (starts + lasts)[:-1]))
        cells.cumsum(out=cells)  # in place: measured 2x faster
        out.reshape(-1).view(np.uint32)[cells] = values
    return out

"""Bit-exact codec for every float32 vector blob SQLite stores.

A vector lives in its record row (``pes.code_embedding`` /
``desc_embedding``, ``workflows.desc_embedding``) and nowhere else, one
vector to a blob: :func:`encode_vector` writes it, :func:`decode_vector`
reads one back (top-k hydration) and :func:`decode_many` reads a whole
shard's rows into one matrix (cold start).  Hashed embeddings are mostly
zeros (median 7 and 168 non-zeros of 2 048 on the e2e corpus), so a blob
is written in whichever of two layouts is smaller; decoding always
yields dense float32, so nothing above the DAO can tell which layout a
row was stored in.

**Dense** — the vector's float32 bytes, ``dim * 4`` bytes, no header.
This is the only layout schema v6 and older wrote, so legacy files
decode through the same functions with no rewrite pass.

**Sparse** — chosen only when strictly smaller than dense::

    count    uint32              stored values; == dim marks a vector
                                 kept whole (never written for a single
                                 vector — sparse would not be smaller —
                                 but part of the layout, so decoded)
    values   float32[count]
    columns  uint16[count]       ascending; absent when count == dim
    trailer  uint32 1, uint32 dim, uint32 crc32(all before it),
             uint8 1

The float payload starts at a multiple of four bytes (an unaligned
``frombuffer`` view costs microseconds per vector on the hydration path)
and the 13-byte trailer makes every sparse blob's length odd, which is
what tells it from a dense one — a record row carries no ``dim`` column
to compare against.  Zero is decided on the ``uint32`` view, so ``-0.0``
and NaN payloads survive: ``decode(encode(v)).tobytes() == v.tobytes()``
for every float32 vector.  (The leading ``1`` of the trailer is the row
count of the layout's multi-row form, which base slabs used until
schema v9 dropped them; nothing at rest holds more than one row now.)

Decoding validates everything it reads and raises ``ValueError`` on a
truncated, inconsistent or out-of-range blob; the checksum extends that
to any flipped bit of a sparse blob.  A headerless dense blob has no
redundancy beyond its length, and a record row cut to a multiple of four
bytes still reads as a narrower dense vector, as it always did.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

_COUNT = struct.Struct("=I")
_SHAPE = struct.Struct("=II")
_SEAL = struct.Struct("=IB")  # crc32 of everything before it, layout tag
_TRAILER = struct.Struct("=IIIB")  # _SHAPE then _SEAL, read in one call
_SPARSE_TAG = 1
#: columns are uint16: wider vectors are always stored dense
_MAX_SPARSE_DIM = 0xFFFF


def encode_vector(vector: np.ndarray) -> bytes:
    """The at-rest bytes of one float32 ``vector``."""
    row = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    dim = row.shape[0]
    if 0 < dim <= _MAX_SPARSE_DIM:
        stored = np.flatnonzero(row.view(np.uint32))
        if _TRAILER.size + _COUNT.size + 6 * len(stored) < dim * 4:
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


def _sparse_layout(blob: bytes) -> tuple[int, int]:
    """``(dim, count)`` of a sparse blob, after checking its trailer,
    checksum and length — everything but the column values."""
    body = len(blob) - _TRAILER.size
    if body < _COUNT.size:
        raise ValueError("truncated blob")
    rows, dim, crc, tag = _TRAILER.unpack_from(blob, body)
    if tag != _SPARSE_TAG or rows != 1 or not 0 < dim <= _MAX_SPARSE_DIM:
        raise ValueError("inconsistent sparse trailer")
    if zlib.crc32(memoryview(blob)[: body + _SHAPE.size]) != crc:
        raise ValueError("sparse blob checksum mismatch")
    (count,) = _COUNT.unpack_from(blob)
    if body != _COUNT.size + (4 if count == dim else 6) * count:
        raise ValueError("truncated blob")
    return dim, count


def decode_vector(blob: bytes) -> np.ndarray:
    """The float32 vector ``blob`` encodes — writable, its width taken
    from the blob itself (nothing beside a record row says how wide it
    is).

    Raises ``ValueError`` unless the blob is exactly one well-formed
    encoding of one vector.
    """
    if len(blob) % 4 == 0:
        return np.frombuffer(blob, dtype=np.float32).copy()
    dim, count = _sparse_layout(blob)
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
    it; what is batched is the numpy work: one zeroed slab and one
    scatter for all sparse rows, instead of an array, two views and a
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
    for row, blob in enumerate(blobs):
        if len(blob) % 4 == 0:
            width = len(blob) // 4
            whole_rows.append(row)
            whole_parts.append(blob)
        else:
            width, count = _sparse_layout(blob)
            values_end = _COUNT.size + 4 * count
            if count == width:
                whole_rows.append(row)
                whole_parts.append(blob[_COUNT.size : values_end])
            else:
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
    return out

"""Bit-exact codec for every float32 vector blob SQLite stores.

Record rows (``pes.code_embedding`` / ``desc_embedding``,
``workflows.desc_embedding``) and base slabs (``index_shards.vectors``)
— the only two places a vector is stored — all go through
:func:`encode_vectors` / :func:`decode_vectors`.  Hashed embeddings are
mostly zeros (median 7 and 168 non-zeros of 2 048 on the e2e corpus), so
a blob is written in whichever of two layouts is smaller; decoding always
yields the dense float32 matrix, so nothing above the DAO can tell which
layout a row was stored in.

**Dense** — the rows' float32 bytes back to back, ``rows * dim * 4``
bytes, no header.  This is the only layout schema v6 and older wrote, so
legacy files decode through the same function with no rewrite pass.

**Sparse** — chosen only when strictly smaller than dense::

    counts   uint32[rows]        stored values per row; == dim marks a
                                 row kept dense (sparse would not be
                                 smaller for it)
    values   float32[sum(counts)]
    columns  uint16[...]         one per value of a non-dense row,
                                 ascending within the row
    trailer  uint32 rows, uint32 dim, uint32 crc32(all before it),
             uint8 1

The float payload starts at a multiple of four bytes (an unaligned
``frombuffer`` view costs microseconds per vector on the hydration path)
and the 13-byte trailer makes every sparse blob's length odd, which is
what tells it from a dense one — a record row carries no ``dim`` column
to compare against.  Zero is decided on the ``uint32`` view, so ``-0.0``
and NaN payloads survive: ``decode(encode(m)).tobytes() == m.tobytes()``
for every float32 matrix.

Decoding validates everything it reads and raises ``ValueError`` on a
truncated, inconsistent or out-of-range blob; the checksum extends that
to any flipped bit of a sparse blob.  A headerless dense blob has no
redundancy beyond its length, and a record row cut to a multiple of four
bytes still reads as a narrower dense vector, as it always did.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SHAPE = struct.Struct("=II")
_SEAL = struct.Struct("=IB")  # crc32 of everything before it, layout tag
_TRAILER_SIZE = _SHAPE.size + _SEAL.size
_COUNT = struct.Struct("=I")
_SPARSE_TAG = 1
#: columns are uint16: wider matrices are always stored dense
_MAX_SPARSE_DIM = 0xFFFF
#: a slab is encoded this many rows at a time, so the masks and index
#: arrays it needs along the way stay a few MB whatever the slab's size
#: (a fold encodes a whole shard under the write lock, and first-touch
#: of slab-sized temporaries cost 10x the encoding itself)
_ENCODE_BLOCK_ROWS = 256


def encode_vectors(matrix: np.ndarray) -> bytes:
    """The at-rest bytes of a 2-D float32 ``matrix``."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError("encode_vectors wants a 2-D matrix")
    rows, dim = matrix.shape
    if rows == 1 and 0 < dim <= _MAX_SPARSE_DIM:
        # one record's vector — every registry write encodes two, so
        # this case skips the block machinery (same bytes)
        row = matrix[0]
        stored = np.flatnonzero(row.view(np.uint32))
        if _TRAILER_SIZE + _COUNT.size + 6 * len(stored) < dim * 4:
            sealed = b"".join(
                (
                    _COUNT.pack(len(stored)),
                    row[stored].tobytes(),
                    stored.astype(np.uint16).tobytes(),
                    _SHAPE.pack(1, dim),
                )
            )
            return sealed + _SEAL.pack(zlib.crc32(sealed), _SPARSE_TAG)
    elif rows and 0 < dim <= _MAX_SPARSE_DIM:
        counts, values, columns = [], [], []
        size = _TRAILER_SIZE
        for start in range(0, rows, _ENCODE_BLOCK_ROWS):
            block = matrix[start : start + _ENCODE_BLOCK_ROWS]
            stored = block.view(np.uint32) != 0
            nnz = np.count_nonzero(stored, axis=1)
            keep_dense = 6 * nnz >= 4 * dim
            any_dense = bool(keep_dense.any())
            if any_dense:
                stored[keep_dense] = True
            block_counts = np.where(keep_dense, dim, nnz).astype(np.uint32)
            # flat positions of the stored values, row-major
            flat = np.flatnonzero(stored)
            values.append(block.reshape(-1)[flat].tobytes())
            if any_dense:
                flat = flat[~np.repeat(keep_dense, block_counts)]
            columns.append((flat % dim).astype(np.uint16).tobytes())
            counts.append(block_counts.tobytes())
            size += len(counts[-1]) + len(values[-1]) + len(columns[-1])
        if size < rows * dim * 4:
            sealed = b"".join(
                (*counts, *values, *columns, _SHAPE.pack(rows, dim))
            )
            return sealed + _SEAL.pack(zlib.crc32(sealed), _SPARSE_TAG)
    return matrix.tobytes()


def decode_vectors(
    blob: bytes, rows: int, dim: int | None = None
) -> np.ndarray:
    """The ``(rows, dim)`` float32 matrix ``blob`` encodes — writable,
    C-contiguous.  ``dim=None`` (a record row: nothing beside the blob
    says how wide it is) takes the width from the blob itself.

    Raises ``ValueError`` unless the blob is exactly one well-formed
    encoding of a matrix of that shape.
    """
    size = len(blob)
    if rows < 0 or (dim is not None and dim < 0):
        raise ValueError("negative shape")
    if size % 4 == 0:
        if dim is None:
            if not rows or size % (4 * rows):
                raise ValueError("dense blob does not divide into rows")
            dim = size // (4 * rows)
        if size != rows * dim * 4:
            raise ValueError("truncated blob")
        return np.frombuffer(blob, dtype=np.float32).reshape(rows, dim).copy()
    body = size - _TRAILER_SIZE
    if body < 4 * rows:
        raise ValueError("truncated blob")
    stored_rows, stored_dim = _SHAPE.unpack_from(blob, body)
    crc, tag = _SEAL.unpack_from(blob, body + _SHAPE.size)
    if (
        tag != _SPARSE_TAG
        or stored_rows != rows
        or (dim is not None and stored_dim != dim)
        or not 0 < stored_dim <= _MAX_SPARSE_DIM
    ):
        raise ValueError("inconsistent sparse trailer")
    dim = stored_dim
    if zlib.crc32(memoryview(blob)[: body + _SHAPE.size]) != crc:
        raise ValueError("sparse blob checksum mismatch")
    if rows == 1:
        # one record's vector — top-k hydration decodes two per hit, so
        # this case reads its count as a plain int, not through array
        # reductions
        (n_values,) = _COUNT.unpack_from(blob)
        n_columns = 0 if n_values == dim else n_values
    else:
        counts = np.frombuffer(blob, dtype=np.uint32, count=rows)
        dense_rows = counts == dim
        n_values = int(counts.sum(dtype=np.int64))
        n_columns = n_values - dim * int(np.count_nonzero(dense_rows))
    if body != 4 * rows + 4 * n_values + 2 * n_columns:
        raise ValueError("truncated blob")
    values = np.frombuffer(
        blob, dtype=np.float32, count=n_values, offset=4 * rows
    )
    columns = np.frombuffer(
        blob, dtype=np.uint16, count=n_columns, offset=4 * rows + 4 * n_values
    )
    out = np.zeros((rows, dim), dtype=np.float32)
    try:
        if rows == 1:
            if n_values == dim:
                out[0] = values
            else:
                out[0, columns] = values
        else:
            in_dense_row = np.repeat(dense_rows, counts)
            row_of = np.repeat(np.arange(rows), counts)
            out[row_of[~in_dense_row], columns] = values[~in_dense_row]
            out[dense_rows] = values[in_dense_row].reshape(-1, dim)
    except IndexError:
        raise ValueError("column out of range") from None
    return out

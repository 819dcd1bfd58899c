"""Lossless codec for a record's (code, source) column pair.

A PE row holds its ``pe_code`` and ``pe_source`` (a workflow row its
``workflow_code`` and ``workflow_source``) beside its embeddings, and on
1 KB pages the plain text no longer fit one leaf: after a ``mixed_rw``
e2e run a ``pes`` row held 265 bytes of code, 278 of source and a
459-byte code vector, and 86 % of rows spilled onto an overflow page that
only that row used — logged on every insert, freed and re-allocated
(freelist and header pages with it) on every revise and delete.  Stored
through this codec, 7 % do.  Files made since have 512-byte pages, on
which a row spills either way, and the codec still saves a page: a
benchmark PE's ~780-byte row is a leaf and one overflow page, where its
~1 130 bytes as plain text would take a leaf and two.

:func:`encode_texts` stores the code zlib-deflated, and the source
deflated with the code's UTF-8 bytes as zlib's preset dictionary
(``zdict``): a source that contains its code — a v1 PUT's ``peSource``
is its ``peCode``, an ingested chunk's source is its code after the
module header and imports — costs only its extra text plus a reference
back into the dictionary.  Each value is stored as a BLOB only when that
is strictly shorter than its UTF-8 text; otherwise it stays TEXT, so a
stored value is never longer than its text.  :func:`decode_texts` reads
a TEXT value as itself, which is how a file written before schema v14
reads, with no rewrite pass: a row is re-encoded the next time its
record is written.

Every blob is a zlib stream (2-byte header, 4 more naming the
dictionary's Adler-32 when one was used, 4-byte Adler-32 trailer over
the text), so a truncated blob, a flipped bit or a source decoded
against another code raises ``ValueError``.  (The one exception is a
flip of a padding bit in the deflate data's last byte, up to seven
bits inflate never reads: the texts decode as they were.)

Measured on the e2e corpus (2 000 ingested chunks and 500 v1 PUT
bodies of seed 1 — every one a source that contains its code — on a
2-CPU Linux host): a record's code and source take 210 bytes instead of
575 as text (code 265 -> 156, source 310 -> 54).  Deflating each column
on its own, with no dictionary, leaves 341: the dictionary is what makes
the source nearly free, and a client whose ``peCode`` is not in its
source (a cloudpickle payload, say) gets only the per-column gain.  The
cost is per stream — setting one up, and building its Huffman codes at
the flush — so the settings barely move it: encoding takes 25-33 us a
record and decoding 8-11 us (medians of seven passes, the spread being
the host's drift from hour to hour; one record in a tight loop, 18 and
6.6 us).  So they are chosen for size: a window of 2^10 bytes is the
smallest that holds a corpus record's code and source (2^9 stores ~50 %
more), memLevel 4 the smallest that reaches the best size (1: +1.7 %),
and level 9 costs no more than 6 at these lengths (1: +1.5 %).  Text
longer than the window still round-trips; it only deflates less.
"""

from __future__ import annotations

import zlib

#: deflate level, window bits and memLevel: measured, see the docstring
_LEVEL = 9
_WBITS = 10
_MEM_LEVEL = 4


def _deflated(text: str, zdict: bytes) -> str | bytes:
    """``text`` deflated against ``zdict`` (an empty one is none), or
    ``text`` itself when the blob would not be strictly shorter."""
    raw = text.encode("utf-8")
    packer = zlib.compressobj(
        _LEVEL, zlib.DEFLATED, _WBITS, _MEM_LEVEL, zdict=zdict
    )
    blob = packer.compress(raw) + packer.flush()
    return blob if len(blob) < len(raw) else text


def _inflated(value: str | bytes, zdict: bytes) -> str:
    if isinstance(value, str):
        return value
    # window bits 0: the stream's own, from its header
    unpacker = zlib.decompressobj(0, zdict=zdict)
    try:
        raw = unpacker.decompress(value) + unpacker.flush()
    except zlib.error as err:
        raise ValueError(f"corrupt text blob: {err}") from None
    if not unpacker.eof or unpacker.unused_data:
        raise ValueError("truncated or overlong text blob")
    return raw.decode("utf-8")


def encode_texts(code: str, source: str) -> tuple[str | bytes, str | bytes]:
    """The stored ``(code, source)`` values: each a deflated blob when
    strictly shorter than its text, the source against the code."""
    return _deflated(code, b""), _deflated(source, code.encode("utf-8"))


def decode_texts(code: str | bytes, source: str | bytes) -> tuple[str, str]:
    """The ``(code, source)`` texts of stored values; a TEXT value is
    itself, a corrupt or truncated blob raises ``ValueError``."""
    text = _inflated(code, b"")
    return text, _inflated(source, text.encode("utf-8"))

"""The at-rest vector codec: bit-exact, validated, legacy-compatible."""

import sqlite3
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.dao import SqliteDAO
from repro.registry.service import RegistryService
from repro.registry.veccodec import decode_vectors, encode_vectors
from repro.search import KIND_CODE, KIND_DESC, VectorIndex
from tests.registry.test_dao import make_pe

#: bit patterns zero-suppression must not touch: -0.0, a quiet and a
#: signalling NaN with payloads, infinities, the smallest denormal
SPECIALS = np.array(
    [0x80000000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0x7F800000,
     0xFF800000, 0x00000001],
    dtype=np.uint32,
)


@st.composite
def matrices(draw, max_rows=6, max_dim=40):
    """float32 matrices as raw bit patterns, from all-zero to full."""
    rows = draw(st.integers(0, max_rows))
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


def is_sparse(blob):
    return len(blob) % 4 != 0


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_decode_of_encode_is_the_same_bytes(self, matrix):
        rows, dim = matrix.shape
        blob = encode_vectors(matrix)
        decoded = decode_vectors(blob, rows, dim)
        assert decoded.tobytes() == matrix.tobytes()
        assert decoded.shape == matrix.shape
        assert decoded.dtype == np.float32
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        # never larger than dense; the sparse layout only when smaller
        assert len(blob) <= matrix.nbytes
        assert is_sparse(blob) == (len(blob) < matrix.nbytes)
        if rows == 1:
            # a record row: the width comes from the blob alone
            assert decode_vectors(blob, 1).tobytes() == matrix.tobytes()

    def test_typical_embedding_is_stored_sparse(self):
        vec = np.zeros((1, 2048), dtype=np.float32)
        vec[0, [3, 700, 2047]] = [0.5, -0.25, 1.0]
        blob = encode_vectors(vec)
        assert len(blob) == 4 + 3 * 6 + 13
        assert decode_vectors(blob, 1).tobytes() == vec.tobytes()

    def test_dense_row_inside_a_sparse_matrix(self):
        matrix = np.zeros((3, 32), dtype=np.float32)
        matrix[1] = np.arange(1, 33)
        matrix[2, 5] = -0.0
        blob = encode_vectors(matrix)
        assert is_sparse(blob)
        assert decode_vectors(blob, 3, 32).tobytes() == matrix.tobytes()

    def test_width_beyond_uint16_columns_falls_back_to_dense(self):
        widest = np.zeros((2, 0xFFFF), dtype=np.float32)
        assert is_sparse(encode_vectors(widest))
        wider = np.zeros((2, 0x10000), dtype=np.float32)
        wider[1, 0xFFFF] = 1.0
        blob = encode_vectors(wider)
        assert blob == wider.tobytes()
        assert decode_vectors(blob, 2, 0x10000).tobytes() == wider.tobytes()

    def test_legacy_dense_blob_decodes_through_the_same_function(self):
        matrix = np.zeros((4, 16), dtype=np.float32)
        matrix[0, 1] = 2.0
        legacy = matrix.tobytes()  # what schema v6 and older stored
        assert legacy != encode_vectors(matrix)
        assert decode_vectors(legacy, 4, 16).tobytes() == matrix.tobytes()
        assert decode_vectors(legacy[:64], 1).tobytes() == legacy[:64]


def encode_through_blocks(matrix):
    """The block path as it encoded every matrix before one-row
    matrices got their own: the reference the short path must match
    byte for byte (a record row written either way is the same row)."""
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


class TestOneRowPath:
    @settings(max_examples=300, deadline=None)
    @given(matrices(max_rows=1, max_dim=64))
    def test_same_bytes_as_the_block_path(self, matrix):
        if matrix.shape[0] == 1 and matrix.shape[1]:
            assert encode_vectors(matrix) == encode_through_blocks(matrix)

    def test_reference_is_the_block_path(self):
        # two rows still go through the blocks: the reference agrees
        # with the codec there, so it is the layout, not a lookalike
        rng = np.random.default_rng(7)
        for density in (0.0, 0.05, 0.5, 0.7, 1.0):
            matrix = rng.random((2, 48), dtype=np.float32)
            matrix[rng.random((2, 48)) >= density] = 0
            assert encode_vectors(matrix) == encode_through_blocks(matrix)


class TestCorruptInput:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_every_truncation_raises(self, matrix):
        rows, dim = matrix.shape
        blob = encode_vectors(matrix)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_vectors(blob[:cut], rows, dim)

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_rows=4, max_dim=24), st.booleans())
    def test_every_bit_flip_of_a_sparse_blob_raises(self, matrix, infer_dim):
        """A flipped bit never decodes to a different matrix.  (Only the
        sparse layout carries a checksum; a headerless dense blob — the
        legacy format — has no redundancy beyond its length.)"""
        rows, dim = matrix.shape
        blob = encode_vectors(matrix)
        if not is_sparse(blob) or (infer_dim and rows != 1):
            return
        for position in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[position // 8] ^= 1 << (position % 8)
            with pytest.raises(ValueError):
                decode_vectors(
                    bytes(flipped), rows, None if infer_dim else dim
                )

    def test_wrong_declared_shape_raises(self):
        matrix = np.zeros((3, 16), dtype=np.float32)
        matrix[0, 0] = 1.0
        for blob in (encode_vectors(matrix), matrix.tobytes()):
            for rows, dim in ((2, 16), (3, 15), (3, 17), (-1, 16), (3, -1)):
                with pytest.raises(ValueError):
                    decode_vectors(blob, rows, dim)

    def test_column_out_of_range_is_a_value_error(self):
        """A well-sealed blob whose column points past the row."""
        sealed = (
            np.array([1], dtype=np.uint32).tobytes()
            + np.array([1.0], dtype=np.float32).tobytes()
            + np.array([9], dtype=np.uint16).tobytes()
            + struct.pack("=II", 1, 8)
        )
        blob = sealed + struct.pack("=IB", zlib.crc32(sealed), 1)
        with pytest.raises(ValueError, match="column out of range"):
            decode_vectors(blob, 1, 8)

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
        assert is_sparse(stored)
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


def rewrite_as_v6(path):
    """Give a registry file the blobs schema v6 wrote: every vector
    (record rows, base slabs — the journal holds none since v8)
    headerless dense float32, ``user_version`` 6 — raw SQL only."""
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
                conn.execute(
                    f"UPDATE {table} SET {column}=? WHERE {key}=?",
                    (decode_vectors(blob, 1).tobytes(), rid),
                )
    rows = conn.execute(
        "SELECT rowid, rows, dim, vectors FROM index_shards"
    ).fetchall()
    for rid, n, dim, blob in rows:
        conn.execute(
            "UPDATE index_shards SET vectors=? WHERE rowid=?",
            (decode_vectors(blob, n, dim).tobytes(), rid),
        )
    conn.execute("PRAGMA user_version = 6")
    conn.commit()
    conn.close()


def blob_lengths(path):
    conn = sqlite3.connect(path)
    try:
        return {
            "pes": dict(
                conn.execute("SELECT pe_id, LENGTH(desc_embedding) FROM pes")
            ),
            "slabs": dict(
                conn.execute(
                    "SELECT user_id || '/' || kind, LENGTH(vectors)"
                    " FROM index_shards"
                )
            ),
        }
    finally:
        conn.close()


class TestLegacyFile:
    def test_v6_file_opens_fresh_serves_bitwise_and_reencodes_lazily(
        self, tmp_path
    ):
        rng = np.random.default_rng(71)
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        for i in range(20):
            service.add_pe(
                alice,
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=sparse_unit(rng),
                    code_embedding=sparse_unit(rng),
                ),
            )
        service.persist_shards()
        # a base slab *and* a journal tail, both to be read back dense
        service._compact_shard((alice.user_id, KIND_DESC))
        service.add_pe(
            alice,
            make_pe("Tail", code="dGFpbA==", desc_embedding=sparse_unit(rng)),
        )
        service.dao.close()
        rewrite_as_v6(path)
        legacy = blob_lengths(path)
        assert set(legacy["pes"].values()) == {DIM * 4}
        assert legacy["slabs"][f"{alice.user_id}/{KIND_DESC}"] == 20 * DIM * 4

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 8
        # opening rewrote nothing
        assert blob_lengths(path) == legacy
        restarted = RegistryService(dao)
        warm = VectorIndex()
        assert restarted.attach_index(warm) == "fresh"

        user = restarted.get_user("alice")
        records = restarted.user_pes(user)
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
        assert after["pes"][target.pe_id] < DIM * 4
        untouched = {k: v for k, v in after["pes"].items() if k != target.pe_id}
        assert untouched == {
            k: v for k, v in legacy["pes"].items() if k != target.pe_id
        }
        assert after["slabs"] == legacy["slabs"]  # until their next fold
        dao.close()

        again = RegistryService(SqliteDAO(path))
        assert again.attach_index(VectorIndex()) == "fresh"

    def test_legacy_dense_row_and_sparse_reencoding_stamp_nothing(
        self, tmp_path
    ):
        """The stamping rule compares vectors, not encodings: rewriting
        a legacy dense row with the same vector (now stored sparse) must
        not stale the shard."""
        rng = np.random.default_rng(72)
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        stored = service.add_pe(
            alice,
            make_pe(
                "P", code="cA==", description="before",
                desc_embedding=sparse_unit(rng),
            ),
        )
        service.dao.close()
        rewrite_as_v6(path)

        dao = SqliteDAO(path)
        stamps = dao.shard_stamps()
        record = dao.get_pe(stored.pe_id)
        record.description = "after"  # metadata only, same vector
        dao.update_pe(record)
        assert dao.shard_stamps() == stamps
        assert blob_lengths(path)["pes"][stored.pe_id] < DIM * 4

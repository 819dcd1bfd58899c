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
from repro.registry.veccodec import decode_many, decode_vector, encode_vector
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


def is_sparse(blob):
    return len(blob) % 4 != 0


def seal(body, dim, rows=1):
    sealed = body + struct.pack("=II", rows, dim)
    return sealed + struct.pack("=IB", zlib.crc32(sealed), 1)


def kept_whole(vector):
    """The layout's ``count == dim`` form of a vector: every value, no
    columns.  The encoder never picks it for a single vector (dense is
    smaller), but it is part of the layout, so both decoders read it."""
    return seal(
        struct.pack("=I", vector.shape[0]) + vector.tobytes(), vector.shape[0]
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
        # never larger than dense; the sparse layout only when smaller
        assert len(blob) <= vector.nbytes
        assert is_sparse(blob) == (len(blob) < vector.nbytes)

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
        assert is_sparse(encode_vector(np.zeros(0xFFFF, dtype=np.float32)))
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


class TestOneRowLayout:
    @settings(max_examples=300, deadline=None)
    @given(vectors(max_dim=64))
    def test_same_bytes_as_the_block_layout(self, vector):
        if vector.shape[0]:
            assert encode_vector(vector) == encode_through_blocks(
                vector.reshape(1, -1)
            )

    def test_a_multi_row_blob_is_not_a_vector(self):
        """Nothing at rest holds one since v9; both decoders refuse it
        rather than read its first count as a vector's."""
        matrix = np.zeros((2, 48), dtype=np.float32)
        matrix[0, 3] = matrix[1, 7] = 1.0
        blob = encode_through_blocks(matrix)
        assert is_sparse(blob)
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
    @given(matrices(), row_forms)
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
    @given(matrices(min_rows=1, max_rows=3, max_dim=24), row_forms)
    def test_every_bit_flip_of_a_sparse_row_raises(self, matrix, forms):
        blobs = as_stored(matrix, forms)
        for row, blob in enumerate(blobs):
            if not is_sparse(blob):
                continue
            for position in range(len(blob) * 8):
                flipped = bytearray(blob)
                flipped[position // 8] ^= 1 << (position % 8)
                torn = [*blobs[:row], bytes(flipped), *blobs[row + 1:]]
                with pytest.raises(ValueError):
                    decode_many(torn)

    @settings(max_examples=100, deadline=None)
    @given(matrices(min_rows=1, max_rows=3), row_forms, st.data())
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
    def test_every_bit_flip_of_a_sparse_blob_raises(self, vector):
        """A flipped bit never decodes to a different vector.  (Only the
        sparse layout carries a checksum; a headerless dense blob — the
        legacy format — has no redundancy beyond its length.)"""
        blob = encode_vector(vector)
        if not is_sparse(blob):
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


def reshape_slabs(conn, encode):
    """Give ``index_shards`` the shape it had up to schema v8, through
    raw SQL: every base slab carries ``dim`` and a ``vectors`` blob —
    ``encode`` of the matrix of its ids' record vectors, the second copy
    of every vector that v9 dropped."""
    conn.row_factory = sqlite3.Row
    sources = {
        KIND_DESC: ("pes", "pe_id", "desc_embedding"),
        KIND_CODE: ("pes", "pe_id", "code_embedding"),
        "wf-desc": ("workflows", "workflow_id", "desc_embedding"),
    }
    slabs = conn.execute("SELECT * FROM index_shards").fetchall()
    conn.execute("DROP TABLE index_shards")
    conn.execute(
        """CREATE TABLE index_shards (
            user_id INTEGER NOT NULL, kind TEXT NOT NULL,
            mutation_counter INTEGER NOT NULL, dim INTEGER NOT NULL,
            rows INTEGER NOT NULL, ids BLOB NOT NULL, vectors BLOB NOT NULL,
            PRIMARY KEY (user_id, kind)
        )"""
    )
    for slab in slabs:
        table, key, column = sources[slab["kind"]]
        blobs = [
            conn.execute(
                f"SELECT {column} FROM {table} WHERE {key}=?", (rid,)
            ).fetchone()
            for rid in np.frombuffer(slab["ids"], dtype=np.int64).tolist()
        ]
        vectors = [
            None if blob is None or blob[0] is None else decode_vector(blob[0])
            for blob in blobs
        ]
        width = max((v.shape[0] for v in vectors if v is not None), default=0)
        # a record deleted since the fold left its old vector in the
        # slab: any will do, nothing may read it
        matrix = np.zeros((len(vectors), width), dtype=np.float32)
        for row, vector in enumerate(vectors):
            if vector is not None:
                matrix[row] = vector
        conn.execute(
            "INSERT INTO index_shards VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                slab["user_id"], slab["kind"], slab["mutation_counter"],
                matrix.shape[1], matrix.shape[0], slab["ids"], encode(matrix),
            ),
        )


def rewrite_as_v6(path):
    """Give a registry file the blobs schema v6 wrote: every vector
    (record rows, and the base slabs that still held a copy of them)
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
                    (decode_vector(blob).tobytes(), rid),
                )
    reshape_slabs(conn, lambda matrix: matrix.tobytes())
    conn.execute("PRAGMA user_version = 6")
    conn.commit()
    conn.close()


def blob_lengths(path):
    conn = sqlite3.connect(path)
    try:
        return dict(
            conn.execute("SELECT pe_id, LENGTH(desc_embedding) FROM pes")
        )
    finally:
        conn.close()


def slab_columns(path):
    conn = sqlite3.connect(path)
    try:
        return {row[1] for row in conn.execute("PRAGMA table_info(index_shards)")}
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
        service.persist_shards()
        # a base slab *and* a journal tail, both filled from dense rows
        service._compact_shard((alice.user_id, KIND_DESC))
        service.register_pe(
            alice,
            make_pe("Tail", code="dGFpbA==", desc_embedding=sparse_unit(rng)),
        )
        service.dao.close()
        rewrite_as_v6(path)
        legacy = blob_lengths(path)
        assert set(legacy.values()) == {DIM * 4}
        assert {"dim", "vectors"} <= slab_columns(path)

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 10
        # opening rewrote no record row; the slabs' copies are gone
        assert blob_lengths(path) == legacy
        assert slab_columns(path) == {
            "user_id", "kind", "mutation_counter", "rows", "ids"
        }
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
        assert after[target.pe_id] < DIM * 4
        untouched = {k: v for k, v in after.items() if k != target.pe_id}
        assert untouched == {
            k: v for k, v in legacy.items() if k != target.pe_id
        }
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
        stored = service.register_pe(
            alice,
            make_pe(
                "P", code="cA==", description="before",
                desc_embedding=sparse_unit(rng),
            ),
        )[0]
        service.dao.close()
        rewrite_as_v6(path)

        dao = SqliteDAO(path)
        stamps = dao.shard_stamps()
        record = dao.get_pe(stored.pe_id)
        record.description = "after"  # metadata only, same vector
        dao.update_pe(record)
        assert dao.shard_stamps() == stamps
        assert blob_lengths(path)[stored.pe_id] < DIM * 4

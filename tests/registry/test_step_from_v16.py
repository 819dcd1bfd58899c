"""A v16 registry file steps to v17, every stored vector bit for bit.

Schema v17 stores a vector dense or in the bit-packed layout
(:mod:`repro.registry.veccodec`, tag 3), and reads no other headed
layout; a v16 file may also hold the sparse (tag 1) and value-table
(tag 2) blobs of schema v7 to v16, and dense ones of v6 and older
everywhere packing is smaller.  Opening the file re-encodes every blob
as this code writes it, in one transaction with the stamp.

Their encoders are gone, so the blobs are hex fixtures, written by the
v16 codec for two vectors built here; a v16 file is made from the
committed DDL of that schema (``schemas/v16.sql``), a v15 file from
``schemas/v15.sql``, each holding those blobs and the same vectors as
dense legacy blobs.
"""

import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO
from repro.registry.service import RegistryService
from repro.registry.veccodec import decode_vector, encode_vector
from repro.search import VectorIndex
from tests.helpers import brute_force_index, shard_bytes
from tests.registry.test_fts_text import digest, main_ddl, open_traced

SCHEMAS = Path(__file__).parent / "schemas"
DIM = 64


def table_vector():
    """21 non-zeros taking five bit patterns: 0.25, -0.25, 0.5, a quiet
    NaN with a payload and -0.0 — three magnitudes."""
    bits = np.zeros(DIM, dtype=np.uint32)
    palette = np.array(
        [0x3E800000, 0xBE800000, 0x3F000000, 0x7FC00001, 0x80000000],
        dtype=np.uint32,
    )
    columns = np.arange(1, DIM, 3)
    bits[columns] = palette[np.arange(len(columns)) % len(palette)]
    return bits.view(np.float32)


def sparse_vector():
    """1.5, -0.0 and a negative NaN with a payload, at 3, 40 and 63."""
    bits = np.zeros(DIM, dtype=np.uint32)
    bits[[3, 40, 63]] = [0x3FC00000, 0x80000000, 0xFFC12345]
    return bits.view(np.float32)


def distinct_vector():
    """64 distinct values: stored dense by every schema."""
    return (np.arange(1, DIM + 1, dtype=np.float32) / 7).astype(np.float32)


#: the v16 codec's blobs of :func:`table_vector` (tag 2: count 21,
#: nvals 5, the patterns ascending, a (code, step) byte pair a value)
#: and :func:`sparse_vector` (tag 1: count 3, the values, the uint16
#: columns), each ending in the trailer ``1, dim, crc32, tag``
TABLE_HEX = (
    "15000000050000000000803e0000003f0100c07f00000080000080be0001040301"
    "0302030303000304030103020303030003040301030203030300030403010302"
    "030303000301000000400000004604398502"
)
SPARSE_HEX = (
    "030000000000c03f000000804523c1ff030028003f000100000040000000598faa"
    "8f01"
)

#: (table, id, column) -> (vector, stored blob) in the files built here
#: — each retired layout, the same vectors as the dense blobs older
#: code wrote, and a vector dense in every schema
ROWS = {
    ("pes", 1, "code_embedding"): (table_vector, bytes.fromhex(TABLE_HEX)),
    ("pes", 1, "desc_embedding"): (sparse_vector, bytes.fromhex(SPARSE_HEX)),
    ("pes", 2, "code_embedding"): (table_vector, table_vector().tobytes()),
    ("pes", 2, "desc_embedding"): (sparse_vector, sparse_vector().tobytes()),
    ("pes", 3, "code_embedding"): (
        distinct_vector, distinct_vector().tobytes()
    ),
    ("workflows", 1, "desc_embedding"): (
        sparse_vector, bytes.fromhex(SPARSE_HEX)
    ),
}
#: the mutation counter the files are built at
MUTATIONS = 7


def test_the_fixtures_are_the_layouts_they_name():
    table, sparse = bytes.fromhex(TABLE_HEX), bytes.fromhex(SPARSE_HEX)
    assert (len(table), table[-1]) == (8 + 4 * 5 + 2 * 21 + 13, 2)
    assert (len(sparse), sparse[-1]) == (4 + 6 * 3 + 13, 1)
    for blob in (table, sparse):
        with pytest.raises(ValueError, match="layout"):
            decode_vector(blob)


def build(path, version, trigger=None):
    """A registry file at schema ``version`` (15 or 16) from its
    committed DDL, holding :data:`ROWS` — three PEs and a workflow of
    alice's — and, with ``trigger``, that SQL too."""
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA page_size=512")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(
            f"BEGIN;{(SCHEMAS / f'v{version}.sql').read_text()}COMMIT;"
        )
        conn.execute("INSERT INTO users VALUES (1, 'alice', 'x')")
        for pe_id in (1, 2, 3):
            conn.execute(
                "INSERT INTO pes (pe_id, pe_name, description, pe_code,"
                " owners) VALUES (?, ?, ?, ?, '[1]')",
                (pe_id, f"PE{pe_id}", f"element {pe_id}", f"code {pe_id}"),
            )
            conn.execute("INSERT INTO pe_owners VALUES (1, ?)", (pe_id,))
        conn.execute(
            "INSERT INTO workflows (workflow_id, workflow_name, entry_point,"
            " workflow_code, owners) VALUES (1, 'flow', 'flow', 'graph',"
            " '[1]')"
        )
        conn.execute("INSERT INTO workflow_owners VALUES (1, 1)")
        for (table, record_id, column), (_vector, blob) in ROWS.items():
            key = "pe_id" if table == "pes" else "workflow_id"
            conn.execute(
                f"UPDATE {table} SET {column} = ? WHERE {key} = ?",
                (blob, record_id),
            )
        conn.execute(
            "UPDATE shard_stamps SET mutation_counter = ? WHERE kind ="
            " 'mutations'",
            (MUTATIONS,),
        )
        conn.execute(
            "UPDATE shard_stamps SET mutation_counter = 3 WHERE kind = 'pes'"
        )
        conn.execute(
            "UPDATE shard_stamps SET mutation_counter = 1 WHERE kind ="
            " 'workflows'"
        )
        if trigger:
            conn.execute(trigger)
        conn.execute(f"PRAGMA user_version = {version}")
        conn.commit()
    finally:
        conn.close()


def stored(conn):
    """Every :data:`ROWS` cell's blob, as the file holds it now."""
    return {
        (table, record_id, column): conn.execute(
            f"SELECT {column} FROM {table} WHERE"
            f" {'pe_id' if table == 'pes' else 'workflow_id'} = ?",
            (record_id,),
        ).fetchone()[0]
        for table, record_id, column in ROWS
    }


@pytest.mark.parametrize("version", [16, 15])
def test_every_vector_steps_bit_for_bit(monkeypatch, tmp_path, version):
    path = tmp_path / "registry.db"
    build(path, version)
    dao, statements = open_traced(monkeypatch, path)
    assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 17
    assert _SCHEMA_VERSION == 17
    blobs = stored(dao._conn)
    for cell, (vector, _old) in ROWS.items():
        # bit for bit, and stored as this code stores it: packed, but
        # for the vector that is dense in every schema
        assert decode_vector(blobs[cell]).tobytes() == vector().tobytes()
        assert blobs[cell] == encode_vector(vector()), cell
    assert [cell for cell, blob in blobs.items() if len(blob) % 4 == 0] == [
        ("pes", 3, "code_embedding")
    ]
    # the records read back whole, and the index attaches as brute
    # force ranks
    record = dao.get_pe(1)
    assert record.code_embedding.tobytes() == table_vector().tobytes()
    assert record.desc_embedding.tobytes() == sparse_vector().tobytes()
    index = VectorIndex()
    RegistryService(dao).attach_index(index)
    assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
    # rows were rewritten, so the counter moved, once
    assert dao.mutation_counter() == MUTATIONS + 1

    # the v16 step: no DDL (a v15 file's step before it runs its
    # three), one transaction with its stamp — the reads of each record
    # table's blobs, the rewrite of the three rows whose blobs changed,
    # the counter and the stamp
    assert len(main_ddl(statements)) == (3 if version == 15 else 0)
    step = len(statements) - 1 - statements[::-1].index("BEGIN")
    end = statements.index("COMMIT", step)
    body = statements[step + 1:end]
    assert sum(sql.startswith("SELECT") for sql in body) == 2, body
    assert sum(sql.startswith("UPDATE pes") for sql in body) == 2, body
    assert sum(sql.startswith("UPDATE workflows") for sql in body) == 1
    assert sum(sql.startswith("UPDATE shard_stamps") for sql in body) == 1
    assert body[-1] == "PRAGMA user_version = 17"
    dao.close()

    # the step is taken once: a reopen rewrites nothing
    before = digest(path)
    SqliteDAO(path).close()
    assert digest(path) == before


def test_a_step_that_fails_leaves_the_v16_file_as_it_was(tmp_path):
    """One transaction: a rewrite that fails rolls back the ones
    before it, and the file stays at v16."""
    path = tmp_path / "registry.db"
    build(
        path, 16,
        trigger="CREATE TRIGGER no_workflow_rewrite BEFORE UPDATE ON"
        " workflows BEGIN SELECT RAISE(ABORT, 'refused'); END",
    )
    before = digest(path)
    with pytest.raises(sqlite3.IntegrityError, match="refused"):
        SqliteDAO(path)
    assert digest(path) == before
    conn = sqlite3.connect(path)
    try:
        assert conn.execute("PRAGMA user_version").fetchone() == (16,)
        assert stored(conn) == {cell: old for cell, (_v, old) in ROWS.items()}
    finally:
        conn.close()


def test_a_blob_that_does_not_decode_is_left_as_it_was(tmp_path):
    """A torn value table steps as it is, and still fails its reads;
    the rows beside it step."""
    path = tmp_path / "registry.db"
    build(path, 16)
    torn = bytearray.fromhex(TABLE_HEX)
    torn[9] ^= 0x10
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE pes SET code_embedding = ? WHERE pe_id = 1", (bytes(torn),)
    )
    conn.commit()
    conn.close()

    dao = SqliteDAO(path)
    try:
        blobs = stored(dao._conn)
        assert blobs.pop(("pes", 1, "code_embedding")) == bytes(torn)
        for cell, blob in blobs.items():
            assert blob == encode_vector(ROWS[cell][0]()), cell
        with pytest.raises(ValueError, match="checksum"):
            dao.get_pe(1)
        assert dao.get_pe(2).code_embedding.tobytes() == (
            table_vector().tobytes()
        )
    finally:
        dao.close()

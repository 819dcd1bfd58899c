"""Data Access Object layer (paper §3.2.3).

CRUD against the data store.  One store, :class:`SqliteDAO`: the
durable stand-in for the paper's remote MySQL web service, with
embeddings stored as vector BLOBs (:mod:`repro.registry.veccodec`).
Ephemeral stacks — tests, ``LaminarServer()`` without a ``dao``,
``repro stats`` without ``--db`` — open it on ``":memory:"`` (the
default path), so every in-process stack runs the same schema, SQL and
FTS5 ranking as a file on disk.

The DAO layer knows nothing about ownership/dedup rules — that is the
service layer's job — it only persists and retrieves records.  It does,
however, own the *access paths* that make ownership filtering cheap:

* ``pes_owned_by`` / ``workflows_owned_by`` — owner-scoped listings
  whose cost is O(user's records), not O(total registry);
* ``pe_ids_owned_by`` / ``workflow_ids_owned_by`` — id-only projections
  that never materialize rows or unblob embeddings, used by the search
  serving path for shard-membership checks;
* ``get_pes`` / ``get_workflows`` — id-batched fetch for top-k result
  hydration;
* ``insert_pes`` / ``insert_workflows`` — batched bulk load.

Ownership lives in normalized ``pe_owners`` / ``workflow_owners`` join
tables (indexed by ``user_id``) and the PE<->workflow association in a
``workflow_pes`` link table, all migrated automatically from the legacy
JSON columns the first time an old file is opened (tracked by ``PRAGMA
user_version``).  The JSON ``owners`` / ``pe_ids`` columns remain the
storage format *on the record itself* so old readers keep working; the
join tables are derived data kept in sync on every write.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import NotFoundError
from repro.registry.entities import PERecord, UserRecord, WorkflowRecord
from repro.registry.veccodec import decode_many, decode_vector, encode_vector

#: status stored while a write's idempotency key is *claimed* but its
#: outcome not yet recorded — the cross-process serialization marker.
#: Losers of a claim race poll until the status leaves this sentinel.
RECEIPT_PENDING = -1


def _text_documents():
    """Deferred import of the normalized text-document builders.

    ``repro.search``'s package ``__init__`` imports
    ``repro.registry.entities``, so a module-level import here would be
    circular whenever ``repro.search`` happens to load first.
    """
    from repro.search import text_search

    return text_search


#: score bonus when the stripped lowercase query occurs as a substring
#: of the normalized name — the indexed analogue of the reference
#: scorer's dominant whole-query arm (``text_search._match_score``)
_NAME_SUBSTRING_BONUS = 2.0


#: shard kinds, duplicated from repro.search.index (importing it here
#: would be circular — the index imports nothing from the DAO, but the
#: search package's __init__ pulls in modules that need DAO types)
_KIND_DESC = "desc"
_KIND_CODE = "code"
_KIND_WORKFLOW = "wf-desc"

#: where each shard kind's vectors live: (table, id column, embedding
#: column) — the column is also the record attribute's name
_KIND_SOURCE = {
    _KIND_DESC: ("pes", "pe_id", "desc_embedding"),
    _KIND_CODE: ("pes", "pe_id", "code_embedding"),
    _KIND_WORKFLOW: ("workflows", "workflow_id", "desc_embedding"),
}

#: each record table's owner join table (indexed by user, then id)
_OWNER_TABLE = {"pes": "pe_owners", "workflows": "workflow_owners"}

#: delta-journal ops
_OP_ADD = "add"
_OP_REMOVE = "remove"


def _embed_bytes(vec) -> bytes | None:
    """Canonical float32 bytes of an embedding (``None`` stays None) —
    the byte-change test that decides whether a mutation stamps a
    shard."""
    if vec is None:
        return None
    return np.asarray(vec, dtype=np.float32).tobytes()


def _pe_stamp_keys(
    old_owners: set[int],
    new_owners: set[int],
    old_desc: bytes | None,
    new_desc: bytes | None,
    old_code: bytes | None,
    new_code: bytes | None,
) -> set[tuple[int, str]]:
    """The (user_id, kind) shards whose *content* a PE write changes.

    A shard changes when its owner gains or loses the record
    (membership) or when the embedding bytes themselves change (then
    every owner's shard changes).  Pure metadata updates — description
    text, imports, workflow pe_ids — stamp nothing, so they never stale
    a persisted slab.
    """
    keys: set[tuple[int, str]] = set()
    for kind, old_b, new_b in (
        (_KIND_DESC, old_desc, new_desc),
        (_KIND_CODE, old_code, new_code),
    ):
        if old_b != new_b:
            for user_id in old_owners | new_owners:
                keys.add((user_id, kind))
        elif new_b is not None:
            for user_id in old_owners ^ new_owners:
                keys.add((user_id, kind))
    return keys


def _wf_stamp_keys(
    old_owners: set[int],
    new_owners: set[int],
    old_desc: bytes | None,
    new_desc: bytes | None,
) -> set[tuple[int, str]]:
    """Workflow analogue of :func:`_pe_stamp_keys` (one kind)."""
    keys: set[tuple[int, str]] = set()
    if old_desc != new_desc:
        for user_id in old_owners | new_owners:
            keys.add((user_id, _KIND_WORKFLOW))
    elif new_desc is not None:
        for user_id in old_owners ^ new_owners:
            keys.add((user_id, _KIND_WORKFLOW))
    return keys


#: what one mutation does to the shards it stamps — each one's journal
#: row: ``{(user_id, kind): (op, ids)}``
_Changes = dict[tuple[int, str], tuple[str, list[int]]]


def _shard_changes(
    keys: Iterable[tuple[int, str]],
    record_id: int,
    owners: Iterable[int],
    embedded: Mapping[str, bool],
) -> _Changes:
    """The journal row of every shard a single-record write stamps:
    ``{key: (op, [record_id])}``.

    One rule for stamp and journal: a stamped ``(user, kind)`` gets
    ``add`` when the record is in that shard after the write (the user
    owns it and it carries a vector of that kind — ``embedded``),
    ``remove`` when it is not.
    """
    owners = set(owners)
    return {
        (user_id, kind): (
            _OP_ADD if user_id in owners and embedded[kind] else _OP_REMOVE,
            [int(record_id)],
        )
        for user_id, kind in keys
    }


def _pe_changes(
    pe_id: int,
    old_owners: set[int],
    new_owners: set[int],
    old_desc: bytes | None,
    new_desc: bytes | None,
    old_code: bytes | None,
    new_code: bytes | None,
) -> _Changes:
    """Stamped shards and journal rows of one PE write (a delete passes
    no new owners and no new bytes)."""
    return _shard_changes(
        _pe_stamp_keys(
            old_owners, new_owners, old_desc, new_desc, old_code, new_code
        ),
        pe_id,
        new_owners,
        {_KIND_DESC: new_desc is not None, _KIND_CODE: new_code is not None},
    )


def _wf_changes(
    workflow_id: int,
    old_owners: set[int],
    new_owners: set[int],
    old_desc: bytes | None,
    new_desc: bytes | None,
) -> _Changes:
    """Workflow analogue of :func:`_pe_changes` (one kind)."""
    return _shard_changes(
        _wf_stamp_keys(old_owners, new_owners, old_desc, new_desc),
        workflow_id,
        new_owners,
        {_KIND_WORKFLOW: new_desc is not None},
    )


def _merge_changes(total: _Changes, changes: _Changes) -> None:
    """Fold one inserted record's changes into its batch's: a bulk
    insert is one mutation, so each shard gets one ``add`` row carrying
    every id the batch put in it."""
    for key, (op, ids) in changes.items():
        total.setdefault(key, (op, []))[1].extend(ids)


def _pick_rows(scan_ids: np.ndarray, column: Sequence, ids: np.ndarray) -> list:
    """``column``'s entries for ``ids``, where ``column`` runs beside
    the ascending ``scan_ids`` of one user's owned records.  An id the
    scan does not hold, or holds without a vector, means a shard names
    something the record table cannot back — a torn shard,
    ``ValueError``."""
    at = np.searchsorted(scan_ids, ids)
    at[at == scan_ids.shape[0]] = 0
    if ids.shape[0] and (
        not scan_ids.shape[0] or not np.array_equal(scan_ids[at], ids)
    ):
        raise ValueError("shard id without a record row")
    picked = [column[row] for row in at.tolist()]
    if any(entry is None for entry in picked):
        raise ValueError("shard id without a record vector")
    return picked


def _replay_shard(
    base: tuple[int, np.ndarray] | None,
    deltas: list[tuple[int, str, np.ndarray]],
    fetch,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold a shard's delta chain onto its base slab and fill it in.

    ``base`` is ``(counter, ids)`` or ``None`` and counts as a run of
    ``add``s; ``deltas`` are ids-only ``(counter, op, ids)`` rows in
    journal append order; ``fetch(ids)`` returns the ``(len(ids), dim)``
    float32 matrix of those records' current vectors and is asked once,
    for the ascending ids whose *last* event is an ``add`` — a vector
    lives in its record row, nowhere else.  Returns the replayed
    ``(ids, matrix, tip)`` with ascending int64 ids and a C-contiguous
    float32 matrix — byte-for-byte the layout a live
    :class:`~repro.search.index.VectorIndex` shard holds, so replayed
    slabs score bitwise-identically.

    Raises ``ValueError`` on a torn chain: a delta stamped at or below
    the base (a crash left compaction half-applied), a non-increasing
    chain (two writers raced the journal), an unknown op, or whatever
    ``fetch`` raises for a winning id whose record row cannot supply
    the vector.  ``'remove'`` of an absent id is tolerated — a rebuilt
    base may already reflect a delta appended concurrently with the
    rebuild.
    """
    tip: int | None = None
    # every id event in replay order: the base slab's ids, then each
    # delta's; the last event of an id decides it
    id_parts: list[np.ndarray] = []
    part_is_add: list[bool] = []
    if base is not None:
        tip, ids = base
        id_parts.append(ids)
        part_is_add.append(True)
    for counter, op, rids in deltas:
        if tip is not None and counter <= tip:
            # a delta at or below the base stamp means a crash left
            # compaction half-applied; a non-increasing chain means two
            # writers raced the journal — either way the chain is torn
            raise ValueError("non-increasing delta chain")
        tip = counter
        if op not in (_OP_ADD, _OP_REMOVE):
            raise ValueError(f"unknown delta op {op!r}")
        id_parts.append(rids)
        part_is_add.append(op == _OP_ADD)
    if tip is None:
        raise ValueError("empty shard chain")
    event_ids = np.concatenate(id_parts).astype(np.int64, copy=False)
    is_add = np.repeat(
        np.asarray(part_is_add), [part.shape[0] for part in id_parts]
    )
    # stable sort: equal ids stay in replay order, so each run's last
    # element is that id's deciding event
    order = np.argsort(event_ids, kind="stable")
    ordered = event_ids[order]
    run_end = np.ones(ordered.shape[0], dtype=bool)
    run_end[:-1] = ordered[1:] != ordered[:-1]
    winners = order[run_end]
    ids_out = event_ids[winners[is_add[winners]]]
    if not ids_out.shape[0]:
        return ids_out, np.empty((0, 0), dtype=np.float32), int(tip)
    return ids_out, fetch(ids_out), int(tip)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS users (
    user_id INTEGER PRIMARY KEY AUTOINCREMENT,
    user_name TEXT UNIQUE NOT NULL,
    password_hash TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS pes (
    pe_id INTEGER PRIMARY KEY AUTOINCREMENT,
    pe_name TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    description_origin TEXT NOT NULL DEFAULT 'user',
    pe_code TEXT NOT NULL,
    pe_source TEXT NOT NULL DEFAULT '',
    pe_imports TEXT NOT NULL DEFAULT '[]',
    code_embedding BLOB,
    desc_embedding BLOB,
    owners TEXT NOT NULL DEFAULT '[]',
    revision INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE IF NOT EXISTS workflows (
    workflow_id INTEGER PRIMARY KEY AUTOINCREMENT,
    workflow_name TEXT NOT NULL,
    entry_point TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    workflow_code TEXT NOT NULL,
    workflow_source TEXT NOT NULL DEFAULT '',
    pe_ids TEXT NOT NULL DEFAULT '[]',
    desc_embedding BLOB,
    owners TEXT NOT NULL DEFAULT '[]',
    revision INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_pes_name ON pes(pe_name);
CREATE INDEX IF NOT EXISTS idx_wf_entry ON workflows(entry_point);
-- normalized ownership + association (schema v1): ownership filtering
-- happens in SQL against these, the JSON columns stay as the on-record
-- storage format for backward compatibility
CREATE TABLE IF NOT EXISTS pe_owners (
    pe_id INTEGER NOT NULL,
    user_id INTEGER NOT NULL,
    PRIMARY KEY (pe_id, user_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_pe_owners_user ON pe_owners(user_id, pe_id);
CREATE TABLE IF NOT EXISTS workflow_owners (
    workflow_id INTEGER NOT NULL,
    user_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, user_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_workflow_owners_user
    ON workflow_owners(user_id, workflow_id);
CREATE TABLE IF NOT EXISTS workflow_pes (
    workflow_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, pe_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_workflow_pes_pe ON workflow_pes(pe_id, workflow_id);
-- schema v2: registry metadata (the PE/workflow mutation counter) and
-- persisted index slabs so a warm cold start skips the O(corpus)
-- rebuild; schema v9: a slab is its shard's membership (ids) at its
-- stamp, the vectors are read from the record rows
CREATE TABLE IF NOT EXISTS registry_meta (
    key TEXT PRIMARY KEY,
    value INTEGER NOT NULL
) WITHOUT ROWID;
INSERT OR IGNORE INTO registry_meta (key, value) VALUES ('mutation_counter', 0);
CREATE TABLE IF NOT EXISTS index_shards (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL,
    PRIMARY KEY (user_id, kind)
);
-- schema v3: idempotency receipts for the v1 write surface (replaying
-- a stored (user, key) returns the recorded response verbatim; a
-- fingerprint mismatch is a 409)
-- schema v4 adds created_at: receipts are claimed (INSERT OR IGNORE of
-- a pending row — the cross-process write-serialization point); the
-- stamp is written but nothing prunes by it (receipts are unbounded)
CREATE TABLE IF NOT EXISTS write_receipts (
    user_id INTEGER NOT NULL,
    idem_key TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    status INTEGER NOT NULL,
    body TEXT NOT NULL,
    created_at REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (user_id, idem_key)
) WITHOUT ROWID;
-- schema v5: indexed text ranking.  pe_text /
-- wf_text hold the normalized match documents (name_norm doubles as
-- the whole-query substring arm and the FTS name document); the
-- external-content FTS5 tables index them, kept in sync by triggers
-- that fire inside the same DAO mutation transactions.  unicode61
-- with remove_diacritics 0 so documents match the Python-lowercased
-- text byte-for-byte (queries are pure-ASCII scorer words).
CREATE TABLE IF NOT EXISTS pe_text (
    pe_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS wf_text (
    workflow_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE VIRTUAL TABLE IF NOT EXISTS pe_fts USING fts5(
    name_norm, desc_doc,
    content='pe_text', content_rowid='pe_id',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE VIRTUAL TABLE IF NOT EXISTS wf_fts USING fts5(
    name_norm, desc_doc,
    content='wf_text', content_rowid='workflow_id',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE TRIGGER IF NOT EXISTS pe_text_ai AFTER INSERT ON pe_text BEGIN
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER IF NOT EXISTS pe_text_ad AFTER DELETE ON pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
END;
CREATE TRIGGER IF NOT EXISTS pe_text_au AFTER UPDATE ON pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER IF NOT EXISTS wf_text_ai AFTER INSERT ON wf_text BEGIN
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
CREATE TRIGGER IF NOT EXISTS wf_text_ad AFTER DELETE ON wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
END;
CREATE TRIGGER IF NOT EXISTS wf_text_au AFTER UPDATE ON wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
-- schema v6: per-shard freshness stamps + the append-only delta journal
-- schema v8: the journal is an ids-only changelog (no vectors, no
-- secondary index: every reader scans it whole in delta_id order) and
-- each stamp row carries its shard's chain tip beside it, so the one
-- row a mutation rewrites anyway also says whether to journal (tip =
-- stamp: covered; NULL or lower: stale until a base upsert)
CREATE TABLE IF NOT EXISTS shard_stamps (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    tip INTEGER,
    PRIMARY KEY (user_id, kind)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS index_deltas (
    delta_id INTEGER PRIMARY KEY,
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    op TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL
);
"""

#: v1 introduced the normalized join tables (files at version 0 are
#: backfilled from the JSON columns on open); v2 added the mutation
#: counter and the persisted index-shard slabs; v3 added per-record
#: revisions (conditional writes), idempotency receipts and a table of
#: persisted IVF training state; v4 added ``write_receipts.created_at``
#: for receipt claiming (it also fed a TTL/cap receipt pruning that has
#: since been deleted; the column stays); v5 added the
#: FTS5 text side tables (one-time backfill from the record tables)
#: and a table of persisted HNSW graphs; v6 added per-shard freshness
#: stamps (``shard_stamps``, maintained inside every mutation
#: transaction) and the append-only ``index_deltas`` journal, with
#: ``index_shards`` rows now stamped independently per shard; v7
#: changed no table — it marks that vector blobs (record rows, journal
#: rows, base slabs) may be in :mod:`~repro.registry.veccodec`'s sparse
#: layout.  Dense blobs written by v6 and older decode through the same
#: codec (no rewrite on open: a row re-encodes when next written, a slab
#: at its next fold), but code older than v7 cannot read a v7 file; v8
#: made ``index_deltas`` an ids-only changelog written inside each
#: mutation's own transaction (``vectors``/``dim`` and the secondary
#: index dropped; replay reads the vectors from the record rows) and
#: added ``shard_stamps.tip`` — older code cannot write a v8 journal.
#: Files created since v8 use 1 KB pages; a migrated file keeps its own;
#: v9 dropped ``index_shards.vectors``/``dim``: a base slab is ids only,
#: as the journal has been since v8, so a vector is stored in one place,
#: its record row — older code cannot read a v9 slab; v10 dropped the
#: IVF and HNSW state tables of the approximate engines, since deleted
#: (the exact index is the only ranking engine).
_SCHEMA_VERSION = 10

#: SQLite caps host parameters per statement (999 before 3.32); chunk
#: IN(...) lists well below that
_IN_CHUNK = 500


def _blob(vec: np.ndarray | None) -> bytes | None:
    return None if vec is None else encode_vector(vec)


def _unblob(raw: bytes | None) -> np.ndarray | None:
    """One record's vector; a corrupt blob raises ``ValueError``."""
    return None if raw is None else decode_vector(raw)


def _chunked(ids: Sequence[int]) -> Iterable[Sequence[int]]:
    for start in range(0, len(ids), _IN_CHUNK):
        yield ids[start : start + _IN_CHUNK]


class SqliteDAO:
    """The registry store (the durable stand-in for the web MySQL
    service); thread-safe, one connection behind one lock.  ``path``
    defaults to ``":memory:"`` — an ephemeral registry with the same
    schema and behaviour as a file.

    Ownership and the PE<->workflow association are normalized into
    ``pe_owners`` / ``workflow_owners`` / ``workflow_pes`` (indexed join
    tables) so owner-scoped queries filter in SQL instead of
    deserializing the whole registry.  Files created before schema v1
    are migrated automatically on open (one backfill pass over the JSON
    columns, tracked by ``PRAGMA user_version``).
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        with self._lock, self._conn:
            # a WAL commit logs whole pages and the rows this registry
            # commits are tens of bytes (stamps, owners, counter,
            # journal) to ~2.5 KB (a record): 1 KB pages log a quarter
            # of what 4 KB ones do for the same touch.  Takes effect on
            # a file without pages only; an existing file keeps its own
            self._conn.execute("PRAGMA page_size=1024")
            # WAL lets readers proceed during writes; NORMAL fsyncs once
            # per checkpoint instead of per transaction (both no-ops for
            # :memory: databases)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._migrate()

    def _migrate(self) -> None:
        """Step the on-disk schema up to ``_SCHEMA_VERSION`` once.

        v0 -> v1 backfills the join tables from the legacy JSON columns;
        v1 -> v2 only needs the new tables (created by the schema
        script) with the mutation counter seeded at 0 — the empty
        ``index_shards`` table simply means the first attach rebuilds
        and persists; v2 -> v3 adds the ``revision`` columns (existing
        rows start at revision 1) plus the ``write_receipts`` table
        from the schema script; v3 -> v4 adds the
        ``created_at`` receipt column (existing receipts stamp 0, the
        epoch, for rows of unknown age); v4 -> v5 backfills the FTS5
        text side tables from the record tables (afterwards the
        mutation-path triggers keep them in sync); v5 -> v6 seeds the
        per-shard ``shard_stamps`` from a pre-v6 snapshot *only* when
        that snapshot's uniform counter equals the current mutation
        counter — a stale pre-v6 snapshot must not be stamped fresh, so
        it is left unstamped and the first attach pays one full rebuild
        (which then seeds every stamp); v6 -> v7 only raises the version
        (see ``_SCHEMA_VERSION``); v7 -> v8 reshapes the journal in
        place (:meth:`_migrate_journal`); v8 -> v9 drops the base slabs'
        vectors (:meth:`_migrate_slabs`); v9 -> v10 only drops the IVF
        and HNSW state tables (those engines are gone).
        """
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version >= _SCHEMA_VERSION:
            # row-count drift means a pre-v5 writer touched the file
            # after the side tables were created (it bumps neither the
            # side tables nor user_version) — re-backfill defensively
            if self._text_index_stale():
                self._backfill_text_index()
            return
        if version < 1:
            for row in self._conn.execute("SELECT pe_id, owners FROM pes"):
                self._conn.executemany(
                    "INSERT OR IGNORE INTO pe_owners (pe_id, user_id)"
                    " VALUES (?, ?)",
                    [
                        (row["pe_id"], int(uid))
                        for uid in json.loads(row["owners"])
                    ],
                )
            for row in self._conn.execute(
                "SELECT workflow_id, owners, pe_ids FROM workflows"
            ):
                self._conn.executemany(
                    "INSERT OR IGNORE INTO workflow_owners (workflow_id,"
                    " user_id) VALUES (?, ?)",
                    [
                        (row["workflow_id"], int(uid))
                        for uid in json.loads(row["owners"])
                    ],
                )
                self._conn.executemany(
                    "INSERT OR IGNORE INTO workflow_pes (workflow_id, pe_id)"
                    " VALUES (?, ?)",
                    [
                        (row["workflow_id"], int(pe_id))
                        for pe_id in json.loads(row["pe_ids"])
                    ],
                )
        # v3 revision columns: files created before v3 lack them (the
        # schema script only shapes *new* tables); a fresh database
        # already carries them, so probe instead of trusting the version
        for table in ("pes", "workflows"):
            columns = {
                row["name"]
                for row in self._conn.execute(f"PRAGMA table_info({table})")
            }
            if "revision" not in columns:
                self._conn.execute(
                    f"ALTER TABLE {table} ADD COLUMN revision INTEGER"
                    " NOT NULL DEFAULT 1"
                )
        # v4 created_at: same probe-don't-trust pattern as the revision
        # columns above
        receipt_columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(write_receipts)")
        }
        if "created_at" not in receipt_columns:
            self._conn.execute(
                "ALTER TABLE write_receipts ADD COLUMN created_at REAL"
                " NOT NULL DEFAULT 0"
            )
        # v5 text side tables: one-time backfill from the record tables
        if version < 5 or self._text_index_stale():
            self._backfill_text_index()
        # v6 per-shard stamps: trust a pre-v6 snapshot only when it is
        # provably current (uniform stamp == the live mutation counter);
        # anything else stays unstamped and rebuilds once on attach
        if not self._conn.execute(
            "SELECT 1 FROM shard_stamps LIMIT 1"
        ).fetchone():
            counters = [
                int(row["mutation_counter"])
                for row in self._conn.execute(
                    "SELECT DISTINCT mutation_counter FROM index_shards"
                )
            ]
            current = self._conn.execute(
                "SELECT value FROM registry_meta WHERE key ="
                " 'mutation_counter'"
            ).fetchone()
            if (
                current is not None
                and len(counters) == 1
                and counters[0] == int(current[0])
            ):
                self._conn.execute(
                    "INSERT OR REPLACE INTO shard_stamps"
                    " (user_id, kind, mutation_counter)"
                    " SELECT user_id, kind, mutation_counter"
                    " FROM index_shards"
                )
        if version < 9:
            self._migrate_journal()
            self._migrate_slabs()
        # v10: drop the deleted approximate engines' state tables
        for engine in ("ivf", "hnsw"):
            self._conn.execute(f"DROP TABLE IF EXISTS {engine}_states")
        self._conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")

    def _migrate_journal(self) -> None:
        """v8, in one transaction: the journal keeps its membership and
        loses its vectors, every stamp learns its chain tip.

        Base slabs and chains are unchanged — replay reads a journaled
        ``add``'s vector from the record row for old and new journal
        rows alike, so there is no second decoder.  A shard whose chain
        tip is below its stamp (a crash between mutation and append, a
        ``persist=False`` era) is seeded stale and stays stale until
        rebuilt; a shard that holds records but was never stamped (a
        pre-v6 file nobody attached) gets a stale stamp too, so that
        from here on "no stamp row" can only mean "no content" — the
        one case in which a first journal row is a complete chain.
        """
        if not self._conn.in_transaction:
            self._conn.execute("BEGIN")
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(index_deltas)")
        }
        if "vectors" in columns:
            self._conn.execute("DROP INDEX IF EXISTS idx_index_deltas_shard")
            self._conn.execute(
                "ALTER TABLE index_deltas RENAME TO index_deltas_v7"
            )
            self._conn.execute(
                "CREATE TABLE index_deltas (delta_id INTEGER PRIMARY KEY,"
                " user_id INTEGER NOT NULL, kind TEXT NOT NULL,"
                " op TEXT NOT NULL, mutation_counter INTEGER NOT NULL,"
                " rows INTEGER NOT NULL, ids BLOB NOT NULL)"
            )
            self._conn.execute(
                "INSERT INTO index_deltas SELECT delta_id, user_id, kind,"
                " op, mutation_counter, rows, ids FROM index_deltas_v7"
            )
            self._conn.execute("DROP TABLE index_deltas_v7")
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(shard_stamps)")
        }
        if "tip" not in columns:
            self._conn.execute("ALTER TABLE shard_stamps ADD COLUMN tip INTEGER")
        self._conn.executemany(
            "UPDATE shard_stamps SET tip=? WHERE user_id=? AND kind=?",
            [
                (chain["tip"], user_id, kind)
                for (user_id, kind), chain in self.shard_chain_meta().items()
            ],
        )
        counter = self.mutation_counter()
        for kind, (table, id_col, blob_col) in _KIND_SOURCE.items():
            owners = _OWNER_TABLE[table]
            self._conn.execute(
                f"INSERT OR IGNORE INTO shard_stamps"
                f" (user_id, kind, mutation_counter, tip)"
                f" SELECT DISTINCT o.user_id, ?, ?, NULL FROM {owners} o"
                f" JOIN {table} r ON r.{id_col} = o.{id_col}"
                f" WHERE r.{blob_col} IS NOT NULL",
                (kind, counter),
            )

    def _migrate_slabs(self) -> None:
        """v9: a base slab keeps its membership and loses its vectors —
        nothing is decoded, replay fills old and new slabs alike from
        the record rows.  The file does not shrink until its freed pages
        are reused."""
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(index_shards)")
        }
        for column in ("vectors", "dim"):
            if column in columns:
                self._conn.execute(
                    f"ALTER TABLE index_shards DROP COLUMN {column}"
                )

    def _text_index_stale(self) -> bool:
        """Best-effort drift check: side-table row counts must match the
        record tables (content drift at equal counts is undetectable
        without hashing every document — accepted, since only a pre-v5
        writer can cause drift at all)."""
        for table, side in (("pes", "pe_text"), ("workflows", "wf_text")):
            rows = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            docs = self._conn.execute(f"SELECT COUNT(*) FROM {side}").fetchone()[0]
            if rows != docs:
                return True
        return False

    def _backfill_text_index(self) -> None:
        """(Re)build the text side tables and the FTS index from the
        record tables.

        The DELETEs fire the FTS delete triggers for whatever documents
        the side tables currently hold; the trailing ``'rebuild'``
        commands then reset the FTS indexes from the content tables
        regardless, which also covers index/content divergence the
        row-count check cannot see.
        """
        docs = _text_documents()
        self._conn.execute("DELETE FROM pe_text")
        self._conn.execute("DELETE FROM wf_text")
        pe_rows = self._conn.execute(
            "SELECT pe_id, pe_name, description FROM pes"
        ).fetchall()
        self._conn.executemany(
            "INSERT INTO pe_text (pe_id, name_norm, desc_doc) VALUES (?, ?, ?)",
            [
                (row["pe_id"], *docs.fts_pe_document(row["pe_name"], row["description"]))
                for row in pe_rows
            ],
        )
        wf_rows = self._conn.execute(
            "SELECT workflow_id, entry_point, workflow_name, description"
            " FROM workflows"
        ).fetchall()
        self._conn.executemany(
            "INSERT INTO wf_text (workflow_id, name_norm, desc_doc)"
            " VALUES (?, ?, ?)",
            [
                (
                    row["workflow_id"],
                    *docs.fts_workflow_document(
                        row["entry_point"],
                        row["workflow_name"],
                        row["description"],
                    ),
                )
                for row in wf_rows
            ],
        )
        self._conn.execute("INSERT INTO pe_fts(pe_fts) VALUES('rebuild')")
        self._conn.execute("INSERT INTO wf_fts(wf_fts) VALUES('rebuild')")

    def close(self) -> None:
        self._conn.close()

    def _bump_mutation(self) -> int:
        """Advance the registry mutation counter (inside the caller's
        transaction) and return the bumped value — the stamp the
        caller's :meth:`_stamp_shards` marks changed shards with."""
        self._conn.execute(
            "UPDATE registry_meta SET value = value + 1"
            " WHERE key = 'mutation_counter'"
        )
        return int(
            self._conn.execute(
                "SELECT value FROM registry_meta WHERE key ="
                " 'mutation_counter'"
            ).fetchone()[0]
        )

    def _stamp_shards(self, changes: _Changes, counter: int) -> None:
        """Stamp the shards a mutation changed and journal each one that
        was covered, inside the caller's transaction — the rule of
        :meth:`shard_stamps`.  Stamp and journal row land in
        one commit, so *stamp == journal tip* cannot be torn, and a
        stale shard (a raw-SQL writer raised its stamp, an old file
        crashed between mutation and append) never gets a row on top of
        the gap: it keeps its tip and waits for a rebuild."""
        for (user_id, kind), (op, ids) in sorted(changes.items()):
            row = self._conn.execute(
                "SELECT mutation_counter, tip FROM shard_stamps"
                " WHERE user_id=? AND kind=?",
                (user_id, kind),
            ).fetchone()
            tip = None if row is None else row["tip"]
            if row is None or row["mutation_counter"] == tip:
                self.append_index_delta(user_id, kind, op, ids, counter)
                tip = counter
            self._conn.execute(
                "INSERT OR REPLACE INTO shard_stamps"
                " (user_id, kind, mutation_counter, tip) VALUES (?, ?, ?, ?)",
                (user_id, kind, counter, tip),
            )

    def append_index_delta(
        self, user_id: int, kind: str, op: str, ids: list[int], counter: int
    ) -> None:
        """The single journal-row writer: one ids-only ``'add'`` /
        ``'remove'`` row for one shard at ``counter``.  Only
        :meth:`_stamp_shards` calls it, inside the mutation's
        transaction — it must not open (and so commit) one of its own."""
        self._conn.execute(
            "INSERT INTO index_deltas"
            " (user_id, kind, op, mutation_counter, rows, ids)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                user_id,
                kind,
                op,
                counter,
                len(ids),
                np.asarray(ids, dtype=np.int64).tobytes(),
            ),
        )

    def _pe_old_state(self, pe_id: int) -> sqlite3.Row | None:
        """The committed row of a PE, as far as a mutation needs it: to
        decide which shards it stamps (owners, embeddings) and which
        derived rows an update can leave alone (name, description)."""
        return self._conn.execute(
            "SELECT pe_name, description, owners, desc_embedding,"
            " code_embedding FROM pes WHERE pe_id=?",
            (int(pe_id),),
        ).fetchone()

    def _wf_old_state(self, workflow_id: int) -> sqlite3.Row | None:
        return self._conn.execute(
            "SELECT workflow_name, entry_point, description, pe_ids, owners,"
            " desc_embedding FROM workflows WHERE workflow_id=?",
            (int(workflow_id),),
        ).fetchone()

    def _last_issued_id(self, table: str) -> int:
        """The highest id ``table`` has ever issued: AUTOINCREMENT's
        high-water mark in ``sqlite_sequence``, which every insert
        (explicit ids included) raises to at least ``MAX(id)`` and no
        delete lowers.  A bulk insert numbers its rows past it, as a
        single insert's AUTOINCREMENT does, so it never reuses a deleted
        record's id (and with it that record's revision-derived ETag)."""
        return int(
            self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM sqlite_sequence"
                " WHERE name = ?",
                (table,),
            ).fetchone()[0]
        )

    @staticmethod
    def _old_owners(row: sqlite3.Row) -> set[int]:
        return {int(uid) for uid in json.loads(row["owners"])}

    @staticmethod
    def _old_embed(row: sqlite3.Row, column: str) -> bytes | None:
        """Canonical dense bytes (:func:`_embed_bytes`) of a stored
        vector, not its stored encoding: a legacy dense row and its
        sparse re-encoding are the same vector."""
        return _embed_bytes(_unblob(row[column]))

    # -- join-table sync ---------------------------------------------------
    def _sync_pe_owners(self, pe_id: int, owners: Iterable[int]) -> None:
        self._conn.execute("DELETE FROM pe_owners WHERE pe_id=?", (pe_id,))
        self._conn.executemany(
            "INSERT OR IGNORE INTO pe_owners (pe_id, user_id) VALUES (?, ?)",
            [(pe_id, int(uid)) for uid in owners],
        )

    def _sync_wf_owners(self, workflow_id: int, owners: Iterable[int]) -> None:
        self._conn.execute(
            "DELETE FROM workflow_owners WHERE workflow_id=?", (workflow_id,)
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO workflow_owners (workflow_id, user_id)"
            " VALUES (?, ?)",
            [(workflow_id, int(uid)) for uid in owners],
        )

    def _sync_wf_links(self, workflow_id: int, pe_ids: Iterable[int]) -> None:
        self._conn.execute(
            "DELETE FROM workflow_pes WHERE workflow_id=?", (workflow_id,)
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO workflow_pes (workflow_id, pe_id)"
            " VALUES (?, ?)",
            [(workflow_id, int(pe_id)) for pe_id in pe_ids],
        )

    # -- text side tables (FTS5 content) -----------------------------------
    # explicit DELETE + INSERT rather than INSERT OR REPLACE: REPLACE's
    # implicit delete skips the FTS delete trigger unless
    # recursive_triggers is on, which would corrupt the external-content
    # index
    @staticmethod
    def _pe_text(record: PERecord) -> tuple[str, str]:
        return _text_documents().fts_pe_document(
            record.pe_name, record.description
        )

    def _sync_pe_text(self, pe_id: int, text: tuple[str, str]) -> None:
        self._conn.execute("DELETE FROM pe_text WHERE pe_id=?", (pe_id,))
        self._conn.execute(
            "INSERT INTO pe_text (pe_id, name_norm, desc_doc) VALUES (?, ?, ?)",
            (pe_id, *text),
        )

    def _sync_wf_text(self, record: WorkflowRecord) -> None:
        name_norm, desc_doc = _text_documents().fts_workflow_document(
            record.entry_point, record.workflow_name, record.description
        )
        self._conn.execute(
            "DELETE FROM wf_text WHERE workflow_id=?", (record.workflow_id,)
        )
        self._conn.execute(
            "INSERT INTO wf_text (workflow_id, name_norm, desc_doc)"
            " VALUES (?, ?, ?)",
            (record.workflow_id, name_norm, desc_doc),
        )

    # -- users ------------------------------------------------------------
    def insert_user(self, name: str, password_hash: str) -> UserRecord:
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO users (user_name, password_hash) VALUES (?, ?)",
                (name, password_hash),
            )
            return UserRecord(int(cursor.lastrowid), name, password_hash)

    def get_user_by_name(self, name: str) -> UserRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM users WHERE user_name = ?", (name,)
            ).fetchone()
        if row is None:
            return None
        return UserRecord(row["user_id"], row["user_name"], row["password_hash"])

    def all_users(self) -> list[UserRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM users ORDER BY user_id"
            ).fetchall()
        return [
            UserRecord(r["user_id"], r["user_name"], r["password_hash"])
            for r in rows
        ]

    # -- PEs ---------------------------------------------------------------
    @staticmethod
    def _pe_from_row(row: sqlite3.Row) -> PERecord:
        return PERecord(
            pe_id=row["pe_id"],
            pe_name=row["pe_name"],
            description=row["description"],
            description_origin=row["description_origin"],
            pe_code=row["pe_code"],
            pe_source=row["pe_source"],
            pe_imports=json.loads(row["pe_imports"]),
            code_embedding=_unblob(row["code_embedding"]),
            desc_embedding=_unblob(row["desc_embedding"]),
            owners=set(json.loads(row["owners"])),
            revision=int(row["revision"]),
        )

    @staticmethod
    def _pe_params(record: PERecord) -> tuple:
        return (
            record.pe_name,
            record.description,
            record.description_origin,
            record.pe_code,
            record.pe_source,
            json.dumps(record.pe_imports),
            _blob(record.code_embedding),
            _blob(record.desc_embedding),
            json.dumps(sorted(record.owners)),
        )

    # The PE writes encode their row (two vector blobs, two JSON
    # columns) and its FTS document before taking the lock: neither
    # needs the id, and inside the lock they would run under an open
    # write transaction that every other DAO call waits behind.
    def insert_pe(self, record: PERecord) -> PERecord:
        params, text = self._pe_params(record), self._pe_text(record)
        with self._lock, self._conn:
            counter = self._bump_mutation()
            record.revision = 1
            cursor = self._conn.execute(
                """INSERT INTO pes (pe_name, description, description_origin,
                   pe_code, pe_source, pe_imports, code_embedding,
                   desc_embedding, owners, revision)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 1)""",
                params,
            )
            record.pe_id = int(cursor.lastrowid)
            self._stamp_shards(
                _pe_changes(
                    record.pe_id, set(), set(record.owners),
                    None, _embed_bytes(record.desc_embedding),
                    None, _embed_bytes(record.code_embedding),
                ),
                counter,
            )
            self._sync_pe_owners(record.pe_id, record.owners)
            self._sync_pe_text(record.pe_id, text)
            return record

    def insert_pes(self, records: Sequence[PERecord]) -> list[PERecord]:
        """Bulk load: two ``executemany`` round trips for any batch size."""
        if not records:
            return []
        params = [self._pe_params(r) for r in records]
        texts = [self._pe_text(r) for r in records]
        with self._lock, self._conn:
            counter = self._bump_mutation()
            base = self._last_issued_id("pes")
            changes: _Changes = {}
            for offset, record in enumerate(records, start=1):
                record.pe_id = base + offset
                record.revision = 1
                _merge_changes(
                    changes,
                    _pe_changes(
                        record.pe_id, set(), set(record.owners),
                        None, _embed_bytes(record.desc_embedding),
                        None, _embed_bytes(record.code_embedding),
                    ),
                )
            self._stamp_shards(changes, counter)
            self._conn.executemany(
                """INSERT INTO pes (pe_id, pe_name, description,
                   description_origin, pe_code, pe_source, pe_imports,
                   code_embedding, desc_embedding, owners, revision)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 1)""",
                [(r.pe_id, *p) for r, p in zip(records, params)],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO pe_owners (pe_id, user_id) VALUES (?, ?)",
                [
                    (r.pe_id, int(uid))
                    for r in records
                    for uid in r.owners
                ],
            )
            self._conn.executemany(
                "INSERT INTO pe_text (pe_id, name_norm, desc_doc)"
                " VALUES (?, ?, ?)",
                [(r.pe_id, *t) for r, t in zip(records, texts)],
            )
            return list(records)

    def update_pe(self, record: PERecord) -> None:
        """Write only what changed: SQLite rewrites the index entry of
        every column named in ``SET``, so an unchanged ``pe_name`` stays
        out of it; the owner join rows and the FTS document (a delete +
        insert in three b-trees) are re-synced only when they differ
        from the committed row — an ownership grant touches no text, a
        revision touches no owners."""
        (name, *rest), text = self._pe_params(record), self._pe_text(record)
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._pe_old_state(record.pe_id)
            if old is None:
                raise NotFoundError(
                    f"PE id {record.pe_id} not found", params={"peId": record.pe_id}
                )
            renamed = old["pe_name"] != record.pe_name
            self._conn.execute(
                f"""UPDATE pes SET {'pe_name=?,' if renamed else ''}
                   description=?, description_origin=?, pe_code=?,
                   pe_source=?, pe_imports=?, code_embedding=?,
                   desc_embedding=?, owners=?, revision=? WHERE pe_id=?""",
                (
                    *([name] if renamed else []),
                    *rest,
                    record.revision + 1,
                    record.pe_id,
                ),
            )
            record.revision += 1
            old_owners = self._old_owners(old)
            self._stamp_shards(
                _pe_changes(
                    record.pe_id, old_owners, set(record.owners),
                    self._old_embed(old, "desc_embedding"),
                    _embed_bytes(record.desc_embedding),
                    self._old_embed(old, "code_embedding"),
                    _embed_bytes(record.code_embedding),
                ),
                counter,
            )
            if old_owners != set(record.owners):
                self._sync_pe_owners(record.pe_id, record.owners)
            if renamed or old["description"] != record.description:
                self._sync_pe_text(record.pe_id, text)

    def get_pe(self, pe_id: int) -> PERecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM pes WHERE pe_id = ?", (pe_id,)
            ).fetchone()
        return None if row is None else self._pe_from_row(row)

    def get_pes(self, pe_ids: Sequence[int]) -> list[PERecord]:
        """Batched fetch, in the order of ``pe_ids``; missing ids skipped."""
        ids = [int(pe_id) for pe_id in pe_ids]
        by_id: dict[int, PERecord] = {}
        with self._lock:
            for chunk in _chunked(ids):
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT * FROM pes WHERE pe_id IN ({placeholders})",
                    tuple(chunk),
                ).fetchall()
                for row in rows:
                    by_id[row["pe_id"]] = self._pe_from_row(row)
        return [by_id[pe_id] for pe_id in ids if pe_id in by_id]

    def find_pe_by_name(self, name: str) -> list[PERecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM pes WHERE pe_name = ? ORDER BY pe_id", (name,)
            ).fetchall()
        return [self._pe_from_row(r) for r in rows]

    def all_pes(self) -> list[PERecord]:
        with self._lock:
            rows = self._conn.execute("SELECT * FROM pes ORDER BY pe_id").fetchall()
        return [self._pe_from_row(r) for r in rows]

    def pes_owned_by(self, user_id: int) -> list[PERecord]:
        """All PEs owned by ``user_id``, ascending id — O(user's records)."""
        with self._lock:
            rows = self._conn.execute(
                """SELECT p.* FROM pes p
                   JOIN pe_owners o ON o.pe_id = p.pe_id
                   WHERE o.user_id = ? ORDER BY p.pe_id""",
                (int(user_id),),
            ).fetchall()
        return [self._pe_from_row(r) for r in rows]

    def pe_ids_owned_by(self, user_id: int) -> list[int]:
        """Ascending owned PE ids; never materializes rows or embeddings."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT pe_id FROM pe_owners WHERE user_id = ? ORDER BY pe_id",
                (int(user_id),),
            ).fetchall()
        return [row["pe_id"] for row in rows]

    @staticmethod
    def _like(pattern: str) -> str:
        """``%pattern%`` with LIKE metacharacters escaped (ESCAPE '\\')."""
        escaped = (
            pattern.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        )
        return f"%{escaped}%"

    # -- indexed text ranking (FTS5/BM25 + substring arm) ------------------
    def _text_topk(
        self,
        user_id: int,
        query: str,
        k: int | None,
        *,
        fts: str,
        side: str,
        owners: str,
        id_col: str,
    ) -> list[tuple[int, float]]:
        """One owner-joined SQL query: BM25 goodness (``-bm25()``) from
        the FTS index plus the whole-query substring bonus on
        ``name_norm``, ranked ``(-score, id)`` and LIMITed to ``k`` —
        no record rows are ever materialized here."""
        needle = query.lower().strip()
        if not needle:
            return []
        terms = _text_documents().match_terms(query)
        params: dict = {"uid": int(user_id), "like": self._like(needle)}
        limit = ""
        if k is not None:
            params["k"] = int(k)
            limit = " LIMIT :k"
        if terms:
            params["match"] = " OR ".join(f'"{term}"' for term in terms)
            sql = f"""
                SELECT {id_col} AS entity_id, score FROM (
                    SELECT o.{id_col} AS {id_col},
                           COALESCE(f.goodness, 0.0)
                           + (CASE WHEN t.name_norm LIKE :like ESCAPE '\\'
                              THEN {_NAME_SUBSTRING_BONUS} ELSE 0.0 END)
                           AS score
                    FROM {owners} o
                    JOIN {side} t ON t.{id_col} = o.{id_col}
                    LEFT JOIN (
                        SELECT rowid AS rid, -bm25({fts}) AS goodness
                        FROM {fts} WHERE {fts} MATCH :match
                    ) f ON f.rid = o.{id_col}
                    WHERE o.user_id = :uid
                )
                WHERE score > 0.0
                ORDER BY score DESC, {id_col} ASC{limit}
            """
        else:
            # no scorer words (digits/punctuation query): substring arm
            # only, every hit carries the flat bonus, ids break the tie
            sql = f"""
                SELECT o.{id_col} AS entity_id,
                       {_NAME_SUBSTRING_BONUS} AS score
                FROM {owners} o
                JOIN {side} t ON t.{id_col} = o.{id_col}
                WHERE o.user_id = :uid
                  AND t.name_norm LIKE :like ESCAPE '\\'
                ORDER BY o.{id_col} ASC{limit}
            """
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [(int(row["entity_id"]), float(row["score"])) for row in rows]

    def text_topk_pes(
        self, user_id: int, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        """Top-k owned ``(pe_id, score)`` pairs by combined text relevance.

        ``score`` is the BM25 goodness (``-bm25()`` over the normalized
        name/description documents) plus :data:`_NAME_SUBSTRING_BONUS`
        when the stripped lowercase query occurs as a substring of the
        normalized name.  Ordered by ``(-score, id)``; empty for blank
        queries; returns ids only so the caller hydrates at most ``k``
        records.
        """
        return self._text_topk(
            user_id,
            query,
            k,
            fts="pe_fts",
            side="pe_text",
            owners="pe_owners",
            id_col="pe_id",
        )

    def text_topk_workflows(
        self, user_id: int, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        """Top-k owned ``(workflow_id, score)`` by combined text relevance.

        Same scoring as :meth:`text_topk_pes` over the workflow
        documents (entry point + workflow name arms, description).
        """
        return self._text_topk(
            user_id,
            query,
            k,
            fts="wf_fts",
            side="wf_text",
            owners="workflow_owners",
            id_col="workflow_id",
        )

    def delete_pe(self, pe_id: int) -> None:
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._pe_old_state(pe_id)
            if old is None:
                raise NotFoundError(f"PE id {pe_id} not found", params={"peId": pe_id})
            self._stamp_shards(
                _pe_changes(
                    pe_id, self._old_owners(old), set(),
                    self._old_embed(old, "desc_embedding"), None,
                    self._old_embed(old, "code_embedding"), None,
                ),
                counter,
            )
            self._conn.execute("DELETE FROM pes WHERE pe_id=?", (pe_id,))
            self._conn.execute("DELETE FROM pe_owners WHERE pe_id=?", (pe_id,))
            self._conn.execute("DELETE FROM pe_text WHERE pe_id=?", (pe_id,))
            # back-reference from the link table: touch only the
            # workflows that actually reference this PE, not all rows
            backrefs = self._conn.execute(
                "SELECT workflow_id FROM workflow_pes WHERE pe_id=?", (pe_id,)
            ).fetchall()
            for backref in backrefs:
                row = self._conn.execute(
                    "SELECT pe_ids FROM workflows WHERE workflow_id=?",
                    (backref["workflow_id"],),
                ).fetchone()
                if row is None:
                    continue
                pe_ids = json.loads(row["pe_ids"])
                if pe_id in pe_ids:
                    pe_ids.remove(pe_id)
                    self._conn.execute(
                        "UPDATE workflows SET pe_ids=? WHERE workflow_id=?",
                        (json.dumps(pe_ids), backref["workflow_id"]),
                    )
            self._conn.execute("DELETE FROM workflow_pes WHERE pe_id=?", (pe_id,))

    # -- workflows -----------------------------------------------------------
    @staticmethod
    def _wf_from_row(row: sqlite3.Row) -> WorkflowRecord:
        return WorkflowRecord(
            workflow_id=row["workflow_id"],
            workflow_name=row["workflow_name"],
            entry_point=row["entry_point"],
            description=row["description"],
            workflow_code=row["workflow_code"],
            workflow_source=row["workflow_source"],
            pe_ids=json.loads(row["pe_ids"]),
            desc_embedding=_unblob(row["desc_embedding"]),
            owners=set(json.loads(row["owners"])),
            revision=int(row["revision"]),
        )

    @staticmethod
    def _wf_params(record: WorkflowRecord) -> tuple:
        return (
            record.workflow_name,
            record.entry_point,
            record.description,
            record.workflow_code,
            record.workflow_source,
            json.dumps(record.pe_ids),
            _blob(record.desc_embedding),
            json.dumps(sorted(record.owners)),
        )

    def insert_workflow(self, record: WorkflowRecord) -> WorkflowRecord:
        with self._lock, self._conn:
            counter = self._bump_mutation()
            record.revision = 1
            cursor = self._conn.execute(
                """INSERT INTO workflows (workflow_name, entry_point,
                   description, workflow_code, workflow_source, pe_ids,
                   desc_embedding, owners, revision)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, 1)""",
                self._wf_params(record),
            )
            record.workflow_id = int(cursor.lastrowid)
            self._stamp_shards(
                _wf_changes(
                    record.workflow_id, set(), set(record.owners),
                    None, _embed_bytes(record.desc_embedding),
                ),
                counter,
            )
            self._sync_wf_owners(record.workflow_id, record.owners)
            self._sync_wf_links(record.workflow_id, record.pe_ids)
            self._sync_wf_text(record)
            return record

    def insert_workflows(
        self, records: Sequence[WorkflowRecord]
    ) -> list[WorkflowRecord]:
        """Bulk load: three ``executemany`` round trips for any batch size."""
        if not records:
            return []
        with self._lock, self._conn:
            counter = self._bump_mutation()
            base = self._last_issued_id("workflows")
            changes: _Changes = {}
            for offset, record in enumerate(records, start=1):
                record.workflow_id = base + offset
                record.revision = 1
                _merge_changes(
                    changes,
                    _wf_changes(
                        record.workflow_id, set(), set(record.owners),
                        None, _embed_bytes(record.desc_embedding),
                    ),
                )
            self._stamp_shards(changes, counter)
            self._conn.executemany(
                """INSERT INTO workflows (workflow_id, workflow_name,
                   entry_point, description, workflow_code, workflow_source,
                   pe_ids, desc_embedding, owners, revision)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 1)""",
                [(r.workflow_id, *self._wf_params(r)) for r in records],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO workflow_owners (workflow_id, user_id)"
                " VALUES (?, ?)",
                [
                    (r.workflow_id, int(uid))
                    for r in records
                    for uid in r.owners
                ],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO workflow_pes (workflow_id, pe_id)"
                " VALUES (?, ?)",
                [
                    (r.workflow_id, int(pe_id))
                    for r in records
                    for pe_id in r.pe_ids
                ],
            )
            docs = _text_documents()
            self._conn.executemany(
                "INSERT INTO wf_text (workflow_id, name_norm, desc_doc)"
                " VALUES (?, ?, ?)",
                [
                    (
                        r.workflow_id,
                        *docs.fts_workflow_document(
                            r.entry_point, r.workflow_name, r.description
                        ),
                    )
                    for r in records
                ],
            )
            return list(records)

    def update_workflow(self, record: WorkflowRecord) -> None:
        """Write only what changed (see :meth:`update_pe`): the indexed
        ``entry_point`` stays out of ``SET`` when unchanged, and the
        owner, link and FTS rows are re-synced only when they differ
        from the committed row."""
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._wf_old_state(record.workflow_id)
            if old is None:
                raise NotFoundError(
                    f"workflow id {record.workflow_id} not found",
                    params={"workflowId": record.workflow_id},
                )
            moved = old["entry_point"] != record.entry_point
            name, entry_point, *rest = self._wf_params(record)
            self._conn.execute(
                f"""UPDATE workflows SET workflow_name=?,
                   {'entry_point=?,' if moved else ''} description=?,
                   workflow_code=?, workflow_source=?, pe_ids=?,
                   desc_embedding=?, owners=?, revision=?
                   WHERE workflow_id=?""",
                (
                    name,
                    *([entry_point] if moved else []),
                    *rest,
                    record.revision + 1,
                    record.workflow_id,
                ),
            )
            record.revision += 1
            old_owners = self._old_owners(old)
            self._stamp_shards(
                _wf_changes(
                    record.workflow_id, old_owners, set(record.owners),
                    self._old_embed(old, "desc_embedding"),
                    _embed_bytes(record.desc_embedding),
                ),
                counter,
            )
            if old_owners != set(record.owners):
                self._sync_wf_owners(record.workflow_id, record.owners)
            if set(json.loads(old["pe_ids"])) != set(record.pe_ids):
                self._sync_wf_links(record.workflow_id, record.pe_ids)
            if (
                moved
                or old["workflow_name"] != record.workflow_name
                or old["description"] != record.description
            ):
                self._sync_wf_text(record)

    def get_workflow(self, workflow_id: int) -> WorkflowRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM workflows WHERE workflow_id = ?", (workflow_id,)
            ).fetchone()
        return None if row is None else self._wf_from_row(row)

    def get_workflows(self, workflow_ids: Sequence[int]) -> list[WorkflowRecord]:
        """Batched fetch, in the order of ``workflow_ids``; missing skipped."""
        ids = [int(workflow_id) for workflow_id in workflow_ids]
        by_id: dict[int, WorkflowRecord] = {}
        with self._lock:
            for chunk in _chunked(ids):
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT * FROM workflows WHERE workflow_id"
                    f" IN ({placeholders})",
                    tuple(chunk),
                ).fetchall()
                for row in rows:
                    by_id[row["workflow_id"]] = self._wf_from_row(row)
        return [by_id[wf_id] for wf_id in ids if wf_id in by_id]

    def find_workflow_by_entry_point(self, entry_point: str) -> list[WorkflowRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM workflows WHERE entry_point = ? ORDER BY workflow_id",
                (entry_point,),
            ).fetchall()
        return [self._wf_from_row(r) for r in rows]

    def all_workflows(self) -> list[WorkflowRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM workflows ORDER BY workflow_id"
            ).fetchall()
        return [self._wf_from_row(r) for r in rows]

    def workflows_owned_by(self, user_id: int) -> list[WorkflowRecord]:
        """All workflows owned by ``user_id``, ascending id."""
        with self._lock:
            rows = self._conn.execute(
                """SELECT w.* FROM workflows w
                   JOIN workflow_owners o ON o.workflow_id = w.workflow_id
                   WHERE o.user_id = ? ORDER BY w.workflow_id""",
                (int(user_id),),
            ).fetchall()
        return [self._wf_from_row(r) for r in rows]

    def workflow_ids_owned_by(self, user_id: int) -> list[int]:
        """Ascending owned workflow ids; never materializes rows."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT workflow_id FROM workflow_owners WHERE user_id = ?"
                " ORDER BY workflow_id",
                (int(user_id),),
            ).fetchall()
        return [row["workflow_id"] for row in rows]

    def delete_workflow(self, workflow_id: int) -> None:
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._wf_old_state(workflow_id)
            if old is None:
                raise NotFoundError(
                    f"workflow id {workflow_id} not found",
                    params={"workflowId": workflow_id},
                )
            self._stamp_shards(
                _wf_changes(
                    workflow_id, self._old_owners(old), set(),
                    self._old_embed(old, "desc_embedding"), None,
                ),
                counter,
            )
            self._conn.execute(
                "DELETE FROM workflows WHERE workflow_id=?", (workflow_id,)
            )
            self._conn.execute(
                "DELETE FROM workflow_owners WHERE workflow_id=?", (workflow_id,)
            )
            self._conn.execute(
                "DELETE FROM workflow_pes WHERE workflow_id=?", (workflow_id,)
            )
            self._conn.execute(
                "DELETE FROM wf_text WHERE workflow_id=?", (workflow_id,)
            )

    # -- index-shard persistence ------------------------------------------
    def mutation_counter(self) -> int:
        """Monotonic counter bumped inside every PE/workflow write
        transaction — the freshness authority for every persisted
        shard."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM registry_meta WHERE key='mutation_counter'"
            ).fetchone()
        return 0 if row is None else int(row["value"])

    @staticmethod
    def _shard_payload_row(user_id, kind, counter, ids):
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        return (
            int(user_id), str(kind), int(counter), int(ids.shape[0]),
            ids.tobytes(),
        )

    def save_index_shards(
        self, shards: Mapping[tuple[int, str], np.ndarray], counter: int
    ) -> None:
        """Replace the slab snapshot wholesale, stamped at ``counter``.

        A slab is the ascending int64 ids of one (user, kind) shard, as
        :meth:`~repro.search.index.VectorIndex.ids` lists them.  Being
        a truth assertion for the *whole* index, it also drops every
        journaled delta and stamps each written shard; a stamped shard
        it was not given loses its chain and so its coverage — the
        caller vouches this is the complete index membership at
        ``counter``.
        """
        payload = [
            self._shard_payload_row(user_id, kind, counter, ids)
            for (user_id, kind), ids in shards.items()
        ]
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM index_shards")
            self._conn.execute("DELETE FROM index_deltas")
            self._conn.execute("UPDATE shard_stamps SET tip = NULL")
            self._conn.executemany(
                """INSERT INTO index_shards
                   (user_id, kind, mutation_counter, rows, ids)
                   VALUES (?, ?, ?, ?, ?)""",
                payload,
            )
            self._raise_stamps(payload, int(counter))

    def _raise_stamps(self, payload: list[tuple], stamp: int) -> None:
        """A base slab was written at ``stamp`` for each payload row:
        raise its shard's stamp and chain tip to at least that (a
        racing writer's higher values survive, and with them the truth
        about whether its journal row does)."""
        self._conn.executemany(
            "INSERT INTO shard_stamps (user_id, kind, mutation_counter, tip)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(user_id, kind) DO UPDATE SET"
            " mutation_counter = MAX(mutation_counter,"
            " excluded.mutation_counter),"
            " tip = MAX(COALESCE(tip, 0), excluded.tip)",
            [(row[0], row[1], stamp, stamp) for row in payload],
        )

    def shard_stamps(self) -> dict[tuple[int, str], int]:
        """Per-``(user_id, kind)`` expected mutation stamps.

        Every registry mutation stamps the shards whose *content* it
        changed (owner gained/lost, embedding bytes changed) with the
        bumped mutation counter and, in the same transaction, appends
        that shard's ids-only journal row — provided the shard was
        *covered* before the write (its stamp equalled its chain tip; a
        shard's first stamp counts, replay from an empty base is then
        complete).  A stale shard is only stamped and stays stale until
        a base upsert rebuilds it, so a journal row never lands on top
        of a gap.  A persisted shard is fresh iff its replayed chain
        tip equals this stamp.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT user_id, kind, mutation_counter FROM shard_stamps"
            ).fetchall()
        return {
            (int(row["user_id"]), str(row["kind"])): int(
                row["mutation_counter"]
            )
            for row in rows
        }

    def upsert_index_shards(
        self, shards: Mapping[tuple[int, str], np.ndarray], stamp: int
    ) -> None:
        """Per-shard base replace + compaction fold at ``stamp``.

        Only the given shards are touched: each gets its base slab (its
        ids) replaced, its deltas with counter ``<= stamp`` dropped
        (folded into the new base), and its expected stamp and chain tip
        raised to at least ``stamp`` (seeding missing stamps, e.g. after
        a full rebuild of a pre-v6 file) — a shard upserted at its stamp
        is covered again, and a delta above the stamp (a racing
        writer's) survives on top of the new base.  Untouched shards
        keep their rows: one tenant's flush never rewrites another
        tenant's slab.
        """
        stamp = int(stamp)
        payload = [
            self._shard_payload_row(user_id, kind, stamp, ids)
            for (user_id, kind), ids in shards.items()
        ]
        with self._lock, self._conn:
            self._conn.executemany(
                """INSERT OR REPLACE INTO index_shards
                   (user_id, kind, mutation_counter, rows, ids)
                   VALUES (?, ?, ?, ?, ?)""",
                payload,
            )
            self._conn.executemany(
                "DELETE FROM index_deltas WHERE user_id=? AND kind=?"
                " AND mutation_counter<=?",
                [(row[0], row[1], stamp) for row in payload],
            )
            self._raise_stamps(payload, stamp)

    def _scan_owned(
        self, user_id: int, table: str, kinds: Sequence[str]
    ) -> tuple[np.ndarray, dict[str, list]]:
        """One ordered scan of the ``table`` records ``user_id`` owns:
        their ascending ids and, beside them, each row's still-encoded
        vector blob (or ``None``) per kind.  The owner index hands the
        ids over in order, so nothing is sorted and no id list is bound
        into the statement, whatever the shard's size."""
        owners = _OWNER_TABLE[table]
        id_col = _KIND_SOURCE[kinds[0]][1]
        blobs = ", ".join(f"r.{_KIND_SOURCE[kind][2]}" for kind in kinds)
        rows = self._conn.execute(
            f"SELECT o.{id_col}, {blobs} FROM {owners} o"
            f" JOIN {table} r ON r.{id_col} = o.{id_col}"
            f" WHERE o.user_id = ? ORDER BY o.{id_col}",
            (user_id,),
        ).fetchall()
        return np.asarray([row[0] for row in rows], dtype=np.int64), {
            kind: [row[at] for row in rows]
            for at, kind in enumerate(kinds, start=1)
        }

    def owned_vectors(
        self, user_id: int, kinds: Iterable[str]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """A user's shards rebuilt from the record rows: for each of
        ``kinds`` the ``(ids, matrix)`` of the records ``user_id`` owns
        that carry a vector of that kind — ascending int64 ids,
        C-contiguous float32 rows, an empty shard ``(0,)`` / ``(0, 0)``.
        One :meth:`_scan_owned` per record table the kinds live in —
        the scan :meth:`load_index_shards` fills replayed shards from,
        so a rebuilt shard and a replayed one are the same bytes.
        Raises ``ValueError`` for a corrupt vector or mixed widths.
        """
        tables: dict[str, list[str]] = {}
        for kind in sorted(set(kinds)):
            if kind not in _KIND_SOURCE:
                raise ValueError(f"unknown shard kind {kind!r}")
            tables.setdefault(_KIND_SOURCE[kind][0], []).append(kind)
        shards = {}
        with self._lock:
            for table, table_kinds in tables.items():
                scan_ids, columns = self._scan_owned(
                    int(user_id), table, table_kinds
                )
                for kind, column in columns.items():
                    held = [
                        row for row, entry in enumerate(column)
                        if entry is not None
                    ]
                    shards[kind] = (
                        scan_ids[held],
                        decode_many([column[row] for row in held]),
                    )
        return shards

    def load_index_shards(
        self,
    ) -> tuple[
        dict[tuple[int, str], tuple[np.ndarray, np.ndarray, int]], int
    ]:
        """Replayed per-shard slabs: ``({key: (ids, matrix, tip)}, discarded)``.

        Base slab and journal hold ids only: the base is replayed as a
        run of ``add``s followed by its delta chain in append order
        (:func:`_replay_shard`), and the vector of every id whose last
        event is an ``add`` is read from its record row — one ordered
        :meth:`_scan_owned` per (user, record table), however many of
        the user's kinds read it.  ``tip`` is the counter of the last
        event folded in (the shard is fresh iff ``tip ==
        shard_stamps()[key]``).  A corrupt, truncated or torn shard (bad
        blob, non-monotonic chain, delta at or below the base stamp, a
        winning id whose record row is gone, not the user's, of another
        width or without a vector of that kind) discards *only that
        shard* and increments ``discarded`` — never the whole snapshot.
        """
        with self._lock:
            base_rows = self._conn.execute(
                "SELECT user_id, kind, mutation_counter, rows, ids"
                " FROM index_shards"
            ).fetchall()
            delta_rows = self._conn.execute(
                "SELECT user_id, kind, op, mutation_counter, rows, ids"
                " FROM index_deltas ORDER BY delta_id"
            ).fetchall()
            bases: dict[tuple[int, str], tuple] = {}
            chains: dict[tuple[int, str], list] = {}
            bad: set[tuple[int, str]] = set()
            for row in base_rows:
                key = (int(row["user_id"]), str(row["kind"]))
                try:
                    bases[key] = (
                        int(row["mutation_counter"]), self._decode_ids(row)
                    )
                except ValueError:
                    bad.add(key)
            for row in delta_rows:
                key = (int(row["user_id"]), str(row["kind"]))
                try:
                    ids = self._decode_ids(row)
                except ValueError:
                    bad.add(key)
                    continue
                chains.setdefault(key, []).append(
                    (int(row["mutation_counter"]), str(row["op"]), ids)
                )
            # under the same lock hold as the journal read: within this
            # process the record rows read now are the ones that journal
            # describes (across processes: read_snapshot)
            return self._replay_shards(bases, chains, bad)

    def _replay_shards(
        self,
        bases: Mapping[tuple[int, str], tuple[int, np.ndarray]],
        chains: Mapping[tuple[int, str], list[tuple[int, str, np.ndarray]]],
        bad: set[tuple[int, str]],
    ) -> tuple[dict[tuple[int, str], tuple[np.ndarray, np.ndarray, int]], int]:
        """:meth:`load_index_shards` once the ids are in hand: replay
        every shard (:func:`_replay_shard`) and fill it from one
        :meth:`_scan_owned` per (user, record table), however many of
        the user's kinds read it.  ``bad`` shards (rows that did not even
        parse) and shards that raise are discarded one by one.  Caller
        holds the lock."""
        keys = sorted(set(bases) | set(chains) | bad)
        kinds_of: dict[tuple[int, str], list[str]] = {}
        for user_id, kind in keys:
            if kind in _KIND_SOURCE:
                kinds_of.setdefault(
                    (user_id, _KIND_SOURCE[kind][0]), []
                ).append(kind)
        # keys are sorted, so a user's kinds follow one another: holding
        # the latest scan is holding every scan that will be asked for
        # again
        latest: list = [None, None]

        def fetch(key: tuple[int, str], ids: np.ndarray) -> np.ndarray:
            user_id, kind = key
            if kind not in _KIND_SOURCE:
                raise ValueError(f"unknown shard kind {kind!r}")
            source = (user_id, _KIND_SOURCE[kind][0])
            if latest[0] != source:
                latest[:] = source, self._scan_owned(*source, kinds_of[source])
            scan_ids, columns = latest[1]
            return decode_many(_pick_rows(scan_ids, columns[kind], ids))

        shards: dict[tuple[int, str], tuple] = {}
        discarded = 0
        for key in keys:
            if key in bad:
                discarded += 1
                continue
            try:
                shards[key] = _replay_shard(
                    bases.get(key), chains.get(key, []), partial(fetch, key)
                )
            except ValueError:
                discarded += 1
        return shards, discarded

    @contextmanager
    def read_snapshot(self):
        """Reads made inside this context see one state of the store:
        no write of this or of another process lands between them
        (attach reads stamps, base slabs, journal and record rows, and
        a shard is only as fresh as the rows its ids are filled from).
        Holds the DAO's lock; write nothing inside.
        """
        # WAL gives a read transaction one snapshot of the file from its
        # first read on, whatever other connections commit meanwhile;
        # the lock keeps this connection's other threads out of it
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                yield
            finally:
                self._conn.execute("COMMIT")

    def checkpoint(self) -> None:
        """Move committed writes from the write-ahead log into the main
        file now (``PRAGMA wal_checkpoint(PASSIVE)``), rather than inside
        whichever later commit trips the automatic threshold.  A no-op
        on ``:memory:``."""
        with self._lock:
            self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchall()

    @staticmethod
    def _decode_ids(row) -> np.ndarray:
        """The int64 ids of one base/delta row, validated against its
        declared row count; ``ValueError`` on a truncated blob."""
        ids_blob = row["ids"]
        if len(ids_blob) != int(row["rows"]) * 8:
            raise ValueError("truncated blob")
        return np.frombuffer(ids_blob, dtype=np.int64).copy()

    def index_shards_meta(self) -> dict[str, int | None]:
        """Cheap snapshot metadata:
        ``{counter, shards, rows, deltas, deltaBytes}``.

        Never deserializes slab blobs; ``counter`` is the uniform base
        stamp, or ``None`` when absent or (normal under per-shard
        persistence) mixed.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT mutation_counter, rows FROM index_shards"
            ).fetchall()
            delta = self._conn.execute(
                "SELECT COUNT(*) AS n, COALESCE(SUM(LENGTH(ids)), 0) AS b"
                " FROM index_deltas"
            ).fetchone()
        counters = {row["mutation_counter"] for row in rows}
        return {
            "counter": counters.pop() if len(counters) == 1 else None,
            "shards": len(rows),
            "rows": sum(row["rows"] for row in rows),
            "deltas": int(delta["n"]),
            "deltaBytes": int(delta["b"]),
        }

    def shard_chain_meta(self) -> dict[tuple[int, str], dict[str, int]]:
        """Per-shard chain statistics, no blob deserialization:
        ``{key: {baseCounter, rows, chainLen, chainRows, chainBytes,
        tip}}`` — ``rows`` counts the base slab, ``chainRows`` the ids
        journaled on top of it, ``chainBytes`` their bytes at rest (ids
        only — the journal stores no vectors)."""
        with self._lock:
            base_rows = self._conn.execute(
                "SELECT user_id, kind, mutation_counter, rows"
                " FROM index_shards"
            ).fetchall()
            delta_rows = self._conn.execute(
                "SELECT user_id, kind, COUNT(*) AS n, SUM(rows) AS r,"
                " COALESCE(SUM(LENGTH(ids)), 0) AS b,"
                " MAX(mutation_counter) AS tip"
                " FROM index_deltas GROUP BY user_id, kind"
            ).fetchall()
        meta: dict[tuple[int, str], dict[str, int]] = {}
        for row in base_rows:
            meta[(int(row["user_id"]), str(row["kind"]))] = {
                "baseCounter": int(row["mutation_counter"]),
                "rows": int(row["rows"]),
                "chainLen": 0,
                "chainRows": 0,
                "chainBytes": 0,
                "tip": int(row["mutation_counter"]),
            }
        for row in delta_rows:
            entry = meta.setdefault(
                (int(row["user_id"]), str(row["kind"])),
                {"baseCounter": None, "rows": 0},
            )
            entry["chainLen"] = int(row["n"])
            entry["chainRows"] = int(row["r"])
            entry["chainBytes"] = int(row["b"])
            entry["tip"] = int(row["tip"])
        return meta

    # -- idempotency receipts ---------------------------------------------
    def get_write_receipt(
        self, user_id: int, key: str
    ) -> tuple[str, int, dict] | None:
        """The stored ``(fingerprint, status, body)`` for an idempotency
        key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT fingerprint, status, body FROM write_receipts"
                " WHERE user_id=? AND idem_key=?",
                (int(user_id), str(key)),
            ).fetchone()
        if row is None:
            return None
        return row["fingerprint"], int(row["status"]), json.loads(row["body"])

    def save_write_receipt(
        self,
        user_id: int,
        key: str,
        fingerprint: str,
        status: int,
        body: dict,
        created_at: float = 0.0,
    ) -> None:
        """Record one write's response under ``(user_id, key)``.

        Receipts are *not* registry mutations: no ``_bump_mutation()``,
        so a replayed write leaves the counter (and any persisted shard
        snapshot's freshness) untouched — the observable no-op
        guarantee.
        """
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO write_receipts"
                " (user_id, idem_key, fingerprint, status, body, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    int(user_id),
                    str(key),
                    str(fingerprint),
                    int(status),
                    json.dumps(body),
                    float(created_at),
                ),
            )

    def claim_write_receipt(
        self, user_id: int, key: str, fingerprint: str, created_at: float = 0.0
    ) -> bool:
        """Atomically claim ``(user_id, key)`` for one writer: ``True``
        if this caller won (a :data:`RECEIPT_PENDING` placeholder row now
        exists) and must execute the write, ``False`` if another writer
        holds or completed it.  ``INSERT OR IGNORE`` of the pending row —
        SQLite serializes the insert across *processes* sharing the
        file, so exactly one writer in a fleet wins the key; everyone
        else sees the row."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO write_receipts"
                " (user_id, idem_key, fingerprint, status, body, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    int(user_id),
                    str(key),
                    str(fingerprint),
                    RECEIPT_PENDING,
                    "{}",
                    float(created_at),
                ),
            )
            return cursor.rowcount == 1

    def finalize_write_receipt(
        self,
        user_id: int,
        key: str,
        fingerprint: str,
        status: int,
        body: dict,
        created_at: float = 0.0,
    ) -> None:
        """Replace a pending claim with the write's recorded outcome."""
        self.save_write_receipt(
            user_id, key, fingerprint, status, body, created_at
        )

    def release_write_receipt(self, user_id: int, key: str) -> None:
        """Drop a *pending* claim (the write failed), so the key is
        retryable; a finalized receipt is never released."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM write_receipts WHERE user_id=? AND idem_key=?"
                " AND status=?",
                (int(user_id), str(key), RECEIPT_PENDING),
            )

"""Data Access Object layer (paper §3.2.3).

CRUD against the data store.  One store, :class:`SqliteDAO`: the
durable stand-in for the paper's remote MySQL web service, with
embeddings stored as vector BLOBs (:mod:`repro.registry.veccodec`).
Ephemeral stacks — tests, ``LaminarServer()`` without a ``dao``,
``repro stats`` without ``--db`` — open it on ``":memory:"`` (the
default path), so every in-process stack runs the same schema, SQL and
FTS5 ranking as a file on disk.  On either, the FTS5 text index is a
cache in memory, filled from the stored text documents at open.

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

Both record kinds are stored under one set of rules, so each record
operation — insert, update, delete, get, get-many, find by name, all,
owned, owned ids, text top-k — is one body driven by the kind's storage
row (:data:`_STORAGE`): record, owner, text-side and FTS tables, the
columns with a codec each, the text-document builder, the not-found
label.  The id, name and vector fields come from
:data:`~repro.registry.entities.RECORD_KINDS`.  The per-kind names
(``get_pes``, ``update_workflow``, ...) are one-line entries into those
bodies; what only workflows have — the ``workflow_pes`` link rows and a
deleted PE's back-reference — stays in named hooks.

Ownership lives in normalized ``pe_owners`` / ``workflow_owners`` join
tables keyed ``(user_id, id)`` — every owner-scoped read filters by
user and walks the primary key, and a write deletes a record's old
owners by that key, so no second index is kept — and the PE<->workflow
association in a ``workflow_pes`` link table.  The record rows carry
the same facts as JSON ``owners`` / ``pe_ids`` columns, which hydration
reads; every write keeps both in step.

Do the JSON columns earn their place?  Measured by building a record's
``owners`` / ``pe_ids`` from the join tables at hydration instead (one
correlated subquery a column in the hydrating statement, the columns
written as ``'[]'``): ``test_read_cost.py``'s ``READ_COST`` stays
statement for statement and row for row what it is (semantic 5/6, text
5/6, hybrid 9/60, code 3/3), ``test_write_cost.py``'s frames stay what
they were at schema v12, 9/5/10/16 (PUT/revise/DELETE/bulk of 16, 1 KB
pages) and 9/5/8/9 (4 KB)
— a record row spans pages whether or not it holds a few bytes of JSON
— and ``get_pes`` of 60 ids takes ~10 % longer (~480 -> ~540 us on a
2-CPU Linux host).  ``workflow_pes`` is a set ordered by ``pe_id``;
``pe_ids`` is the list as registered.  No frame is saved, so the
columns stay; dropping them would need its own schema step.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
from contextlib import contextmanager
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import NotFoundError, RegistryError
from repro.registry.entities import (
    RECORD_KINDS,
    SHARD_KINDS,
    PERecord,
    UserRecord,
    WorkflowRecord,
)
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


#: what one mutation does to the shards it stamps — each one's journal
#: row: ``{(user_id, kind): (op, ids)}``
_Changes = dict[tuple[int, str], tuple[str, list[int]]]


def _shard_changes(
    record_type: type,
    record_id: int,
    old_owners: set[int],
    old: Mapping[str, bytes | None],
    new: PERecord | WorkflowRecord | None,
) -> _Changes:
    """The shards one record write changes, each with its journal row:
    ``{(user_id, kind): (op, [record_id])}``.

    ``old`` maps the record's shard kinds to the committed row's vector
    bytes (:meth:`SqliteDAO._old_vectors`; empty for an insert) and
    ``new`` is the record as written (``None`` for a delete).  A shard
    changes when its owner gains or loses the record (membership) or
    when the vector bytes themselves change (then every owner's shard
    changes).  Pure metadata updates — description text, imports,
    workflow pe_ids — stamp nothing, so they never stale a persisted
    slab.  One rule for stamp and journal: a changed shard gets ``add``
    when the record is in it after the write (the user owns it and it
    carries a vector of that kind), ``remove`` when it is not.
    """
    new_owners = set() if new is None else set(new.owners)
    changes: _Changes = {}
    for kind in RECORD_KINDS[record_type].shards:
        old_b = old.get(kind)
        new_b = None if new is None else _embed_bytes(
            getattr(new, SHARD_KINDS[kind].vector_field)
        )
        if old_b != new_b:
            users = old_owners | new_owners
        elif new_b is not None:
            users = old_owners ^ new_owners
        else:
            continue
        for user_id in users:
            embedded = user_id in new_owners and new_b is not None
            changes[(user_id, kind)] = (
                _OP_ADD if embedded else _OP_REMOVE,
                [int(record_id)],
            )
    return changes


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


#: the tables schema v13 reshaped, each name followed by ``{new}``: the
#: record tables number their own ids (:meth:`SqliteDAO._issue_ids`, no
#: AUTOINCREMENT) and the owner tables — normalized ownership, which
#: owner-scoped reads filter by in SQL; the record rows' JSON columns
#: hold the same facts (the module docstring says why both stay) — are
#: keyed by user, the order every such read filters in, so no second
#: index is kept beside them.  :data:`_SCHEMA` creates them as they are
#: named; :data:`_STEP_FROM_V12` creates them under ``_v13`` names,
#: copies into them and renames them
_RESHAPED = """
CREATE TABLE pes{new} (
    pe_id INTEGER PRIMARY KEY,
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
CREATE TABLE workflows{new} (
    workflow_id INTEGER PRIMARY KEY,
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
CREATE TABLE pe_owners{new} (
    user_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (user_id, pe_id)
) WITHOUT ROWID;
CREATE TABLE workflow_owners{new} (
    user_id INTEGER NOT NULL,
    workflow_id INTEGER NOT NULL,
    PRIMARY KEY (user_id, workflow_id)
) WITHOUT ROWID;
"""

_RECORD_INDEXES = """
CREATE INDEX idx_pes_name ON pes(pe_name);
CREATE INDEX idx_wf_entry ON workflows(entry_point);
"""

#: the registry-wide counters are rows of ``shard_stamps`` under this
#: user id, which no user has (user ids start at 1): the mutation
#: counter under :data:`_MUTATIONS`, and under each record table's name
#: the highest id it has issued.  Every write rewrites the counter and
#: the stamps of the shards it changed, so keeping them in one b-tree
#: keeps them on one page
_REGISTRY_USER = 0
_MUTATIONS = "mutations"

_SCHEMA = (
    """
CREATE TABLE users (
    user_id INTEGER PRIMARY KEY AUTOINCREMENT,
    user_name TEXT UNIQUE NOT NULL,
    password_hash TEXT NOT NULL
);
"""
    + _RESHAPED.format(new="")
    + _RECORD_INDEXES
    + """
CREATE TABLE workflow_pes (
    workflow_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, pe_id)
) WITHOUT ROWID;
CREATE INDEX idx_workflow_pes_pe ON workflow_pes(pe_id, workflow_id);
-- persisted index slabs so a warm cold start skips the O(corpus)
-- rebuild: a slab is its shard's membership (ids) at its stamp, the
-- vectors are read from the record rows
CREATE TABLE index_shards (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL,
    PRIMARY KEY (user_id, kind)
);
-- idempotency receipts for the v1 write surface (replaying a stored
-- (user, key) returns the recorded response verbatim; a fingerprint
-- mismatch is a 409).  Receipts are claimed (INSERT OR IGNORE of a
-- pending row — the cross-process write-serialization point);
-- created_at is written but nothing prunes by it (receipts are
-- unbounded)
CREATE TABLE write_receipts (
    user_id INTEGER NOT NULL,
    idem_key TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    status INTEGER NOT NULL,
    body TEXT NOT NULL,
    created_at REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (user_id, idem_key)
) WITHOUT ROWID;
-- the normalized text match documents (name_norm doubles as the
-- whole-query substring arm and the FTS name document): the durable
-- half of text ranking only — the FTS5 index over them is a cache in
-- memory (_TEXT_INDEX_SCHEMA), not a table here
CREATE TABLE pe_text (
    pe_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE TABLE wf_text (
    workflow_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
-- per-shard freshness stamps + the append-only delta journal.  The
-- journal is an ids-only changelog (no vectors, no secondary index:
-- every reader scans it whole in delta_id order) and each stamp row
-- carries its shard's chain tip beside it, so the one row a mutation
-- rewrites anyway also says whether to journal (tip = stamp: covered;
-- NULL or lower: stale until a base upsert).  The rows of user 0 are
-- the registry-wide counters (_REGISTRY_USER), not shards
CREATE TABLE shard_stamps (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    tip INTEGER,
    PRIMARY KEY (user_id, kind)
) WITHOUT ROWID;
CREATE TABLE index_deltas (
    delta_id INTEGER PRIMARY KEY,
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    op TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    rows INTEGER NOT NULL,
    ids BLOB NOT NULL
);
INSERT INTO shard_stamps (user_id, kind, mutation_counter)
VALUES (0, 'mutations', 0), (0, 'pes', 0), (0, 'workflows', 0);
"""
)

#: the attached in-memory database that holds the text index
_TEXT_DB = "text_index"

#: the text index: contentless FTS5 tables over the pe_text / wf_text
#: documents in a database attached as ':memory:', filled from them at
#: open and kept in step by TEMP triggers that fire inside each
#: mutation's own transaction (so a rollback undoes both).  A write logs
#: no FTS5 segment page; BM25 depends only on which documents are
#: indexed, not on how segments are laid out, so the scores are the
#: on-disk index's.  A trigger body may only name its target unqualified
#: — found here because ``main`` holds no table of that name (v11).
#: unicode61 with remove_diacritics 0 so documents match the
#: Python-lowercased text byte-for-byte (queries are pure-ASCII scorer
#: words).
_TEXT_INDEX_SCHEMA = f"""
CREATE VIRTUAL TABLE {_TEXT_DB}.pe_fts USING fts5(
    name_norm, desc_doc, content='',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE VIRTUAL TABLE {_TEXT_DB}.wf_fts USING fts5(
    name_norm, desc_doc, content='',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE TEMP TRIGGER pe_text_ai AFTER INSERT ON main.pe_text BEGIN
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TEMP TRIGGER pe_text_ad AFTER DELETE ON main.pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
END;
CREATE TEMP TRIGGER pe_text_au AFTER UPDATE ON main.pe_text BEGIN
    INSERT INTO pe_fts(pe_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.pe_id, old.name_norm, old.desc_doc);
    INSERT INTO pe_fts(rowid, name_norm, desc_doc)
    VALUES (new.pe_id, new.name_norm, new.desc_doc);
END;
CREATE TEMP TRIGGER wf_text_ai AFTER INSERT ON main.wf_text BEGIN
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
CREATE TEMP TRIGGER wf_text_ad AFTER DELETE ON main.wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
END;
CREATE TEMP TRIGGER wf_text_au AFTER UPDATE ON main.wf_text BEGIN
    INSERT INTO wf_fts(wf_fts, rowid, name_norm, desc_doc)
    VALUES ('delete', old.workflow_id, old.name_norm, old.desc_doc);
    INSERT INTO wf_fts(rowid, name_norm, desc_doc)
    VALUES (new.workflow_id, new.name_norm, new.desc_doc);
END;
"""

#: the on-disk format (``PRAGMA user_version``) :data:`_SCHEMA` creates.
#: A v12 file takes one step to it (:data:`_STEP_FROM_V12`); any other
#: version is refused.  v13 keyed the owner tables by user, moved the
#: mutation counter and the id high-water marks into ``shard_stamps``
#: (:data:`_REGISTRY_USER`) and dropped ``registry_meta`` and the record
#: tables' AUTOINCREMENT, so a write logs no page of an owner index, of
#: ``registry_meta`` or of ``sqlite_sequence``; v12 added the
#: value-table vector layout (:mod:`repro.registry.veccodec`, tag 2),
#: which older code cannot decode; v11 moved the text index into memory,
#: filled from ``pe_text``/``wf_text`` at open (:data:`_TEXT_INDEX_SCHEMA`),
#: so a write logs no FTS5 page.  Vector blobs may still be dense float32
#: (v6 and older wrote them so) or sparse (v7 to v11): every layout
#: decodes through the same codec, and a row re-encodes when next
#: written.
_SCHEMA_VERSION = 13

#: v12 -> v13, run in one transaction with the stamp.  The record and
#: owner tables are rebuilt by SQLite's documented way to change a
#: table's definition (create the new table, copy, drop the old one,
#: rename the new one, re-create the indexes), not by editing
#: ``sqlite_schema``; the owner indexes go with the old tables.  The
#: counter rows are seeded before their sources go: the mutation counter
#: from ``registry_meta``, each high-water mark from AUTOINCREMENT's
#: ``sqlite_sequence`` row or the table's highest id, whichever is
#: larger — a deleted record's id is never issued again
_STEP_FROM_V12 = (
    _RESHAPED.format(new="_v13")
    + """
INSERT INTO pes_v13 SELECT * FROM pes;
INSERT INTO workflows_v13 SELECT * FROM workflows;
INSERT INTO pe_owners_v13 (user_id, pe_id)
    SELECT user_id, pe_id FROM pe_owners;
INSERT INTO workflow_owners_v13 (user_id, workflow_id)
    SELECT user_id, workflow_id FROM workflow_owners;
INSERT INTO shard_stamps (user_id, kind, mutation_counter)
SELECT 0, 'mutations', COALESCE(
    (SELECT value FROM registry_meta WHERE key = 'mutation_counter'), 0)
UNION ALL
SELECT 0, 'pes', MAX(
    COALESCE((SELECT seq FROM sqlite_sequence WHERE name = 'pes'), 0),
    COALESCE((SELECT MAX(pe_id) FROM pes), 0))
UNION ALL
SELECT 0, 'workflows', MAX(
    COALESCE((SELECT seq FROM sqlite_sequence WHERE name = 'workflows'), 0),
    COALESCE((SELECT MAX(workflow_id) FROM workflows), 0));
DELETE FROM sqlite_sequence WHERE name IN ('pes', 'workflows');
DROP TABLE registry_meta;
DROP TABLE pes;
DROP TABLE workflows;
DROP TABLE pe_owners;
DROP TABLE workflow_owners;
ALTER TABLE pes_v13 RENAME TO pes;
ALTER TABLE workflows_v13 RENAME TO workflows;
ALTER TABLE pe_owners_v13 RENAME TO pe_owners;
ALTER TABLE workflow_owners_v13 RENAME TO workflow_owners;
"""
    + _RECORD_INDEXES
)

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


#: how a record column is stored: ``(encode, decode)``, or ``_PLAIN``
#: for a value SQLite holds as the record does
_Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]] | None
_PLAIN: _Codec = None
_JSON: _Codec = (json.dumps, json.loads)
_VECTOR: _Codec = (_blob, _unblob)
#: owners: a set in the record, a sorted JSON list in the row
_OWNERS: _Codec = (
    lambda owners: json.dumps(sorted(owners)),
    lambda raw: set(json.loads(raw)),
)


@dataclasses.dataclass
class _Storage:
    """How :class:`SqliteDAO` stores one record class: the storage facts
    :data:`~repro.registry.entities.RECORD_KINDS` leaves out.  The id,
    name and vector fields are read from there, so each DAO operation
    is one body driven by a row of :data:`_STORAGE`."""

    record_type: type
    #: the record table and its owner join table (keyed by user, then id)
    table: str
    owners: str
    #: the side table of FTS documents and the memory FTS5 table over it
    text: str
    fts: str
    #: the record table's columns between the id and ``revision``, in
    #: table order, each named as its record attribute
    columns: tuple[tuple[str, _Codec], ...]
    #: the ``text_search`` builder of the FTS documents and the record
    #: fields it reads, in its argument order: an update that changes
    #: none of them leaves the text rows alone
    document: str
    sources: tuple[str, ...]
    #: :class:`~repro.errors.NotFoundError`'s record label and params key
    label: str
    param: str
    #: the static method that builds a record from a row, looked up on
    #: the DAO when called
    hydrate: str
    #: the workflow-only parts, by DAO method (:meth:`SqliteDAO._hook`):
    #: after an insert (``link(records)``), after an update
    #: (``relink(record, old)``, where ``old`` holds the committed
    #: ``links`` field) and after a delete (``unlink(record_id)``), each
    #: inside the write that runs it
    links: str | None = None
    link: str | None = None
    relink: str | None = None
    unlink: str | None = None

    def __post_init__(self) -> None:
        kind = RECORD_KINDS[self.record_type]
        self.id, self.name = kind.id_field, kind.name_field
        self.column_names = tuple(column for column, _ in self.columns)
        self.column_list = ", ".join(self.column_names)
        # one mark for the id and each column
        self.marks = ", ".join("?" * (1 + len(self.columns)))
        # the committed row as a mutation reads it: what decides
        # whether the name, the text or the links are rewritten, then
        # the owners and vectors that decide which shards it stamps
        kept = {self.name, *self.sources, self.links}
        self.old_columns = ", ".join(
            [c for c in self.column_names if c in kept]
            + ["owners", *kind.vector_fields]
        )
        # a row's values in the record's field order, so a record is
        # built positionally: every field of a record is a column
        fields = [field.name for field in dataclasses.fields(self.record_type)]
        codecs = dict(self.columns)
        self._row_values = itemgetter(*fields)
        self._decoders = [
            (at, codecs[name][1])
            for at, name in enumerate(fields)
            if codecs.get(name)
        ]
        self._document_fields = attrgetter(*self.sources)

    def record(self, row: sqlite3.Row) -> PERecord | WorkflowRecord:
        values = list(self._row_values(row))
        for at, decode in self._decoders:
            values[at] = decode(values[at])
        return self.record_type(*values)

    def params(self, record: PERecord | WorkflowRecord) -> tuple:
        """The record's column values as stored, in :attr:`columns`
        order."""
        return tuple(
            getattr(record, column) if codec is None
            else codec[0](getattr(record, column))
            for column, codec in self.columns
        )

    def documents(self, record: PERecord | WorkflowRecord) -> tuple[str, str]:
        """The record's ``(name_norm, desc_doc)`` FTS documents."""
        build = getattr(_text_documents(), self.document)
        return build(*self._document_fields(record))


_PES = _Storage(
    PERecord, "pes", "pe_owners", "pe_text", "pe_fts",
    columns=(
        ("pe_name", _PLAIN),
        ("description", _PLAIN),
        ("description_origin", _PLAIN),
        ("pe_code", _PLAIN),
        ("pe_source", _PLAIN),
        ("pe_imports", _JSON),
        ("code_embedding", _VECTOR),
        ("desc_embedding", _VECTOR),
        ("owners", _OWNERS),
    ),
    document="fts_pe_document",
    sources=("pe_name", "description"),
    label="PE",
    param="peId",
    hydrate="_pe_from_row",
    unlink="_unlink_pe",
)
_WORKFLOWS = _Storage(
    WorkflowRecord, "workflows", "workflow_owners", "wf_text", "wf_fts",
    columns=(
        ("workflow_name", _PLAIN),
        ("entry_point", _PLAIN),
        ("description", _PLAIN),
        ("workflow_code", _PLAIN),
        ("workflow_source", _PLAIN),
        ("pe_ids", _JSON),
        ("desc_embedding", _VECTOR),
        ("owners", _OWNERS),
    ),
    document="fts_workflow_document",
    sources=("entry_point", "workflow_name", "description"),
    label="workflow",
    param="workflowId",
    hydrate="_wf_from_row",
    links="pe_ids",
    link="_link_workflows",
    relink="_relink_workflow",
    unlink="_unlink_workflow",
)
#: each record class's storage row
_STORAGE = {PERecord: _PES, WorkflowRecord: _WORKFLOWS}


def _refusal(path: str | Path, version: int) -> RegistryError:
    """Why a file at schema ``version`` is not opened: only a new file,
    a v12 file (one step) and a current one are."""
    if version > _SCHEMA_VERSION:
        advice = "it was written by newer code; open it with that code"
    else:
        advice = (
            "open it once with an older checkout of this repository, one"
            " that still steps such files up, to migrate it"
        )
    return RegistryError(
        f"registry file {path} is at schema v{version}; this code opens"
        f" v{_SCHEMA_VERSION - 1} and v{_SCHEMA_VERSION} files only — "
        + advice,
        params={"path": str(path), "userVersion": version},
    )


class SqliteDAO:
    """The registry store (the durable stand-in for the web MySQL
    service); thread-safe, one connection behind one lock.  ``path``
    defaults to ``":memory:"`` — an ephemeral registry with the same
    schema and behaviour as a file.

    Ownership and the PE<->workflow association are normalized into
    ``pe_owners`` / ``workflow_owners`` (keyed by user) and
    ``workflow_pes`` so owner-scoped queries filter in SQL instead of
    deserializing the whole registry.  Every record operation runs one
    body for both kinds, given the kind's storage row (:class:`_Storage`);
    the ``*_pe*`` / ``*_workflow*`` methods only pick the row.

    Opening reads ``PRAGMA user_version`` before anything writes.  A new
    file (version 0, no schema) is created by :data:`_SCHEMA` in one
    transaction and stamped :data:`_SCHEMA_VERSION`; a file one version
    behind takes :meth:`_step_from_v12`; a current file runs no DDL on
    ``main``.  Any other version raises :class:`~repro.errors.RegistryError`
    naming it, and the file is left as it was.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        # read before anything writes: a refused file's bytes stay as
        # they were
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        new = version == 0 and not self._conn.execute(
            "SELECT 1 FROM main.sqlite_schema LIMIT 1"
        ).fetchone()
        if not new and version not in (_SCHEMA_VERSION - 1, _SCHEMA_VERSION):
            self._conn.close()
            raise _refusal(path, version)
        # a WAL commit logs whole pages and the rows this registry
        # commits are tens of bytes (stamps, owners, counter, journal) to
        # ~2.5 KB (a record): 1 KB pages log a quarter of what 4 KB ones
        # do for the same touch.  Takes effect on a file without pages
        # only; an existing file keeps its own
        self._conn.execute("PRAGMA page_size=1024")
        # WAL lets readers proceed during writes; NORMAL fsyncs once per
        # checkpoint instead of per transaction (both no-ops for
        # :memory: databases)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        if new:
            # one transaction: a crash leaves an empty file, not a
            # half-made one that the next open refuses.  Two connections
            # creating one file at the same moment are not supported:
            # the later one's first CREATE TABLE fails
            self._stamped(_SCHEMA)
        elif version < _SCHEMA_VERSION:
            self._step_from_v12()
        # the text index: filled here, kept in step by this connection's
        # triggers, refilled when another connection has committed
        # (:meth:`_text_topk`).  ATTACH cannot run inside a transaction
        self._conn.execute(f"ATTACH DATABASE ':memory:' AS {_TEXT_DB}")
        self._conn.executescript(_TEXT_INDEX_SCHEMA)
        with self._lock, self._conn:
            self._fill_text_index()

    def _stamped(self, script: str) -> None:
        """Run ``script`` and stamp the file :data:`_SCHEMA_VERSION`, in
        one transaction."""
        self._conn.executescript(
            f"BEGIN;{script}PRAGMA user_version = {_SCHEMA_VERSION};COMMIT;"
        )

    def _step_from_v12(self) -> None:
        """v12 -> v13 (:data:`_STEP_FROM_V12`): a crash leaves the v12
        file as it was, and a v12 checkout cannot open the result."""
        self._stamped(_STEP_FROM_V12)

    def _fill_text_index(self) -> None:
        """Empty the memory text index and index every side-table
        document again, one ``INSERT … SELECT`` per table; then note the
        ``data_version`` of the file those documents were read at.

        Begins a transaction the caller ends (``with self._conn``,
        holding the lock): the version and the documents come from one
        snapshot of the file, so a commit landing meanwhile leaves the
        index at the version it records, never ahead of or behind it.
        """
        self._conn.execute("BEGIN")
        for store in _STORAGE.values():
            self._conn.execute(
                f"INSERT INTO {store.fts}({store.fts}) VALUES('delete-all')"
            )
            self._conn.execute(
                f"INSERT INTO {store.fts}(rowid, name_norm, desc_doc)"
                f" SELECT {store.id}, name_norm, desc_doc"
                f" FROM main.{store.text}"
            )
        self._text_version = self._conn.execute(
            "PRAGMA main.data_version"
        ).fetchone()[0]

    def close(self) -> None:
        self._conn.close()

    def _bump_mutation(self) -> int:
        """Advance the registry mutation counter (inside the caller's
        transaction) and return the bumped value — the stamp the
        caller's :meth:`_stamp_shards` marks changed shards with.  The
        counter is the ``shard_stamps`` row ``(0, 'mutations')``
        (:data:`_REGISTRY_USER`), beside the stamps the same commit
        rewrites."""
        return self._advance(_MUTATIONS, 1)

    def _issue_ids(self, table: str, count: int) -> int:
        """The first of ``count`` new ids of record table ``table``,
        inside the caller's write transaction: its high-water row
        ``(0, table)`` in ``shard_stamps`` is raised past them.  No
        delete lowers it, so no id is issued twice — a reused id would
        repeat a deleted record's ETag (``"pe-{id}-{revision}"``)."""
        return self._advance(table, count) - count + 1

    def _advance(self, name: str, by: int) -> int:
        """Raise the registry-wide counter row ``name`` by ``by`` and
        return its new value."""
        return int(
            self._conn.execute(
                "UPDATE shard_stamps SET mutation_counter = mutation_counter"
                " + ? WHERE user_id = ? AND kind = ?"
                " RETURNING mutation_counter",
                (by, _REGISTRY_USER, name),
            ).fetchall()[0][0]
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

    def _old_state(self, store: _Storage, record_id: int) -> sqlite3.Row:
        """The committed row of a record, as far as a mutation needs it
        (:attr:`_Storage.old_columns`): to decide which shards it stamps
        (owners, vectors) and which derived rows an update can leave
        alone (name, text, links).  ``NotFoundError`` when there is
        none."""
        row = self._conn.execute(
            f"SELECT {store.old_columns} FROM {store.table}"
            f" WHERE {store.id}=?",
            (int(record_id),),
        ).fetchone()
        if row is None:
            raise NotFoundError(
                f"{store.label} id {record_id} not found",
                params={store.param: record_id},
            )
        return row

    @staticmethod
    def _old_owners(row: sqlite3.Row) -> set[int]:
        return {int(uid) for uid in json.loads(row["owners"])}

    @staticmethod
    def _old_vectors(
        row: sqlite3.Row, record_type: type
    ) -> dict[str, bytes | None]:
        """Each shard kind of ``record_type`` -> the canonical dense
        bytes (:func:`_embed_bytes`) of the committed row's vector, not
        its stored encoding: a legacy dense row and its sparse
        re-encoding are the same vector."""
        return {
            kind: _embed_bytes(_unblob(row[SHARD_KINDS[kind].vector_field]))
            for kind in RECORD_KINDS[record_type].shards
        }

    # -- join-table sync ---------------------------------------------------
    def _sync_owners(
        self,
        store: _Storage,
        record_id: int,
        old: Iterable[int],
        new: Iterable[int],
    ) -> None:
        """Move a record's owner rows from the ``old`` owners (the
        committed row's) to the ``new``: each row is keyed ``(user_id,
        id)``, so only the owners that changed are touched."""
        old, new = set(old), {int(uid) for uid in new}
        self._conn.executemany(
            f"DELETE FROM {store.owners} WHERE user_id=? AND {store.id}=?",
            [(uid, record_id) for uid in sorted(old - new)],
        )
        self._conn.executemany(
            f"INSERT OR IGNORE INTO {store.owners} (user_id, {store.id})"
            " VALUES (?, ?)",
            [(uid, record_id) for uid in sorted(new - old)],
        )

    def _hook(self, name: str | None, *args) -> None:
        """Run the storage row's workflow-only hook ``name``, a method
        of this DAO (none when the row names none), inside the caller's
        write."""
        if name is not None:
            getattr(self, name)(*args)

    def _link_workflows(self, records: Sequence[WorkflowRecord]) -> None:
        self._conn.executemany(
            "INSERT OR IGNORE INTO workflow_pes (workflow_id, pe_id)"
            " VALUES (?, ?)",
            [(r.workflow_id, int(pe_id)) for r in records for pe_id in r.pe_ids],
        )

    def _relink_workflow(self, record: WorkflowRecord, old: sqlite3.Row) -> None:
        if set(json.loads(old["pe_ids"])) != set(record.pe_ids):
            self._conn.execute(
                "DELETE FROM workflow_pes WHERE workflow_id=?",
                (record.workflow_id,),
            )
            self._link_workflows([record])

    def _unlink_workflow(self, workflow_id: int) -> None:
        self._conn.execute(
            "DELETE FROM workflow_pes WHERE workflow_id=?", (workflow_id,)
        )

    def _unlink_pe(self, pe_id: int) -> None:
        """Drop a deleted PE from the workflows that list it, every
        occurrence (``pe_ids`` may repeat an id): only the workflows the
        link table names are read, and each one changed, so its
        revision (its ETag) moves on, once."""
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
            kept = [linked for linked in pe_ids if linked != pe_id]
            if len(kept) != len(pe_ids):
                self._conn.execute(
                    "UPDATE workflows SET pe_ids=?, revision=revision+1"
                    " WHERE workflow_id=?",
                    (json.dumps(kept), backref["workflow_id"]),
                )
        self._conn.execute("DELETE FROM workflow_pes WHERE pe_id=?", (pe_id,))

    # -- text side tables (the FTS5 index's documents) --------------------
    # explicit DELETE + INSERT rather than INSERT OR REPLACE: REPLACE's
    # implicit delete skips the FTS delete trigger unless
    # recursive_triggers is on, which would leave a stale posting behind
    def _sync_text(
        self, store: _Storage, record_id: int, text: tuple[str, str]
    ) -> None:
        self._conn.execute(
            f"DELETE FROM {store.text} WHERE {store.id}=?", (record_id,)
        )
        self._conn.execute(
            f"INSERT INTO {store.text} ({store.id}, name_norm, desc_doc)"
            " VALUES (?, ?, ?)",
            (record_id, *text),
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

    # -- records: one body per operation, driven by a storage row ---------
    # The writes encode their rows (vector blobs, JSON columns) and FTS
    # documents before taking the lock: neither needs the id, and inside
    # the lock they would run under an open write transaction that every
    # other DAO call waits behind.
    def _insert_many(
        self, store: _Storage, records: Sequence[PERecord | WorkflowRecord]
    ) -> list:
        """Bulk load: one counter bump, ids numbered from one
        high-water raise (:meth:`_issue_ids`), one ``executemany`` round
        trip per table for any batch size."""
        if not records:
            return []
        params = [store.params(r) for r in records]
        texts = [store.documents(r) for r in records]
        with self._lock, self._conn:
            counter = self._bump_mutation()
            first = self._issue_ids(store.table, len(records))
            changes: _Changes = {}
            for record_id, record in enumerate(records, start=first):
                setattr(record, store.id, record_id)
                record.revision = 1
                _merge_changes(
                    changes,
                    _shard_changes(
                        store.record_type, record_id, set(), {}, record
                    ),
                )
            self._stamp_shards(changes, counter)
            self._conn.executemany(
                f"INSERT INTO {store.table} ({store.id}, {store.column_list},"
                f" revision) VALUES ({store.marks}, 1)",
                [(at, *p) for at, p in enumerate(params, start=first)],
            )
            self._conn.executemany(
                f"INSERT OR IGNORE INTO {store.owners} (user_id, {store.id})"
                " VALUES (?, ?)",
                [
                    (int(uid), at)
                    for at, r in enumerate(records, start=first)
                    for uid in r.owners
                ],
            )
            self._hook(store.link, records)
            self._conn.executemany(
                f"INSERT INTO {store.text} ({store.id}, name_norm, desc_doc)"
                " VALUES (?, ?, ?)",
                [(at, *t) for at, t in enumerate(texts, start=first)],
            )
            return list(records)

    def _update(self, store: _Storage, record: PERecord | WorkflowRecord) -> None:
        """Write only what changed: SQLite rewrites the index entry of
        every column named in ``SET``, so an unchanged name
        (``pe_name``, ``entry_point``) stays out of it; the owner join
        rows, the links and the FTS document (a delete + insert in three
        b-trees) are re-synced only when they differ from the committed
        row — an ownership grant touches no text, a revision touches no
        owners."""
        params, text = store.params(record), store.documents(record)
        record_id = getattr(record, store.id)
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._old_state(store, record_id)
            renamed = old[store.name] != getattr(record, store.name)
            written = [
                (column, value)
                for column, value in zip(store.column_names, params)
                if renamed or column != store.name
            ]
            assignments = "".join(f"{column}=?, " for column, _ in written)
            self._conn.execute(
                f"UPDATE {store.table} SET {assignments}revision=?"
                f" WHERE {store.id}=?",
                (
                    *(value for _, value in written),
                    record.revision + 1,
                    record_id,
                ),
            )
            record.revision += 1
            old_owners = self._old_owners(old)
            self._stamp_shards(
                _shard_changes(
                    store.record_type, record_id, old_owners,
                    self._old_vectors(old, store.record_type), record,
                ),
                counter,
            )
            self._sync_owners(store, record_id, old_owners, record.owners)
            self._hook(store.relink, record, old)
            if any(old[f] != getattr(record, f) for f in store.sources):
                self._sync_text(store, record_id, text)

    def _delete(self, store: _Storage, record_id: int) -> None:
        with self._lock, self._conn:
            counter = self._bump_mutation()
            old = self._old_state(store, record_id)
            old_owners = self._old_owners(old)
            self._stamp_shards(
                _shard_changes(
                    store.record_type, record_id, old_owners,
                    self._old_vectors(old, store.record_type), None,
                ),
                counter,
            )
            self._conn.execute(
                f"DELETE FROM {store.table} WHERE {store.id}=?", (record_id,)
            )
            self._sync_owners(store, record_id, old_owners, ())
            self._hook(store.unlink, record_id)
            self._conn.execute(
                f"DELETE FROM {store.text} WHERE {store.id}=?", (record_id,)
            )

    def _get_many(self, store: _Storage, record_ids: Sequence[int]) -> list:
        """Batched fetch, in the order of ``record_ids``; missing ids
        skipped."""
        ids = [int(record_id) for record_id in record_ids]
        hydrate = getattr(self, store.hydrate)
        by_id = {}
        with self._lock:
            for chunk in _chunked(ids):
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT * FROM {store.table} WHERE {store.id}"
                    f" IN ({placeholders})",
                    tuple(chunk),
                ).fetchall()
                for row in rows:
                    by_id[row[store.id]] = hydrate(row)
        return [by_id[record_id] for record_id in ids if record_id in by_id]

    def _select(self, store: _Storage, sql: str, params: tuple = ()) -> list:
        """The records a ``SELECT`` of whole record rows returns."""
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        hydrate = getattr(self, store.hydrate)
        return [hydrate(row) for row in rows]

    def _get(self, store: _Storage, record_id: int):
        records = self._select(
            store,
            f"SELECT * FROM {store.table} WHERE {store.id} = ?",
            (record_id,),
        )
        return records[0] if records else None

    def _find(self, store: _Storage, name: str) -> list:
        return self._select(
            store,
            f"SELECT * FROM {store.table} WHERE {store.name} = ?"
            f" ORDER BY {store.id}",
            (name,),
        )

    def _all(self, store: _Storage) -> list:
        return self._select(
            store, f"SELECT * FROM {store.table} ORDER BY {store.id}"
        )

    def _owned(self, store: _Storage, user_id: int) -> list:
        """All records owned by ``user_id``, ascending id —
        O(user's records)."""
        r = store.table[0]  # the record table's alias: its initial
        return self._select(
            store,
            f"SELECT {r}.* FROM {store.table} {r}"
            f" JOIN {store.owners} o ON o.{store.id} = {r}.{store.id}"
            f" WHERE o.user_id = ? ORDER BY {r}.{store.id}",
            (int(user_id),),
        )

    def _owned_ids(self, store: _Storage, user_id: int) -> list[int]:
        """Ascending owned ids; never materializes rows or vectors."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {store.id} FROM {store.owners} WHERE user_id = ?"
                f" ORDER BY {store.id}",
                (int(user_id),),
            ).fetchall()
        return [row[0] for row in rows]

    @staticmethod
    def _like(pattern: str) -> str:
        """``%pattern%`` with LIKE metacharacters escaped (ESCAPE '\\')."""
        escaped = (
            pattern.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        )
        return f"%{escaped}%"

    # -- indexed text ranking (FTS5/BM25 + substring arm) ------------------
    def _text_topk(
        self, store: _Storage, user_id: int, query: str, k: int | None
    ) -> list[tuple[int, float]]:
        """Top-k owned ``(id, score)`` pairs by combined text relevance,
        from one owner-joined SQL query: ``score`` is the BM25 goodness
        (``-bm25()`` over the normalized name/description documents in
        the memory FTS index) plus :data:`_NAME_SUBSTRING_BONUS` when
        the stripped lowercase query occurs as a substring of
        ``name_norm``.  Ranked ``(-score, id)`` and LIMITed to ``k``;
        empty for blank queries; ids only, so the caller hydrates at
        most ``k`` records.

        The same statement reads the file's ``data_version`` (one row
        even when nothing matches).  It changes only when another
        connection commits, and this connection's own writes reach the
        index through its triggers, so a version other than the one of
        the last fill means the index may be stale: refill, then rank
        again inside the refill's snapshot.
        """
        needle = query.lower().strip()
        if not needle:
            return []
        terms = _text_documents().match_terms(query)
        fts, side, owners, id_col = store.fts, store.text, store.owners, store.id
        params: dict = {"uid": int(user_id), "like": self._like(needle)}
        limit = ""
        if k is not None:
            params["k"] = int(k)
            limit = " LIMIT :k"
        if terms:
            params["match"] = " OR ".join(f'"{term}"' for term in terms)
            ranked = f"""
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
            ranked = f"""
                SELECT o.{id_col} AS entity_id,
                       {_NAME_SUBSTRING_BONUS} AS score
                FROM {owners} o
                JOIN {side} t ON t.{id_col} = o.{id_col}
                WHERE o.user_id = :uid
                  AND t.name_norm LIKE :like ESCAPE '\\'
                ORDER BY o.{id_col} ASC{limit}
            """
        sql = f"""
            SELECT v.data_version AS version, r.entity_id, r.score
            FROM pragma_data_version AS v LEFT JOIN ({ranked}) AS r
            ORDER BY r.score DESC, r.entity_id ASC
        """
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
            if rows[0]["version"] != self._text_version:
                with self._conn:
                    self._fill_text_index()
                    rows = self._conn.execute(sql, params).fetchall()
        return [
            (int(row["entity_id"]), float(row["score"]))
            for row in rows
            if row["entity_id"] is not None
        ]

    # -- the per-kind names: tests, the service's _DAO_METHODS and the
    # benchmark's tracer call these, so each is a plain method (a
    # wrapper installed on the class after import is the one entered)
    @staticmethod
    def _pe_from_row(row: sqlite3.Row) -> PERecord:
        return _PES.record(row)

    @staticmethod
    def _wf_from_row(row: sqlite3.Row) -> WorkflowRecord:
        return _WORKFLOWS.record(row)

    def insert_pe(self, record: PERecord) -> PERecord:
        return self.insert_pes([record])[0]

    def insert_pes(self, records: Sequence[PERecord]) -> list[PERecord]:
        return self._insert_many(_PES, records)

    def update_pe(self, record: PERecord) -> None:
        self._update(_PES, record)

    def delete_pe(self, pe_id: int) -> None:
        self._delete(_PES, pe_id)

    def get_pe(self, pe_id: int) -> PERecord | None:
        return self._get(_PES, pe_id)

    def get_pes(self, pe_ids: Sequence[int]) -> list[PERecord]:
        return self._get_many(_PES, pe_ids)

    def find_pe_by_name(self, name: str) -> list[PERecord]:
        return self._find(_PES, name)

    def all_pes(self) -> list[PERecord]:
        return self._all(_PES)

    def pes_owned_by(self, user_id: int) -> list[PERecord]:
        return self._owned(_PES, user_id)

    def pe_ids_owned_by(self, user_id: int) -> list[int]:
        return self._owned_ids(_PES, user_id)

    def text_topk_pes(
        self, user_id: int, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        return self._text_topk(_PES, user_id, query, k)

    def insert_workflow(self, record: WorkflowRecord) -> WorkflowRecord:
        return self.insert_workflows([record])[0]

    def insert_workflows(
        self, records: Sequence[WorkflowRecord]
    ) -> list[WorkflowRecord]:
        return self._insert_many(_WORKFLOWS, records)

    def update_workflow(self, record: WorkflowRecord) -> None:
        self._update(_WORKFLOWS, record)

    def delete_workflow(self, workflow_id: int) -> None:
        self._delete(_WORKFLOWS, workflow_id)

    def get_workflow(self, workflow_id: int) -> WorkflowRecord | None:
        return self._get(_WORKFLOWS, workflow_id)

    def get_workflows(self, workflow_ids: Sequence[int]) -> list[WorkflowRecord]:
        return self._get_many(_WORKFLOWS, workflow_ids)

    def find_workflow_by_entry_point(self, entry_point: str) -> list[WorkflowRecord]:
        return self._find(_WORKFLOWS, entry_point)

    def all_workflows(self) -> list[WorkflowRecord]:
        return self._all(_WORKFLOWS)

    def workflows_owned_by(self, user_id: int) -> list[WorkflowRecord]:
        return self._owned(_WORKFLOWS, user_id)

    def workflow_ids_owned_by(self, user_id: int) -> list[int]:
        return self._owned_ids(_WORKFLOWS, user_id)

    def text_topk_workflows(
        self, user_id: int, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        return self._text_topk(_WORKFLOWS, user_id, query, k)

    # -- index-shard persistence ------------------------------------------
    def mutation_counter(self) -> int:
        """Monotonic counter bumped inside every PE/workflow write
        transaction — the freshness authority for every persisted
        shard."""
        with self._lock:
            row = self._conn.execute(
                "SELECT mutation_counter FROM shard_stamps"
                " WHERE user_id = ? AND kind = ?",
                (_REGISTRY_USER, _MUTATIONS),
            ).fetchone()
        return 0 if row is None else int(row["mutation_counter"])

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
        tip equals this stamp.  The rows of user 0 are the registry-wide
        counters (:data:`_REGISTRY_USER`), not shards, and are left out.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT user_id, kind, mutation_counter FROM shard_stamps"
                " WHERE user_id != ?",
                (_REGISTRY_USER,),
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
        the wholesale rebuild of a registry without any) — a shard
        upserted at its stamp is covered again, and a delta above the
        stamp (a racing writer's) survives on top of the new base.
        Untouched shards keep their rows: one tenant's flush never
        rewrites another tenant's slab.
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
        self, user_id: int, record_type: type, kinds: Sequence[str]
    ) -> tuple[np.ndarray, dict[str, list]]:
        """One ordered scan of the ``record_type`` records ``user_id``
        owns: their ascending ids and, beside them, each row's
        still-encoded vector blob (or ``None``) per kind.  The owner
        table's key hands the ids over in order, so nothing is sorted
        and no id list is bound into the statement, whatever the
        shard's size."""
        store = _STORAGE[record_type]
        table, owners, id_col = store.table, store.owners, store.id
        blobs = ", ".join(
            f"r.{SHARD_KINDS[kind].vector_field}" for kind in kinds
        )
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
        tables: dict[type, list[str]] = {}
        for kind in sorted(set(kinds)):
            if kind not in SHARD_KINDS:
                raise ValueError(f"unknown shard kind {kind!r}")
            tables.setdefault(SHARD_KINDS[kind].record_type, []).append(kind)
        shards = {}
        with self._lock:
            for record_type, table_kinds in tables.items():
                scan_ids, columns = self._scan_owned(
                    int(user_id), record_type, table_kinds
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
        kinds_of: dict[tuple[int, type], list[str]] = {}
        for user_id, kind in keys:
            if kind in SHARD_KINDS:
                kinds_of.setdefault(
                    (user_id, SHARD_KINDS[kind].record_type), []
                ).append(kind)
        # keys are sorted, so a user's kinds follow one another: holding
        # the latest scan is holding every scan that will be asked for
        # again
        latest: list = [None, None]

        def fetch(key: tuple[int, str], ids: np.ndarray) -> np.ndarray:
            user_id, kind = key
            if kind not in SHARD_KINDS:
                raise ValueError(f"unknown shard kind {kind!r}")
            source = (user_id, SHARD_KINDS[kind].record_type)
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

"""Data Access Object layer (paper §3.2.3).

CRUD against the data store.  One store, :class:`SqliteDAO`: the
durable stand-in for the paper's remote MySQL web service, with
embeddings stored as vector BLOBs (:mod:`repro.registry.veccodec`) and
each record's code and source deflated (:mod:`repro.registry.textcodec`).
Ephemeral stacks — tests, ``LaminarServer()`` without a ``dao``,
``repro stats`` without ``--db`` — open it on ``":memory:"`` (the
default path), so every in-process stack runs the same schema, SQL and
FTS5 ranking as a file on disk.  On either, text ranking reads only a
cache in memory: each record's FTS documents and the FTS5 index over
them, derived from the record rows (schema v15 keeps no document on
disk).

The DAO layer knows nothing about ownership/dedup rules — that is the
service layer's job — it only persists and retrieves records.  It does,
however, own the *access paths* that make ownership filtering cheap:

* ``pes_owned_by`` / ``workflows_owned_by`` — owner-scoped listings
  whose cost is O(user's records), not O(total registry);
* ``pe_ids_owned_by`` / ``workflow_ids_owned_by`` — id-only projections
  that never materialize rows or unblob embeddings, for listings only
  (v1 cursor pages, ``repro stats``): no search reads them;
* ``get_pes`` / ``get_workflows`` — id-batched fetch for top-k result
  hydration and listing pages, each record's vectors left out
  (``None``): no caller renders one, so no blob is decoded; the finds
  by name read them too where a single-record read renders none
  (``vectors=False``);
* ``insert_pes`` / ``insert_workflows`` — batched bulk load.

Both record kinds are stored under one set of rules, so each record
operation — insert, update, delete, get, get-many, find by name, all,
owned, owned ids, text top-k — is one body driven by the kind's storage
row (:data:`_STORAGE`): record and owner tables, the memory document
and FTS tables, the columns with a codec each.  The id, name, vector
and text-matched fields and the not-found label come from
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

Do the JSON columns earn their place?  Measured at schema v11, on 1 KB
pages and on a 4 KB file, by building a record's ``owners`` /
``pe_ids`` from the join tables at hydration instead (one correlated
subquery a column in the hydrating statement, the columns written as
``'[]'``): ``test_read_cost.py``'s ``READ_COST`` stayed statement for
statement and row for row what it was then (semantic 5/6, text 5/6,
hybrid 9/60, code 3/3), ``test_write_cost.py``'s frames stayed 9/5/10/16
(PUT/revise/DELETE/bulk of 16, 1 KB pages) and 9/5/8/9 (4 KB) — a
record row spans pages whether or not it holds a few bytes of JSON —
and ``get_pes`` of 60 ids took ~10 % longer (~480 -> ~540 us on a
2-CPU Linux host).  ``workflow_pes`` is a set ordered by ``pe_id``;
``pe_ids`` is the list as registered.  No frame was saved, so the
columns stay; dropping them would need its own schema step.  Both tests
pin other figures at schema v17, where a new file has 512-byte pages;
the measurement has not been repeated there.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
from contextlib import contextmanager
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import NotFoundError, RegistryError
from repro.registry.entities import (
    RECORD_KINDS,
    SHARD_KINDS,
    PERecord,
    UserRecord,
    WorkflowRecord,
)
from repro.registry.textcodec import decode_texts, encode_texts
from repro.registry.veccodec import (
    decode_many,
    decode_vector,
    encode_vector,
    restate,
)

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


def _embed_bytes(vec) -> bytes | None:
    """Canonical float32 bytes of an embedding (``None`` stays None) —
    the byte-change test that decides whether a revise touches a
    shard of the live index."""
    if vec is None:
        return None
    return np.asarray(vec, dtype=np.float32).tobytes()


#: the registry-wide counters are rows of ``shard_stamps`` under this
#: user id, which no user has (user ids start at 1): the mutation
#: counter under :data:`_MUTATIONS`, and under each record table's name
#: the highest id it has issued.  Every record write rewrites the
#: counter.  The table's other rows are per-shard stamps an older
#: checkout wrote; nothing reads or writes them now
_REGISTRY_USER = 0
_MUTATIONS = "mutations"

_SCHEMA = """
CREATE TABLE users (
    user_id INTEGER PRIMARY KEY AUTOINCREMENT,
    user_name TEXT UNIQUE NOT NULL,
    password_hash TEXT NOT NULL
);
-- the record tables number their own ids (SqliteDAO._issue_ids, no
-- AUTOINCREMENT) and hold each code and source as TEXT or as a
-- deflated BLOB (repro.registry.textcodec, since v14).  The owner
-- tables (normalized ownership, which owner-scoped reads filter by in
-- SQL; the record rows' JSON columns hold the same facts, and the
-- module docstring says why both stay) are keyed by user, the order
-- every such read filters in, so no second index is kept beside them
CREATE TABLE pes (
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
CREATE TABLE workflows (
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
CREATE TABLE pe_owners (
    user_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (user_id, pe_id)
) WITHOUT ROWID;
CREATE TABLE workflow_owners (
    user_id INTEGER NOT NULL,
    workflow_id INTEGER NOT NULL,
    PRIMARY KEY (user_id, workflow_id)
) WITHOUT ROWID;
CREATE INDEX idx_pes_name ON pes(pe_name);
CREATE INDEX idx_wf_entry ON workflows(entry_point);
CREATE TABLE workflow_pes (
    workflow_id INTEGER NOT NULL,
    pe_id INTEGER NOT NULL,
    PRIMARY KEY (workflow_id, pe_id)
) WITHOUT ROWID;
CREATE INDEX idx_workflow_pes_pe ON workflow_pes(pe_id, workflow_id);
-- idempotency receipts for the v1 write surface (replaying a stored
-- (user, key) returns the recorded response verbatim; a fingerprint
-- mismatch is a 409).  A receipt commits in its write's transaction
-- (SqliteDAO.write): a write and its receipt land or vanish together.
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
-- the registry-wide counters, as rows of user 0 (_REGISTRY_USER).  A
-- file an older checkout wrote also holds per-(user, kind) stamps,
-- which nothing reads
CREATE TABLE shard_stamps (
    user_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_counter INTEGER NOT NULL,
    PRIMARY KEY (user_id, kind)
) WITHOUT ROWID;
INSERT INTO shard_stamps (user_id, kind, mutation_counter)
VALUES (0, 'mutations', 0), (0, 'pes', 0), (0, 'workflows', 0);
"""

#: the attached in-memory database that holds the text index
_TEXT_DB = "text_index"

#: the text index, the only home of the FTS documents: per record kind
#: a table of each record's normalized ``(name_norm, desc_doc)``
#: documents (:meth:`_Storage.documents`; ``name_norm`` doubles as the
#: whole-query substring arm) and a contentless FTS5 table over them, in
#: a database attached as ':memory:'.  The documents are a pure function
#: of the record row, so the file keeps none (v15): the first text
#: ranking derives them from the records
#: (:meth:`SqliteDAO._fill_text_index`), and the record writes keep them
#: in step inside their own transaction (:meth:`SqliteDAO._index_text`,
#: :meth:`SqliteDAO._unindex_text`), so a rollback undoes both.  A write
#: logs no page of either.  BM25 depends only on which documents are
#: indexed, not on how segments are laid out, so the scores are an
#: on-disk index's.  A contentful FTS5 table would hold the documents
#: itself, but the ranking joins every owned record's ``name_norm``, and
#: an FTS5 rowid lookup per record ranked ~1.8x slower than this plain
#: table (22 against 12 ms at 7 000 records, 2-CPU Linux host).
#: unicode61 with remove_diacritics 0 so documents match the
#: Python-lowercased text byte-for-byte (queries are pure-ASCII scorer
#: words).
_TEXT_INDEX_SCHEMA = f"""
CREATE TABLE {_TEXT_DB}.pe_docs (
    pe_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE TABLE {_TEXT_DB}.wf_docs (
    workflow_id INTEGER PRIMARY KEY,
    name_norm TEXT NOT NULL,
    desc_doc TEXT NOT NULL
);
CREATE VIRTUAL TABLE {_TEXT_DB}.pe_fts USING fts5(
    name_norm, desc_doc, content='',
    tokenize='unicode61 remove_diacritics 0'
);
CREATE VIRTUAL TABLE {_TEXT_DB}.wf_fts USING fts5(
    name_norm, desc_doc, content='',
    tokenize='unicode61 remove_diacritics 0'
);
"""

#: the on-disk format (``PRAGMA user_version``) :data:`_SCHEMA` creates.
#: A v16 file takes one step to it (:meth:`SqliteDAO._step_from_v16`),
#: a v15 file :meth:`SqliteDAO._step_from_v15` first; any other version
#: is refused.  v17
#: stores every vector in one bit-packed layout
#: (:mod:`repro.registry.veccodec`, tag 3), which older code cannot
#: decode, and this code reads no other headed layout: the step
#: re-encodes every stored blob.  v16 dropped the vector index's
#: persistence plane — the ``index_shards`` base slabs, the
#: ``index_deltas`` journal and ``shard_stamps.tip`` — which restated
#: the membership the owner tables hold: attach fills every shard from
#: the record rows, so a write logs no journal page.  v15 dropped the
#: ``pe_text``/``wf_text``
#: document tables: the documents live only in memory, derived from the
#: record rows (:data:`_TEXT_INDEX_SCHEMA`), so a write logs no page of
#: a text table.  v14 began storing a record's code and source deflated
#: (:mod:`repro.registry.textcodec`), blobs that older code would hand
#: back as ``bytes``.  v13 keyed the owner tables by user, moved the
#: mutation counter and the id high-water marks into ``shard_stamps``
#: (:data:`_REGISTRY_USER`) and dropped ``registry_meta`` and the record
#: tables' AUTOINCREMENT, so a write logs no page of an owner index, of
#: ``registry_meta`` or of ``sqlite_sequence``; v12 added the
#: value-table vector layout (tag 2), which v17 retired; v11 moved the
#: FTS5 index into memory, so a write logs no FTS5 page.  Vector blobs
#: may still be dense float32 where packing is not smaller, and code
#: and source plain TEXT (v13 wrote them so): every layout decodes
#: through the same codecs, and a row re-encodes when its record is next
#: written.
_SCHEMA_VERSION = 17

#: the oldest on-disk format this code steps up to :data:`_SCHEMA_VERSION`
_OLDEST_VERSION = 15

#: SQLite caps host parameters per statement (999 before 3.32); chunk
#: IN(...) lists well below that
_IN_CHUNK = 500


def _blob(vec: np.ndarray | None) -> bytes | None:
    return None if vec is None else encode_vector(vec)


def _unblob(raw: bytes | None) -> np.ndarray | None:
    """One record's vector; a corrupt blob raises ``ValueError``."""
    return None if raw is None else decode_vector(raw)


def _restated(raw: bytes | None) -> bytes | None:
    """The blob this code writes for the vector ``raw`` holds, in any
    layout a v16 file may hold; a blob that does not decode stays as
    it is."""
    if raw is None:
        return None
    try:
        return restate(raw)
    except ValueError:
        return raw


def _chunked(values: Sequence) -> Iterable[Sequence]:
    for start in range(0, len(values), _IN_CHUNK):
        yield values[start : start + _IN_CHUNK]


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
    #: the memory tables of the record's FTS documents and the FTS5
    #: index over them (:data:`_TEXT_INDEX_SCHEMA`)
    docs: str
    fts: str
    #: the record table's columns between the id and ``revision``, in
    #: table order, each named as its record attribute
    columns: tuple[tuple[str, _Codec], ...]
    #: the (code, source) pair among them, stored through
    #: :mod:`repro.registry.textcodec`: the source deflated against
    #: the code, so each is ``_PLAIN`` in :attr:`columns`
    texts: tuple[str, str]
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
        # the record fields the FTS documents are built from, in
        # ``fts_document``'s argument order (each a column of the
        # table): an update that changes none of them leaves the
        # documents alone
        self.sources = (*kind.text_names, "description")
        self.column_names = tuple(column for column, _ in self.columns)
        self.column_list = ", ".join(self.column_names)
        self.vector_columns = [
            column for column, codec in self.columns if codec is _VECTOR
        ]
        # a whole row but its vectors, which read as NULL: all a
        # response renders (:meth:`SqliteDAO._get_many`, ``_find``)
        self.without_vectors = ", ".join(
            [self.id]
            + [
                f"NULL AS {column}" if column in self.vector_columns
                else column
                for column in self.column_names
            ]
            + ["revision"]
        )
        # one mark for the id and each column
        self.marks = ", ".join("?" * (1 + len(self.columns)))
        # the committed row as a mutation reads it: what decides
        # whether the name, the text, the links or the owner rows are
        # rewritten
        kept = {self.name, *self.sources, self.links}
        self.old_columns = ", ".join(
            [c for c in self.column_names if c in kept] + ["owners"]
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
        self._text_fields = [fields.index(name) for name in self.texts]
        self._text_columns = [
            self.column_names.index(name) for name in self.texts
        ]

    def record(self, row: sqlite3.Row) -> PERecord | WorkflowRecord:
        values = list(self._row_values(row))
        for at, decode in self._decoders:
            values[at] = decode(values[at])
        code, source = self._text_fields
        values[code], values[source] = decode_texts(
            values[code], values[source]
        )
        return self.record_type(*values)

    def params(self, record: PERecord | WorkflowRecord) -> tuple:
        """The record's column values as stored, in :attr:`columns`
        order."""
        values = [
            getattr(record, column) if codec is None
            else codec[0](getattr(record, column))
            for column, codec in self.columns
        ]
        code, source = self._text_columns
        values[code], values[source] = encode_texts(
            values[code], values[source]
        )
        return tuple(values)

    def documents(self, record: PERecord | WorkflowRecord) -> tuple[str, str]:
        """The record's ``(name_norm, desc_doc)`` FTS documents."""
        return _text_documents().fts_document(*self._document_fields(record))


_PES = _Storage(
    PERecord, "pes", "pe_owners", "pe_docs", "pe_fts",
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
    texts=("pe_code", "pe_source"),
    hydrate="_pe_from_row",
    unlink="_unlink_pe",
)
_WORKFLOWS = _Storage(
    WorkflowRecord, "workflows", "workflow_owners", "wf_docs", "wf_fts",
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
    texts=("workflow_code", "workflow_source"),
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
    one this code steps up and a current one are."""
    if version > _SCHEMA_VERSION:
        advice = "it was written by newer code; open it with that code"
    else:
        advice = (
            "open it once with an older checkout of this repository, one"
            " that still steps such files up, to migrate it"
        )
    return RegistryError(
        f"registry file {path} is at schema v{version}; this code opens"
        f" v{_OLDEST_VERSION} to v{_SCHEMA_VERSION} files only — "
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
    transaction and stamped :data:`_SCHEMA_VERSION`; a v16 file takes
    :meth:`_step_from_v16`, a v15 file :meth:`_step_from_v15` first, each
    in its own transaction; a current file runs no DDL on ``main``.  Any
    other version raises :class:`~repro.errors.RegistryError`
    naming it, and the file is left as it was.  Opening fills no text
    index: the first text ranking does (:meth:`_text_topk`), except on a
    new store, whose empty index is complete as created.
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
        if not new and not _OLDEST_VERSION <= version <= _SCHEMA_VERSION:
            self._conn.close()
            raise _refusal(path, version)
        # a WAL commit logs whole pages, and most pages a write touches
        # (the name index, the owner rows, the counters in
        # ``shard_stamps``, the header page) change by tens of bytes:
        # 512-byte pages log each of them at half the bytes of 1 KB
        # ones; a benchmark PE row (bit-packed vectors, deflated code
        # and source: ~615 bytes on the mixed_rw corpus at schema v17,
        # ~760 at v16) takes a leaf and one overflow page instead of
        # one 1 KB leaf, ~120 of its bytes on the leaf (~260 at v16,
        # so three rows share a leaf where one did), and a
        # description-only revise frees and reallocates that overflow
        # page (5 frames, 2.5 KB, against 2 of 1 KB).  Measured at
        # schema v16 on the e2e runs (seed 1, 2-CPU Linux host), 1 KB
        # -> 512-byte pages: io_write_mb 12 607 928 -> 9 522 240 bytes
        # on mixed_rw, 1 566 192 -> 997 440 on read_static, ~22.1 ->
        # ~19.1 MB on ingest_live; registry.dao.io_read_mb 8.9 -> 10.0
        # MB on mixed_rw and 19.6 -> 23.9 on read_static (page-cache
        # reads; no search or fetch p50 moved beyond noise); db_mb
        # 4.33 -> 3.66 and 2.91 -> 2.29 (fuller pages); setup_s flat
        # over ten alternating pairs a workload, restart_s within the
        # parent's own spread (medians +5 %, -12 %, +7 % on mixed_rw,
        # read_static, ingest_live).  (At schema v14 the same switch grew
        # read_static's DAO reads 7x, 55.9 -> 392.6 MB, and was not
        # taken.)  4 KB pages log four times the bytes of 1 KB ones for
        # the same touch.  Takes effect on a file without pages only;
        # an existing file keeps its own
        self._conn.execute("PRAGMA page_size=512")
        # WAL lets readers proceed during writes; NORMAL fsyncs once per
        # checkpoint instead of per transaction (both no-ops for
        # :memory: databases)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        # the file's ``data_version`` the text index was last filled at:
        # none yet, so the first text ranking fills it — but a new
        # store's empty index is complete as created
        self._text_version: int | None = None
        # how many times this connection's writes changed the text
        # index: a fill whose documents were derived outside the lock
        # swaps them in only if none has since (:meth:`_fill_text_index`)
        self._text_writes = 0
        # the open write scope's after-commit actions; None outside one
        # (:meth:`write`)
        self._after_commit: list[Callable[[], None]] | None = None
        if new:
            # one transaction: a crash leaves an empty file, not a
            # half-made one that the next open refuses.  Two connections
            # creating one file at the same moment are not supported:
            # the later one's first CREATE TABLE fails
            self._text_version = self._stamped(_SCHEMA)
        elif version < _SCHEMA_VERSION:
            try:
                if version == 15:
                    self._step_from_v15()
                self._step_from_v16()
            except sqlite3.Error:
                # closing rolls the failed step back: the file stays at
                # the version the step before it stamped
                self._conn.close()
                raise
        # the text index, kept in step by this connection's record
        # writes and filled by a text ranking that finds it behind the
        # file (:meth:`_text_topk`).  ATTACH cannot run inside a
        # transaction
        self._conn.execute(f"ATTACH DATABASE ':memory:' AS {_TEXT_DB}")
        self._conn.executescript(_TEXT_INDEX_SCHEMA)

    def _stamped(self, script: str) -> int:
        """Run ``script`` and stamp the file :data:`_SCHEMA_VERSION`, in
        one transaction; return the file's ``data_version`` read inside
        it, which only another connection's later commit moves."""
        self._conn.executescript(
            f"BEGIN;{script}PRAGMA user_version = {_SCHEMA_VERSION};"
        )
        try:
            return self.data_version()
        finally:
            self._conn.execute("COMMIT")

    def _step_from_v15(self) -> None:
        """v15 -> v16: drop the base slabs, the journal and each stamp's
        chain tip, and stamp, in one transaction.  They restated which
        records each shard holds, which the owner tables and record rows
        say on their own (attach scans them); the stamp keeps a v15
        checkout, which would read the missing tables, from opening the
        file."""
        self._conn.executescript(
            "BEGIN;DROP TABLE index_shards;DROP TABLE index_deltas;"
            "ALTER TABLE shard_stamps DROP COLUMN tip;"
            "PRAGMA user_version = 16;COMMIT;"
        )

    def _step_from_v16(self) -> None:
        """v16 -> v17: re-encode every stored vector blob — dense,
        sparse (tag 1) or value table (tag 2) — as :func:`encode_vector`
        writes it now, and stamp, in one transaction.  Each vector reads
        back bit for bit as before.  Only rows whose blob changes are
        written, and the mutation counter moves if any is: the rows'
        bytes changed, if no record did.  A blob that does not decode
        is left as it is: reading its record raises ``ValueError``, as
        it did before the step."""
        with self._conn:
            self._conn.execute("BEGIN")
            rewritten = False
            for store in _STORAGE.values():
                columns = store.vector_columns
                restated = []
                for record_id, *blobs in self._conn.execute(
                    f"SELECT {store.id}, {', '.join(columns)}"
                    f" FROM {store.table}"
                ).fetchall():
                    new = [_restated(blob) for blob in blobs]
                    if new != blobs:
                        restated.append((*new, record_id))
                assignments = ", ".join(f"{column} = ?" for column in columns)
                self._conn.executemany(
                    f"UPDATE {store.table} SET {assignments}"
                    f" WHERE {store.id} = ?",
                    restated,
                )
                rewritten = rewritten or bool(restated)
            if rewritten:
                self._bump_mutation()
            self._conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")

    def _text_rows(self) -> tuple[int, list[tuple[_Storage, list]]]:
        """Every record's id and :attr:`_Storage.sources` fields, per
        record kind, and the file's ``data_version`` they were read at:
        one snapshot, inside the caller's transaction."""
        rows = [
            (store, self._conn.execute(
                f"SELECT {store.id}, {', '.join(store.sources)}"
                f" FROM main.{store.table}"
            ).fetchall())
            for store in _STORAGE.values()
        ]
        return self.data_version(), rows

    @staticmethod
    def _derived_documents(
        rows: list[tuple[_Storage, list]]
    ) -> list[tuple[_Storage, list[tuple[int, str, str]]]]:
        """Each record's ``(id, name_norm, desc_doc)`` documents, built
        from its :meth:`_text_rows` row by ``text_search.fts_document``."""
        build = _text_documents().fts_document
        documents = []
        for store, kind_rows in rows:
            documents.append(
                (store, [(row[0], *build(*row[1:])) for row in kind_rows])
            )
        return documents

    def _fill_text_index(
        self,
        version: int,
        writes: int,
        documents: list[tuple[_Storage, list[tuple[int, str, str]]]],
    ) -> None:
        """Empty the memory text index and index ``documents``, derived
        from the record rows of the file at ``data_version`` ``version``
        while :attr:`_text_writes` was ``writes``; then note the version.

        Begins a transaction the caller ends (``with self._conn``,
        holding the lock).  An index another ranking filled at the
        file's current version meanwhile is left as it is.  If the file
        or this connection's text index moved since those rows were read,
        the documents are derived again here, from rows read inside this
        transaction: the version and the rows come from one snapshot of
        the file, so a commit landing meanwhile leaves the index at the
        version it records, never ahead of or behind it.
        """
        self._conn.execute("BEGIN")
        current = self.data_version()
        if current == self._text_version:
            return
        if (current, self._text_writes) != (version, writes):
            version, rows = self._text_rows()
            documents = self._derived_documents(rows)
        for store, store_documents in documents:
            self._conn.execute(f"DELETE FROM {store.docs}")
            self._conn.execute(
                f"INSERT INTO {store.fts}({store.fts}) VALUES('delete-all')"
            )
            self._index_text(store, store_documents)
        self._text_version = version

    def close(self) -> None:
        self._conn.close()

    # -- the write scope ----------------------------------------------------
    @contextmanager
    def write(self):
        """One registry write: all of it commits, or none of it does.

        Holds the DAO lock and opens ``BEGIN IMMEDIATE``, which takes
        SQLite's write lock before the first read: what the scope reads
        (a receipt, an ``ifVersion`` revision, a dedup lookup) is what it
        writes against, across processes too.  A deferred ``BEGIN``
        could not upgrade to a write after a read once another
        connection had committed.  Another connection's scope waits on
        that lock for the connection's busy timeout.  Every DAO write
        made inside the scope joins it, and so does a scope opened
        inside it; the outermost one commits or rolls back, once.  The
        actions :meth:`after_commit` queued run after the commit, still
        under the lock so they apply in commit order, and are dropped on
        a rollback.

        The durability contract: one write is one commit.  Under
        ``synchronous=NORMAL`` a committed write survives a process
        crash and may be lost on power loss, whole, with its receipt.
        """
        with self._lock:
            if self._after_commit is not None:
                yield
                return
            self._conn.execute("BEGIN IMMEDIATE")
            self._after_commit = actions = []
            try:
                yield
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            finally:
                self._after_commit = None
            for action in actions:
                action()

    def after_commit(self, action: Callable[[], None]) -> None:
        """Queue ``action`` on the open write scope (:meth:`write`, held
        by the caller): it runs once the scope commits, never if the
        scope rolls back."""
        self._after_commit.append(action)

    def _bump_mutation(self) -> None:
        """Advance the registry mutation counter, inside the caller's
        transaction.  The counter is the ``shard_stamps`` row ``(0,
        'mutations')`` (:data:`_REGISTRY_USER`)."""
        self._advance(_MUTATIONS, 1)

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

    def append_index_delta(self, *_args) -> None:
        """No-op: schema v16 keeps no index journal.  Kept only because
        the e2e tracer names it; ROADMAP items 0a/17 delete it."""

    def _old_state(self, store: _Storage, record_id: int) -> sqlite3.Row:
        """The committed row of a record, as far as a mutation needs it
        (:attr:`_Storage.old_columns`): which owner rows it moves and
        which derived rows an update can leave alone (name, text,
        links).  ``NotFoundError`` when there is none."""
        row = self._conn.execute(
            f"SELECT {store.old_columns} FROM {store.table}"
            f" WHERE {store.id}=?",
            (int(record_id),),
        ).fetchone()
        if row is None:
            kind = RECORD_KINDS[store.record_type]
            raise NotFoundError(
                f"{kind.label} id {record_id} not found",
                params={kind.id_param: record_id},
            )
        return row

    @staticmethod
    def _old_owners(row: sqlite3.Row) -> set[int]:
        return {int(uid) for uid in json.loads(row["owners"])}

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

    # -- the memory text index, inside the caller's write ----------------
    def _index_text(
        self, store: _Storage, documents: Sequence[tuple[int, str, str]]
    ) -> None:
        """Index records' ``(id, name_norm, desc_doc)`` documents: a
        row of the document table and a row of the FTS5 index each."""
        self._text_writes += 1
        self._conn.executemany(
            f"INSERT INTO {store.docs} ({store.id}, name_norm, desc_doc)"
            " VALUES (?, ?, ?)",
            documents,
        )
        self._conn.executemany(
            f"INSERT INTO {store.fts} (rowid, name_norm, desc_doc)"
            " VALUES (?, ?, ?)",
            documents,
        )

    def _unindex_text(self, store: _Storage, record_id: int) -> None:
        """Take a record's documents out of the index.  A contentless
        FTS5 table deletes a row only when told the documents it
        indexed, which the document table holds; a record it does not
        hold (not written since an unfilled index's open) is left
        alone."""
        self._text_writes += 1
        self._conn.execute(
            f"INSERT INTO {store.fts}({store.fts}, rowid, name_norm,"
            f" desc_doc) SELECT 'delete', {store.id}, name_norm, desc_doc"
            f" FROM {store.docs} WHERE {store.id}=?",
            (record_id,),
        )
        self._conn.execute(
            f"DELETE FROM {store.docs} WHERE {store.id}=?", (record_id,)
        )

    # -- users ------------------------------------------------------------
    def insert_user(self, name: str, password_hash: str) -> UserRecord:
        with self.write():
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
    # documents before entering the write scope: neither needs the id,
    # and a scope they open would run them under an open write
    # transaction that every other DAO call waits behind.
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
        with self.write():
            self._bump_mutation()
            first = self._issue_ids(store.table, len(records))
            for record_id, record in enumerate(records, start=first):
                setattr(record, store.id, record_id)
                record.revision = 1
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
            self._index_text(
                store, [(at, *t) for at, t in enumerate(texts, start=first)]
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
        with self.write():
            # read first: a missing record raises before anything is
            # written, so a scope that goes on writes nothing of it
            old = self._old_state(store, record_id)
            self._bump_mutation()
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
            self._sync_owners(
                store, record_id, self._old_owners(old), record.owners
            )
            self._hook(store.relink, record, old)
            if any(old[f] != getattr(record, f) for f in store.sources):
                self._unindex_text(store, record_id)
                self._index_text(store, [(record_id, *text)])

    def _delete(self, store: _Storage, record_id: int) -> None:
        with self.write():
            old = self._old_state(store, record_id)
            self._bump_mutation()
            self._conn.execute(
                f"DELETE FROM {store.table} WHERE {store.id}=?", (record_id,)
            )
            self._sync_owners(store, record_id, self._old_owners(old), ())
            self._hook(store.unlink, record_id)
            self._unindex_text(store, record_id)

    def _get_many(self, store: _Storage, record_ids: Sequence[int]) -> list:
        """Batched fetch, in the order of ``record_ids``; missing ids
        skipped.  The records' vector fields are ``None``: every caller
        renders records, none a vector, so no blob is read or
        decoded."""
        ids = [int(record_id) for record_id in record_ids]
        hydrate = getattr(self, store.hydrate)
        by_id = {}
        with self._lock:
            for chunk in _chunked(ids):
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT {store.without_vectors} FROM {store.table}"
                    f" WHERE {store.id} IN ({placeholders})",
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

    def _find(
        self, store: _Storage, names: Sequence[str], vectors: bool = True
    ) -> list:
        """Every record bound to one of ``names``, by id within a name;
        without ``vectors``, their vector fields ``None``."""
        distinct = list(dict.fromkeys(names))
        listed = "*" if vectors else store.without_vectors
        records = []
        for chunk in _chunked(distinct):
            records += self._select(
                store,
                f"SELECT {listed} FROM {store.table} WHERE {store.name}"
                f" IN ({','.join('?' * len(chunk))}) ORDER BY {store.id}",
                tuple(chunk),
            )
        return records

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
        index inside their own transactions, so a version other than the
        one of the last fill — or no fill yet, the first ranking after
        open — means the index may be behind: fill it, then rank again
        inside the fill's snapshot.  The lock is held to read the rows
        and to swap their documents in (:meth:`_fill_text_index`), not
        while they are derived, so the connection's other calls wait
        only for the SQL part of a fill.
        """
        needle = query.lower().strip()
        if not needle:
            return []
        terms = _text_documents().match_terms(query)
        fts, side, owners, id_col = store.fts, store.docs, store.owners, store.id
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
            stale = rows[0]["version"] != self._text_version
            if stale:
                with self._conn:
                    self._conn.execute("BEGIN")
                    version, sources = self._text_rows()
                writes = self._text_writes
        if stale:
            # derived without the lock: the bulk of a fill
            documents = self._derived_documents(sources)
            with self._lock, self._conn:
                self._fill_text_index(version, writes, documents)
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

    def find_pe_by_name(
        self, name: str, vectors: bool = True
    ) -> list[PERecord]:
        return self._find(_PES, (name,), vectors)

    def find_pes_by_names(self, names: Sequence[str]) -> list[PERecord]:
        return self._find(_PES, names)

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

    def find_workflow_by_entry_point(
        self, entry_point: str, vectors: bool = True
    ) -> list[WorkflowRecord]:
        return self._find(_WORKFLOWS, (entry_point,), vectors)

    def find_workflows_by_entry_points(self, names: Sequence[str]) -> list[WorkflowRecord]:
        return self._find(_WORKFLOWS, names)

    def workflows_owned_by(self, user_id: int) -> list[WorkflowRecord]:
        return self._owned(_WORKFLOWS, user_id)

    def workflow_ids_owned_by(self, user_id: int) -> list[int]:
        return self._owned_ids(_WORKFLOWS, user_id)

    def text_topk_workflows(
        self, user_id: int, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        return self._text_topk(_WORKFLOWS, user_id, query, k)

    # -- the counter, the file's version and the vector scan -------------
    def mutation_counter(self) -> int:
        """Monotonic counter bumped inside every PE/workflow write
        transaction (the ``registryVersion`` a write reply carries)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT mutation_counter FROM shard_stamps"
                " WHERE user_id = ? AND kind = ?",
                (_REGISTRY_USER, _MUTATIONS),
            ).fetchone()
        return 0 if row is None else int(row["mutation_counter"])

    def data_version(self) -> int:
        """The file's ``PRAGMA data_version``: it moves when, and only
        when, another connection commits, so an in-memory copy of the
        rows read at one value is current while the value holds and this
        connection's own writes reach it.  One statement."""
        with self._lock:
            return self._conn.execute("PRAGMA main.data_version").fetchone()[0]

    def upsert_index_shards(self, *_args) -> None:
        """No-op: schema v16 keeps no base slab.  Kept only because the
        e2e tracer names it; ROADMAP items 0a/17 delete it."""

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
        One :meth:`_scan_owned` per record table the kinds live in.
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

    @contextmanager
    def read_snapshot(self):
        """Reads made inside this context see one state of the store:
        no write of this or of another process lands between them
        (attach scans every user's records inside one, so the index it
        fills is the registry as of one commit).  Holds the DAO's lock;
        write nothing inside.
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

    # -- idempotency receipts ---------------------------------------------
    def get_write_receipt(
        self, user_id: int, key: str
    ) -> tuple[str, int, dict] | None:
        """The stored ``(fingerprint, status, body)`` for an idempotency
        key, or ``None``.

        A row with a negative status reads as none: older checkouts
        claimed a key by committing a row of status -1 before the write
        and replaced it after, so one left over marks a process that
        died in between, and the next write under its key replaces it
        (:meth:`save_write_receipt`).  No schema step clears them.  An
        older process still running holds live -1 claims too, which this
        code would write beside: stop every process on a file before a
        newer checkout opens it.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT fingerprint, status, body FROM write_receipts"
                " WHERE user_id=? AND idem_key=? AND status >= 0",
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
        """Record one write's response under ``(user_id, key)``, inside
        the write's scope when one is open (:meth:`write`).

        Receipts are *not* registry mutations: no ``_bump_mutation()``,
        so a replayed write leaves the counter and every shard stamp
        untouched — the observable no-op guarantee.
        """
        with self.write():
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

-- The DDL of registry schema v15, as SqliteDAO created a new file at
-- that version (the counter rows included; the DAO then stamped
-- PRAGMA user_version = 15).  tests/registry/test_step_from_v15.py
-- builds a v15 file from it to check the v15 -> v16 step.
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

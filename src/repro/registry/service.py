"""Registry service layer — business rules over the DAO (paper §3.1).

Implements the ownership semantics the paper describes:

* registering a PE/workflow that already exists (same identity) adds the
  caller as an additional *owner* rather than duplicating the entry;
* users only see and manage entities they own (privacy rule);
* removing dissociates the caller; the entity itself is deleted once no
  owners remain;
* the PE<->workflow association is two-way many-to-many, so "all PEs of a
  workflow" is a single lookup (the querying benefit called out in §3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    AuthenticationError,
    DuplicateError,
    NotFoundError,
    ValidationError,
)
from repro.registry.dao import SqliteDAO, _embed_bytes
from repro.registry.entities import (
    RECORD_KINDS,
    SHARD_KINDS,
    PERecord,
    UserRecord,
    WorkflowRecord,
    hash_password,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.index import VectorIndex

#: a shard's journal is folded into its base slab once the rows
#: journaled since the last fold reach ``max(_FOLD_FLOOR, base rows)``:
#: a fold then rewrites at most twice what the journal it retires added
#: (amortised O(delta) per write), and the chain a restart replays never
#: outgrows the base it is replayed onto.  The floor keeps a small shard
#: from folding on every write.  Rows, not bytes: replay costs one
#: last-writer-wins slot per journaled id whatever its encoded size.
_FOLD_FLOOR = 64

Record = PERecord | WorkflowRecord

#: each record kind's DAO methods, by name: looked up on the DAO when
#: called, so a wrapper installed on ``SqliteDAO`` after import is the
#: one entered.  Each is a one-line entry into the DAO's one body for
#: that operation (``SqliteDAO._insert_many``, ``_update``, ...)
_DAO_METHODS = {
    PERecord: {
        "find": "find_pe_by_name",
        "insert": "insert_pe",
        "insert_many": "insert_pes",
        "update": "update_pe",
        "delete": "delete_pe",
    },
    WorkflowRecord: {
        "find": "find_workflow_by_entry_point",
        "insert": "insert_workflow",
        "insert_many": "insert_workflows",
        "update": "update_workflow",
        "delete": "delete_workflow",
    },
}


class RegistryService:
    """All registry business logic over one :class:`SqliteDAO`.

    When constructed with a :class:`~repro.search.index.VectorIndex`,
    the service keeps the per-owner search shards synchronized with every
    PE/workflow mutation: registration adds the stored embeddings under
    each owner's shard, removal drops them, and a pre-populated DAO
    (e.g. a reopened SQLite registry) is bulk-loaded at attach time.
    """

    def __init__(
        self, dao: SqliteDAO, index: "VectorIndex | None" = None
    ) -> None:
        self.dao = dao
        self.index = None
        #: the DAO mutation counter the in-memory index is known to
        #: reflect; persist_shards stamps snapshots with this, never
        #: with a re-read (a foreign process's write between index
        #: sync and stamping would otherwise mark a stale snapshot
        #: fresh).  Lost-update races on the += only under-count,
        #: which skips a persist — the safe direction.
        self._index_counter = 0
        #: write base slabs and fold chains (attach_index's ``persist``
        #: flag).  Journaling is not this service's to switch: the DAO
        #: appends each mutation's ids-only journal row inside the
        #: mutation's own transaction, whoever the writer is
        self._persist = False
        #: per-shard ``[base rows, rows journaled since the last fold]``
        #: — what the fold rule reads.  Seeded from the DAO at attach,
        #: bumped where a journaled write is mirrored into the live
        #: index, reset by every base upsert this service issues.  A
        #: foreign process's rows are not counted, which is harmless: a
        #: fold is refused anyway while the mutation counters disagree.
        self._chains: dict[tuple[int, str], list[int]] = {}
        #: folds this service performed, for ``repro stats --shards``
        self._compactions = 0
        #: shards the last attach had to discard (corrupt/torn rows)
        self._attach_discarded = 0
        if index is not None:
            self.attach_index(index)

    # ------------------------------------------------------------------
    # Search-index maintenance
    # ------------------------------------------------------------------
    def attach_index(
        self, index: "VectorIndex", *, persist: bool = True
    ) -> str:
        """Adopt ``index`` and populate it; returns ``"fresh"``,
        ``"partial"`` or ``"rebuilt"``.

        Cold start, per shard: every persisted base slab (the shard's
        ids at its last fold) is replayed through its delta journal
        chain and filled from the record rows — one ordered scan and one
        batch decode per (user, record table), no record is hydrated —
        and a shard whose replayed chain tip equals its expected
        mutation stamp
        (:meth:`~repro.registry.dao.SqliteDAO.shard_stamps`) loads
        straight into the index.  Only shards that are stale (a write
        this journal never saw — e.g. a foreign process's), torn or
        corrupt are rebuilt, each from its *own* owner's rows
        (:meth:`~repro.registry.dao.SqliteDAO.owned_vectors`, the
        same scan), and (with ``persist``) upserted back so the next
        cold start finds them covered.  One tenant's write therefore
        never invalidates anyone else's slab.

        Stamps, slabs, journal and rows are read inside one
        :meth:`~repro.registry.dao.SqliteDAO.read_snapshot`, so what
        is loaded is the registry as of one mutation counter even
        while another process writes.

        A registry with no per-shard stamps at all (one that no
        embedded record has been written to) falls back to the full
        O(corpus) rebuild.

        ``persist`` also arms chain folding (see :meth:`_journaled`);
        without it this service writes no base slab and folds nothing —
        the DAO journals every write regardless.
        """
        self.index = index
        self._persist = persist
        rebuilt: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
        with self.dao.read_snapshot():
            counter = self.dao.mutation_counter()
            stamps = self.dao.shard_stamps()
            loaded, discarded = self.dao.load_index_shards()
            chains = self.dao.shard_chain_meta()
            fresh = {
                key
                for key, (_ids, _matrix, tip) in loaded.items()
                if stamps.get(key) == tip
            }
            stale = (set(stamps) | set(loaded)) - fresh
            # without stamps nothing loaded can be trusted or repaired
            # shard by shard: the wholesale rebuild below takes over
            stale_kinds: dict[int, list[str]] = {}
            for user_id, kind in sorted(stale) if stamps else ():
                if kind in SHARD_KINDS:
                    stale_kinds.setdefault(user_id, []).append(kind)
            for user_id, kinds in stale_kinds.items():
                for kind, shard in self.dao.owned_vectors(
                    user_id, kinds
                ).items():
                    rebuilt[(user_id, kind)] = shard
        self._index_counter = counter
        self._attach_discarded = discarded
        self._chains = {
            key: [chain["rows"], chain["chainRows"]]
            for key, chain in chains.items()
        }

        if not stamps:
            # no stamps (nothing embedded written yet): rebuild
            # wholesale — persisting re-seeds per-shard stamps
            self._rebuild_full(index)
            if persist:
                self._save_full_snapshot()
            return "rebuilt"

        for key in sorted(fresh):
            ids, matrix, _tip = loaded[key]
            if ids.shape[0]:
                index.add_many(key[0], key[1], ids, matrix)
        for (user_id, kind), (ids, matrix) in rebuilt.items():
            if ids.shape[0]:
                index.add_many(user_id, kind, ids, matrix)
        if rebuilt and persist:
            # stamped at the counter read above; upsert_index_shards
            # max-seeds stamps, so a racing foreign write (which stamps
            # higher) correctly leaves its shard stale
            self._upsert_shards(
                {key: ids for key, (ids, _matrix) in rebuilt.items()}, counter
            )
        if persist:
            index.consume_dirty()
        if not stale:
            return "fresh"
        return "partial" if fresh else "rebuilt"

    def _rebuild_full(self, index: "VectorIndex") -> None:
        """Legacy O(corpus) rebuild: one pass over every record."""
        shards: dict[tuple[int, str], tuple[list[int], list]] = {}
        for records in (self.dao.all_pes(), self.dao.all_workflows()):
            for record in records:
                for user_id in record.owners:
                    for kind in RECORD_KINDS[type(record)].shards:
                        spec = SHARD_KINDS[kind]
                        vector = getattr(record, spec.vector_field)
                        if vector is None:
                            continue
                        ids, vectors = shards.setdefault(
                            (user_id, kind), ([], [])
                        )
                        ids.append(getattr(record, spec.id_field))
                        vectors.append(vector)
        for (user_id, kind), (ids, vectors) in shards.items():
            index.add_many(user_id, kind, ids, vectors)

    def _note_write(self) -> None:
        """Record one DAO write performed *through this service* (the
        index was updated in the same call, so it still reflects the
        registry at the bumped counter)."""
        self._index_counter += 1

    def _journaled(
        self, key: tuple[int, str], rows: int, *, fold: bool = True
    ) -> None:
        """Account ``rows`` ids the DAO journaled on shard ``key`` and
        fold the chain once the rule (``_FOLD_FLOOR``) says it is due.

        The DAO writes a mutation's journal rows itself, in the
        mutation's transaction; what is left here is the fold, which
        lists the *live* index's ids — so every call sits right after
        the loop that applied that same mutation to it, never before.
        ``fold`` is off for a bulk caller that will issue one
        ``persist_shards()`` when it finishes (the ingest pipeline):
        every mid-stream fold rewrites the whole growing id list only
        for the final persist to do it again.
        """
        if not self._persist or self.index is None:
            return
        self._chains.setdefault(key, [0, 0])[1] += rows
        if fold and self._fold_due(key):
            self._compact_shard(key)

    def _fold_due(self, key: tuple[int, str]) -> bool:
        base_rows, journaled = self._chains.get(key, (0, 0))
        return journaled >= max(_FOLD_FLOOR, base_rows)

    def _upsert_shards(
        self, shards: dict[tuple[int, str], np.ndarray], stamp: int
    ) -> None:
        """Write base slabs (``{key: ids}``) at ``stamp`` (folding the
        chains below it) and restart those shards' fold accounting from
        the new bases."""
        self.dao.upsert_index_shards(shards, stamp)
        self._rebase_chains(shards)

    def _rebase_chains(self, shards) -> None:
        for key, ids in shards.items():
            self._chains[key] = [int(ids.shape[0]), 0]

    def _live_ids(self, keys) -> dict[tuple[int, str], np.ndarray]:
        """What a base slab stores: the ids the live index holds in each
        of ``keys`` (none for a shard that emptied out or never was, so
        its stamp stays satisfiable once persisted).  The vectors stay
        where they are — in the record rows."""
        return {
            key: np.asarray(self.index.ids(*key), dtype=np.int64)
            for key in keys
        }

    def _compact_shard(self, key: tuple[int, str]) -> bool:
        """Fold one shard's delta chain into its base slab.

        Guarded by the usual counter check (a foreign write makes the
        live shard unciteable as truth); the upsert deletes the folded
        deltas and max-raises the stamp, so a post-check racing write
        still leaves the shard stale rather than wrongly fresh.
        """
        if self.index is None:
            return False
        stamp = self._index_counter
        if self.dao.mutation_counter() != stamp:
            return False
        shards = self._live_ids([key])
        if self.dao.mutation_counter() != stamp:
            return False
        self._upsert_shards(shards, stamp)
        self._compactions += 1
        return True

    def _save_full_snapshot(self) -> bool:
        """Wholesale snapshot save — the truth assertion used after a
        full rebuild (only the ids are kept)."""
        stamp = self._index_counter
        if self.dao.mutation_counter() != stamp:
            return False
        shards = {
            key: ids
            for key, (ids, _matrix) in self.index.export_shards().items()
        }
        if self.dao.mutation_counter() != stamp:
            return False
        self.dao.save_index_shards(shards, stamp)
        self._chains.clear()  # the wholesale save dropped every journal
        self._rebase_chains(shards)
        self.index.consume_dirty()
        return True

    def persist_shards(self) -> bool:
        """Flush the index's unpersisted shards through the DAO.

        A dirty shard whose journal chain tip already equals its
        expected stamp needs nothing — the journal *is* its persistence
        — unless the fold rule says its chain is due: a
        persist-deferred bulk caller (an ingest job) leaves its chain
        unfolded, and this call at the end of the job folds it, off the
        request path, so a restart replays a bounded chain.  Shards the
        journal does not cover (stale: stamped by a writer that could
        not journal them) are upserted individually.  The export is
        stamped with the counter the index is *known* to reflect —
        never a fresh counter read, which could cover a foreign
        process's write this index never saw — and skipped when the
        DAO's counter disagrees before or after the export.  Returns
        whether the persisted state is consistent at that stamp.
        """
        if self.index is None:
            return False
        stamp = self._index_counter
        if self.dao.mutation_counter() != stamp:
            return False
        dirty = set(self.index.dirty_keys())
        if dirty:
            stamps = self.dao.shard_stamps()
            chains = self.dao.shard_chain_meta()
            uncovered = {
                key
                for key in dirty
                if chains.get(key, {}).get("tip") is None
                or chains.get(key, {}).get("tip") != stamps.get(key)
            }
            due = {key for key in dirty - uncovered if self._fold_due(key)}
            pending = uncovered | due
            if pending:
                shards = self._live_ids(pending)
                if self.dao.mutation_counter() != stamp:
                    return False
                self._upsert_shards(shards, stamp)
                self._compactions += len(due)
        self.index.consume_dirty()
        return True

    def shard_persistence(self) -> dict:
        """Freshness report for the persisted per-shard state.

        ``perShard`` maps ``"user/kind"`` to that shard's expected
        stamp, journaled chain tip, base rows, chain length/rows/bytes
        and freshness (``tip == stamp``); ``journal`` is the journal at
        rest (rows, their ids-only bytes) plus the folds this service
        performed.  Every byte count is bytes at rest — what the DAO
        stored, not the dense arrays' ``nbytes``.  The legacy top-level
        keys (``storedCounter``, ``fresh``, ...) are kept for existing
        callers — ``fresh`` now means *every* known shard replays to its
        expected stamp.
        """
        meta = self.dao.index_shards_meta()
        stamps = self.dao.shard_stamps()
        chains = self.dao.shard_chain_meta()
        current = self.dao.mutation_counter()
        per_shard: dict[str, dict] = {}
        fresh_shards = 0
        for key in sorted(set(stamps) | set(chains)):
            chain = chains.get(key, {})
            tip = chain.get("tip")
            stamp = stamps.get(key)
            fresh = tip is not None and tip == stamp
            fresh_shards += int(fresh)
            per_shard[f"{key[0]}/{key[1]}"] = {
                "stamp": stamp,
                "tip": tip,
                "baseRows": chain.get("rows", 0),
                "chainLen": chain.get("chainLen", 0),
                "chainRows": chain.get("chainRows", 0),
                "chainBytes": chain.get("chainBytes", 0),
                "fresh": fresh,
            }
        total = len(per_shard)
        stored = meta.get("counter")
        return {
            "storedCounter": stored,
            "currentCounter": current,
            "shards": meta.get("shards", 0),
            "rows": meta.get("rows", 0),
            "deltas": meta.get("deltas", 0),
            "deltaBytes": meta.get("deltaBytes", 0),
            "fresh": total > 0 and fresh_shards == total,
            "freshShards": fresh_shards,
            "staleShards": total - fresh_shards,
            "discardedShards": self._attach_discarded,
            "perShard": per_shard,
            "journal": {
                "rows": meta.get("deltas", 0),
                "bytes": meta.get("deltaBytes", 0),
                "compactions": self._compactions,
                "bytesPerMutation": (
                    meta.get("deltaBytes", 0) / meta["deltas"]
                    if meta.get("deltas")
                    else 0.0
                ),
            },
        }

    def _index(
        self, user_id: int, record: Record, *, journaled: bool = True
    ) -> None:
        """Put a record into ``user_id``'s shards of the live index, one
        per shard kind it carries a vector of.  ``journaled`` says a DAO
        write put it there (and so journaled it); re-indexing a record
        the caller already owned is not one."""
        if self.index is None:
            return
        for kind in RECORD_KINDS[type(record)].shards:
            spec = SHARD_KINDS[kind]
            vector = getattr(record, spec.vector_field)
            if vector is None:
                continue
            self.index.add(user_id, kind, getattr(record, spec.id_field), vector)
            if journaled:
                self._journaled((user_id, kind), 1)

    def _unindex(self, user_id: int, record: Record) -> None:
        """Drop a record from every one of ``user_id``'s shards of its
        kind; the DAO journaled a ``remove`` for the kinds the record
        embeds."""
        if self.index is None:
            return
        for kind in RECORD_KINDS[type(record)].shards:
            spec = SHARD_KINDS[kind]
            self.index.remove(user_id, kind, getattr(record, spec.id_field))
            if getattr(record, spec.vector_field) is not None:
                self._journaled((user_id, kind), 1)

    # ------------------------------------------------------------------
    # Users / auth
    # ------------------------------------------------------------------
    def register_user(self, name: str, password: str) -> UserRecord:
        if not name or not name.strip():
            raise ValidationError("user name must be non-empty", params={"user": name})
        if not password:
            raise ValidationError("password must be non-empty")
        if self.dao.get_user_by_name(name) is not None:
            raise DuplicateError(
                f"user {name!r} already exists", params={"user": name}
            )
        return self.dao.insert_user(name, hash_password(password))

    def authenticate(self, name: str, password: str) -> UserRecord:
        user = self.dao.get_user_by_name(name)
        if user is None or user.password_hash != hash_password(password):
            raise AuthenticationError(
                "invalid login credentials", params={"user": name}
            )
        return user

    def get_user(self, name: str) -> UserRecord:
        user = self.dao.get_user_by_name(name)
        if user is None:
            raise NotFoundError(f"unknown user {name!r}", params={"user": name})
        return user

    def all_users(self) -> list[UserRecord]:
        return self.dao.all_users()

    # ------------------------------------------------------------------
    # Record writes: PEs and workflows follow the same §3.1 rules, so
    # each operation has one body, reading what differs by kind from
    # RECORD_KINDS.  The per-kind names are the entry points; the v1
    # write core looks them up by kind (``register_{kind}``,
    # ``register_{kind}s_bulk``, ``upsert_{kind}``, ``revise_{kind}``,
    # ``remove_{kind}_record``).
    # ------------------------------------------------------------------
    def register_pe(
        self, user: UserRecord, record: PERecord
    ) -> tuple[PERecord, bool]:
        return self._register(user, record)

    def register_workflow(
        self, user: UserRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        return self._register(user, record)

    def register_pes_bulk(
        self, user: UserRecord, records: list[PERecord], *, persist: bool = True
    ) -> tuple[list[PERecord], list[bool]]:
        return self._register_bulk(user, records, persist=persist)

    def register_workflows_bulk(
        self,
        user: UserRecord,
        records: list[WorkflowRecord],
        *,
        persist: bool = True,
    ) -> tuple[list[WorkflowRecord], list[bool]]:
        return self._register_bulk(user, records, persist=persist)

    def upsert_pe(
        self, user: UserRecord, current: PERecord, record: PERecord
    ) -> tuple[PERecord, bool]:
        return self._upsert(user, current, record)

    def upsert_workflow(
        self, user: UserRecord, current: WorkflowRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        return self._upsert(user, current, record)

    def revise_pe(
        self, user: UserRecord, current: PERecord, record: PERecord
    ) -> tuple[PERecord, bool]:
        return self._revise(current, record)

    def revise_workflow(
        self, user: UserRecord, current: WorkflowRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        return self._revise(current, record)

    def remove_pe_record(self, user: UserRecord, record: PERecord) -> None:
        self._remove(user, record)

    def remove_workflow_record(
        self, user: UserRecord, record: WorkflowRecord
    ) -> None:
        self._remove(user, record)

    def _dao_method(self, record: Record, name: str):
        """The DAO's ``name`` method (:data:`_DAO_METHODS`) for
        ``record``'s kind."""
        return getattr(self.dao, _DAO_METHODS[type(record)][name])

    def _dedup_hit(self, user: UserRecord, record: Record) -> Record | None:
        """The §3.1 dedup resolution: an identity match grants the
        caller ownership (and indexes the record for them); ``None``
        means the registration is genuinely new."""
        identity = record.identity_key()
        name = getattr(record, RECORD_KINDS[type(record)].name_field)
        for existing in self._dao_method(record, "find")(name):
            if existing.identity_key() == identity:
                granted = user.user_id not in existing.owners
                if granted:
                    existing.owners.add(user.user_id)
                    self._dao_method(existing, "update")(existing)
                    self._note_write()
                self._index(user.user_id, existing, journaled=granted)
                return existing
        return None

    def _register(self, user: UserRecord, record: Record) -> tuple[Record, bool]:
        """Dedup-or-insert; returns ``(stored, created)``.

        ``created`` is False when the §3.1 identity rule resolved the
        registration onto an existing record (ownership granted, or the
        caller already owned it); the v1 write envelope surfaces the
        distinction.
        """
        hit = self._dedup_hit(user, record)
        if hit is not None:
            return hit, False
        record.owners = {user.user_id}
        stored = self._dao_method(record, "insert")(record)
        self._note_write()
        self._index(user.user_id, stored)
        return stored, True

    def _register_bulk(
        self, user: UserRecord, records: list[Record], *, persist: bool
    ) -> tuple[list[Record], list[bool]]:
        """Bulk registration: one DAO ``executemany`` insert, one index
        ``add_many`` per shard kind, one shard persist.

        Applies the same §3.1 dedup-by-identity rule as
        :meth:`_register` — against the registry *and* within the batch
        itself (two identical items resolve to one record).  Returns the
        stored records in item order plus per-item ``created`` flags.
        """
        stored: list[Record] = []
        created: list[bool] = []
        fresh: list[Record] = []
        by_identity: dict[str, Record] = {}
        for record in records:
            identity = record.identity_key()
            batch_hit = by_identity.get(identity)
            if batch_hit is not None:
                # in-batch duplicate: resolves to whatever the first
                # occurrence resolved to.  Never index here — a fresh
                # first occurrence has no id yet (it is inserted and
                # indexed with its real id after the loop), and a
                # registry hit was already indexed then.
                stored.append(batch_hit)
                created.append(False)
                continue
            hit = self._dedup_hit(user, record)
            if hit is not None:
                by_identity[identity] = hit
                stored.append(hit)
                created.append(False)
                continue
            record.owners = {user.user_id}
            fresh.append(record)
            by_identity[identity] = record
            stored.append(record)
            created.append(True)
        if fresh:
            self._dao_method(fresh[0], "insert_many")(fresh)
            # the DAO commits a bulk insert as ONE mutation event
            self._note_write()
            # the DAO journaled one row per kind for the whole batch;
            # with persist deferred to the caller, folding the chain is
            # deferred with it
            for kind in RECORD_KINDS[type(fresh[0])].shards:
                spec = SHARD_KINDS[kind]
                embedded = [
                    (getattr(r, spec.id_field), getattr(r, spec.vector_field))
                    for r in fresh
                ]
                ids = [rid for rid, vec in embedded if vec is not None]
                vectors = [vec for _, vec in embedded if vec is not None]
                if not ids or self.index is None:
                    continue
                self.index.add_many(user.user_id, kind, ids, vectors)
                self._journaled((user.user_id, kind), len(ids), fold=persist)
        if persist:
            self.persist_shards()
        return stored, created

    def _upsert(
        self, user: UserRecord, current: Record, record: Record
    ) -> tuple[Record, bool]:
        """Replace the user's name binding: ``record`` supersedes
        ``current`` (same name, different identity).

        The new content resolves through the §3.1 dedup first (joining
        an existing identical record or inserting), then the caller's
        stake in the old record is released — dissociation when other
        owners remain (a PUT never rewrites another tenant's record),
        deletion when the caller was the sole owner.  After this, the
        user's by-name lookups, deletes and conditional writes all
        resolve to the record now holding the PUT content.
        """
        kind = RECORD_KINDS[type(record)].kind
        stored, created = getattr(self, f"register_{kind}")(user, record)
        getattr(self, f"remove_{kind}_record")(user, current)
        return stored, created

    def _revise(self, current: Record, record: Record) -> tuple[Record, bool]:
        """In-place metadata revision: same identity (name + code),
        changed metadata or vectors (``RECORD_KINDS``' ``metadata`` and
        the kind's vector fields).

        The record id stays stable and the revision bumps.  Identical
        identity means there is exactly ONE record (the §3.1 invariant),
        so every owner sees the revision — shared identity is shared
        metadata by construction; a caller wanting private metadata
        must change the code payload (which forks via upsert).

        Only kinds whose embedding *bytes* actually changed touch the
        index (matching the DAO's stamping and journaling rule); an
        embedding revised away entirely also drops the stale row from
        every owner's live shard.
        """
        record_kind = RECORD_KINDS[type(record)]
        changed: dict[str, np.ndarray | None] = {}
        for kind in record_kind.shards:
            field = SHARD_KINDS[kind].vector_field
            new_vec = getattr(record, field)
            if _embed_bytes(getattr(current, field)) != _embed_bytes(new_vec):
                changed[kind] = new_vec
        for name in (*record_kind.metadata, *record_kind.vector_fields):
            setattr(current, name, getattr(record, name))
        self._dao_method(current, "update")(current)
        self._note_write()
        if self.index is None:
            return current, False
        record_id = getattr(current, record_kind.id_field)
        for kind, vec in changed.items():
            for owner in current.owners:
                if vec is not None:
                    self.index.add(owner, kind, record_id, vec)
                else:
                    self.index.remove(owner, kind, record_id)
                self._journaled((owner, kind), 1)
        return current, False

    def _remove(self, user: UserRecord, record: Record) -> None:
        """Remove an already-fetched owned record (no re-fetch).

        The write core resolves the target once for its revision check;
        re-reading it here would unblob the embeddings a second time
        inside the write lock.
        """
        record.owners.discard(user.user_id)
        if record.owners:
            self._dao_method(record, "update")(record)
        else:
            record_id = getattr(record, RECORD_KINDS[type(record)].id_field)
            self._dao_method(record, "delete")(record_id)
        self._note_write()
        self._unindex(user.user_id, record)

    # ------------------------------------------------------------------
    # PE reads
    # ------------------------------------------------------------------
    def _owned_pe(self, user: UserRecord, pe_id: int) -> PERecord:
        record = self.dao.get_pe(pe_id)
        if record is None or user.user_id not in record.owners:
            raise NotFoundError(
                f"PE id {pe_id} not found for user {user.user_name!r}",
                params={"peId": pe_id, "user": user.user_name},
            )
        return record

    def get_pe_by_id(self, user: UserRecord, pe_id: int) -> PERecord:
        return self._owned_pe(user, pe_id)

    def get_pe_by_name(self, user: UserRecord, name: str) -> PERecord:
        for record in self.dao.find_pe_by_name(name):
            if user.user_id in record.owners:
                return record
        raise NotFoundError(
            f"PE {name!r} not found for user {user.user_name!r}",
            params={"peName": name, "user": user.user_name},
        )

    def user_pes(self, user: UserRecord) -> list[PERecord]:
        """The user's PEs, ascending id — owner-scoped at the DAO."""
        return self.dao.pes_owned_by(user.user_id)

    def owned_pe_ids(self, user: UserRecord) -> list[int]:
        """Ascending owned PE ids; no row materialization at all."""
        return self.dao.pe_ids_owned_by(user.user_id)

    def resolve_pes(self, user: UserRecord, pe_ids: list[int]) -> list[PERecord]:
        """Batch-hydrate ``pe_ids`` in order, dropping non-owned records.

        The top-k serving path: the batcher ranks on the index shard
        and materializes only the winners through this call.  Ids that
        vanished or changed hands since ranking are silently skipped —
        the caller's result is then slightly under-filled rather than
        wrong.
        """
        return [
            record
            for record in self.dao.get_pes(pe_ids)
            if user.user_id in record.owners
        ]

    def text_topk_pes(
        self, user: UserRecord, query: str, k: int | None = None
    ) -> list[tuple[PERecord, float]]:
        """Indexed BM25+substring text ranking — O(k) hydration.

        The DAO ranks owned PE ids inside its inverted index
        (``SqliteDAO.text_topk_pes``); only the winners are
        materialized, mirroring the semantic top-k serving shape.
        Returns ``(record, score)`` pairs in rank order; ids that
        vanished or changed hands since ranking are skipped.
        """
        ranked = self.dao.text_topk_pes(user.user_id, query, k)
        by_id = {
            record.pe_id: record
            for record in self.dao.get_pes([i for i, _ in ranked])
            if user.user_id in record.owners
        }
        return [
            (by_id[i], score) for i, score in ranked if i in by_id
        ]


    # ------------------------------------------------------------------
    # Workflow reads
    # ------------------------------------------------------------------
    def _owned_workflow(self, user: UserRecord, workflow_id: int) -> WorkflowRecord:
        record = self.dao.get_workflow(workflow_id)
        if record is None or user.user_id not in record.owners:
            raise NotFoundError(
                f"workflow id {workflow_id} not found for user "
                f"{user.user_name!r}",
                params={"workflowId": workflow_id, "user": user.user_name},
            )
        return record

    def get_workflow_by_id(
        self, user: UserRecord, workflow_id: int
    ) -> WorkflowRecord:
        return self._owned_workflow(user, workflow_id)

    def get_workflow_by_name(self, user: UserRecord, name: str) -> WorkflowRecord:
        for record in self.dao.find_workflow_by_entry_point(name):
            if user.user_id in record.owners:
                return record
        raise NotFoundError(
            f"workflow {name!r} not found for user {user.user_name!r}",
            params={"entryPoint": name, "user": user.user_name},
        )

    def user_workflows(self, user: UserRecord) -> list[WorkflowRecord]:
        """The user's workflows, ascending id — owner-scoped at the DAO."""
        return self.dao.workflows_owned_by(user.user_id)

    def owned_workflow_ids(self, user: UserRecord) -> list[int]:
        """Ascending owned workflow ids; no row materialization at all."""
        return self.dao.workflow_ids_owned_by(user.user_id)

    def resolve_workflows(
        self, user: UserRecord, workflow_ids: list[int]
    ) -> list[WorkflowRecord]:
        """Batch-hydrate ``workflow_ids`` in order, dropping non-owned."""
        return [
            record
            for record in self.dao.get_workflows(workflow_ids)
            if user.user_id in record.owners
        ]

    def text_topk_workflows(
        self, user: UserRecord, query: str, k: int | None = None
    ) -> list[tuple[WorkflowRecord, float]]:
        """Indexed BM25+substring workflow ranking (see
        :meth:`text_topk_pes`)."""
        ranked = self.dao.text_topk_workflows(user.user_id, query, k)
        by_id = {
            record.workflow_id: record
            for record in self.dao.get_workflows([i for i, _ in ranked])
            if user.user_id in record.owners
        }
        return [
            (by_id[i], score) for i, score in ranked if i in by_id
        ]


    # ------------------------------------------------------------------
    # Associations
    # ------------------------------------------------------------------
    def link_pe_to_workflow(
        self, user: UserRecord, workflow_id: int, pe_id: int
    ) -> WorkflowRecord:
        """PUT /registry/{user}/workflow/{workflowId}/pe/{peId}."""
        workflow = self._owned_workflow(user, workflow_id)
        self._owned_pe(user, pe_id)
        if pe_id not in workflow.pe_ids:
            workflow.pe_ids.append(pe_id)
            self.dao.update_workflow(workflow)
            self._note_write()
        return workflow

    def workflow_pes(
        self, user: UserRecord, workflow_id: int
    ) -> list[PERecord]:
        """The workflow's PEs the caller owns, in link order (duplicates
        kept): a workflow may name PEs its owner does not own, and the
        privacy rule holds for them too."""
        workflow = self._owned_workflow(user, workflow_id)
        return self.resolve_pes(user, workflow.pe_ids)

    def workflow_pes_by_name(self, user: UserRecord, name: str) -> list[PERecord]:
        workflow = self.get_workflow_by_name(user, name)
        return self.workflow_pes(user, workflow.workflow_id)

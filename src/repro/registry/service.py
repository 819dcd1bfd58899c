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

from functools import partial
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

Record = PERecord | WorkflowRecord

#: each record kind's DAO methods, by name: looked up on the DAO when
#: called, so a wrapper installed on ``SqliteDAO`` after import is the
#: one entered.  Each is a one-line entry into the DAO's one body for
#: that operation (``SqliteDAO._insert_many``, ``_get``, ...)
_DAO_METHODS = {
    PERecord: {
        "find": "find_pe_by_name",
        "find_many": "find_pes_by_names",
        "insert": "insert_pe",
        "insert_many": "insert_pes",
        "update": "update_pe",
        "delete": "delete_pe",
        "get": "get_pe",
        "get_many": "get_pes",
        "owned": "pes_owned_by",
        "owned_ids": "pe_ids_owned_by",
        "text_topk": "text_topk_pes",
    },
    WorkflowRecord: {
        "find": "find_workflow_by_entry_point",
        "find_many": "find_workflows_by_entry_points",
        "insert": "insert_workflow",
        "insert_many": "insert_workflows",
        "update": "update_workflow",
        "delete": "delete_workflow",
        "get": "get_workflow",
        "get_many": "get_workflows",
        "owned": "workflows_owned_by",
        "owned_ids": "workflow_ids_owned_by",
        "text_topk": "text_topk_workflows",
    },
}


class RegistryService:
    """All registry business logic over one :class:`SqliteDAO`.

    When constructed with a :class:`~repro.search.index.VectorIndex`,
    the service keeps the per-owner search shards synchronized with every
    PE/workflow mutation: registration adds the stored embeddings under
    each owner's shard, removal drops them, and a pre-populated DAO
    (e.g. a reopened SQLite registry) is bulk-loaded at attach time.

    Every write is one DAO write scope
    (:meth:`~repro.registry.dao.SqliteDAO.write`), the caller's when one
    is open; its index changes apply after the commit, so a rolled-back
    write leaves the live index as it was.
    """

    def __init__(
        self, dao: SqliteDAO, index: "VectorIndex | None" = None
    ) -> None:
        self.dao = dao
        self.index = None
        if index is not None:
            self.attach_index(index)

    # ------------------------------------------------------------------
    # Search-index maintenance
    # ------------------------------------------------------------------
    def attach_index(self, index: "VectorIndex") -> None:
        """Adopt ``index`` and fill every user's shards from the record
        rows (:meth:`_fill`), every user inside one
        :meth:`~repro.registry.dao.SqliteDAO.read_snapshot`, so what
        loads is the registry as of one commit even while another
        process writes.

        No membership is persisted beside the rows (schema v16 dropped
        the base slabs and the journal that restated it), so a write
        logs no index page.  What that costs a cold start, open +
        attach timed in fresh processes, ten pairs with the sides
        alternating, on a 2-CPU Linux host: 6 600 PEs with two 2 048-wide
        vectors each, 145–177 ms (median 161) against the v15 journal
        replay's 148–197 ms (median 169); 50 000 PEs with one vector
        each, 0.50–0.84 s (median 0.64) against 0.55–0.87 s (median
        0.68).
        """
        self.index = index
        with self.dao.read_snapshot():
            self._fill(SHARD_KINDS, [u.user_id for u in self.dao.all_users()])

    def _fill(self, kinds, user_ids: list[int]) -> bool:
        """Install the ``kinds`` shards of ``user_ids`` from the record
        rows into the live index, inside the caller's
        :meth:`~repro.registry.dao.SqliteDAO.read_snapshot`, and return
        whether another connection had committed since the index was
        last filled (then every other resident shard is dropped).

        Each shard is one ordered scan of the user's owner rows joined
        to the record rows and one batch decode per (user, record
        table) (:meth:`~repro.registry.dao.SqliteDAO.owned_vectors`); no
        record is hydrated and nothing is written.  The snapshot holds
        the DAO lock, which every write's index changes run under
        (:meth:`~repro.registry.dao.SqliteDAO.after_commit`), so no write
        of this process lands between the read and the install.
        """
        shards = {
            (user_id, kind): shard
            for user_id in user_ids
            for kind, shard in self.dao.owned_vectors(user_id, kinds).items()
        }
        return self.index.fill(self.dao.data_version(), shards)

    def on_current_shard(self, user_id: int, kind: str, rank):
        """``(rank(), refilled)``: ``rank`` run on ``user_id``'s ``kind``
        shard of the live index as the store stands now.

        The index is current while the file's ``data_version`` — which
        only another connection's commit moves; this process's writes
        reach the index themselves — is the one it was filled at.  Then
        ``rank`` runs as it is, unless the shard is not resident
        (``rank`` answers ``None``).  Otherwise the shard is filled from
        the record rows first (:meth:`_fill`) and ``rank`` runs inside
        the same snapshot, under the DAO lock, where no fill can drop
        it; ``refilled`` says another connection had committed.  Inside
        the snapshot the check runs once more before the fill, so a
        search that waited on the lock behind another search's refill
        of the same shard ranks that fill instead of scanning the owner
        rows again.  The text index keeps the same rule
        (:meth:`~repro.registry.dao.SqliteDAO.text_topk_pes`).
        """
        if self.dao.data_version() == self.index.version:
            ranked = rank()
            if ranked is not None:
                return ranked, False
        with self.dao.read_snapshot():
            if self.dao.data_version() == self.index.version:
                ranked = rank()
                if ranked is not None:
                    return ranked, False
            refilled = self._fill((kind,), [user_id])
            return rank(), refilled

    def persist_shards(self) -> bool:
        """No-op: the record rows are the index's only persistence.
        Kept only because the e2e tracer names it; ROADMAP items 0a/17
        delete it."""
        return True

    def shard_persistence(self) -> dict:
        """The journal report's shape, all zeros (no journal is kept).
        Kept only because the e2e tracer reads it; ROADMAP items 0a/17
        delete it."""
        return {"journal": {"compactions": 0}}

    def _on_commit(self, method: str, *args) -> None:
        """Queue the live index's ``method`` on the open write scope,
        its arguments taken now; nothing without an index."""
        if self.index is not None:
            self.dao.after_commit(partial(getattr(self.index, method), *args))

    def _index(self, user_id: int, record: Record) -> None:
        """Put a record into ``user_id``'s shards of the live index, one
        per shard kind it carries a vector of, once the write commits
        (a shard that is not resident is left to its next fill)."""
        for kind in RECORD_KINDS[type(record)].shards:
            spec = SHARD_KINDS[kind]
            vector = getattr(record, spec.vector_field)
            if vector is not None:
                record_id = getattr(record, spec.id_field)
                self._on_commit("add", user_id, kind, record_id, vector)

    def _unindex(self, user_id: int, record: Record) -> None:
        """Drop a record from every one of ``user_id``'s shards of its
        kind, once the write commits."""
        for kind in RECORD_KINDS[type(record)].shards:
            spec = SHARD_KINDS[kind]
            self._on_commit(
                "remove", user_id, kind, getattr(record, spec.id_field)
            )

    # ------------------------------------------------------------------
    # Users / auth
    # ------------------------------------------------------------------
    def register_user(self, name: str, password: str) -> UserRecord:
        if not name or not name.strip():
            raise ValidationError("user name must be non-empty", params={"user": name})
        if not password:
            raise ValidationError("password must be non-empty")
        with self.dao.write():
            if self.dao.get_user_by_name(name) is not None:
                raise DuplicateError(
                    f"user {name!r} already exists", params={"user": name}
                )
            user = self.dao.insert_user(name, hash_password(password))
            if self.index is not None:
                # a new user's shards are complete as empty ones
                self._on_commit(
                    "fill", self.index.version,
                    {(user.user_id, kind): ((), ()) for kind in SHARD_KINDS},
                )
            return user

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
    # ``remove_{kind}_record``).  ``named``, where taken, is what
    # :meth:`named` returned for the record's name inside the caller's
    # open write scope, so the name is read once.
    # ------------------------------------------------------------------
    def register_pe(
        self, user: UserRecord, record: PERecord, named=None
    ) -> tuple[PERecord, bool]:
        return self._register(user, record, named)

    def register_workflow(
        self, user: UserRecord, record: WorkflowRecord, named=None
    ) -> tuple[WorkflowRecord, bool]:
        return self._register(user, record, named)

    def register_pes_bulk(
        self, user: UserRecord, records: list[PERecord]
    ) -> tuple[list[PERecord], list[bool]]:
        return self._register_bulk(user, records)

    def register_workflows_bulk(
        self, user: UserRecord, records: list[WorkflowRecord]
    ) -> tuple[list[WorkflowRecord], list[bool]]:
        return self._register_bulk(user, records)

    def upsert_pe(
        self, user: UserRecord, current: PERecord, record: PERecord, named=None
    ) -> tuple[PERecord, bool]:
        return self._upsert(user, current, record, named)

    def upsert_workflow(
        self, user: UserRecord, current: WorkflowRecord,
        record: WorkflowRecord, named=None,
    ) -> tuple[WorkflowRecord, bool]:
        return self._upsert(user, current, record, named)

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

    def _dao_method(self, record_type: type, name: str):
        """The DAO's ``name`` method (:data:`_DAO_METHODS`) for
        ``record_type``."""
        return getattr(self.dao, _DAO_METHODS[record_type][name])

    def named(self, record_type: type, name: str) -> list:
        """Every ``record_type`` record bound to ``name``, any owner's,
        ascending id."""
        return self._dao_method(record_type, "find")(name)

    def _dedup_hit(
        self, user: UserRecord, record: Record, named: list
    ) -> Record | None:
        """The §3.1 dedup resolution among ``named``, the records bound
        to ``record``'s name: an identity match grants the caller
        ownership (and indexes the record for them); ``None`` means the
        registration is genuinely new."""
        identity = record.identity_key()
        for existing in named:
            if existing.identity_key() == identity:
                granted = user.user_id not in existing.owners
                if granted:
                    existing.owners.add(user.user_id)
                    self._dao_method(type(existing), "update")(existing)
                self._index(user.user_id, existing)
                return existing
        return None

    def _register(
        self, user: UserRecord, record: Record, named=None
    ) -> tuple[Record, bool]:
        """Dedup-or-insert; returns ``(stored, created)``.

        ``created`` is False when the §3.1 identity rule resolved the
        registration onto an existing record (ownership granted, or the
        caller already owned it); the v1 write envelope surfaces the
        distinction.
        """
        with self.dao.write():
            if named is None:
                name = getattr(record, RECORD_KINDS[type(record)].name_field)
                named = self.named(type(record), name)
            hit = self._dedup_hit(user, record, named)
            if hit is not None:
                return hit, False
            record.owners = {user.user_id}
            stored = self._dao_method(type(record), "insert")(record)
            self._index(user.user_id, stored)
            return stored, True

    def _register_bulk(
        self, user: UserRecord, records: list[Record]
    ) -> tuple[list[Record], list[bool]]:
        """Bulk registration: one write scope, one DAO ``executemany``
        insert (one mutation) and one index ``add_many`` per shard kind.

        Applies the same §3.1 dedup-by-identity rule as
        :meth:`_register` — against the registry, read with one
        statement for the batch's names, *and* within the batch itself
        (two identical items resolve to one record).  Returns the stored
        records in item order plus per-item ``created`` flags.
        """
        if not records:
            return [], []
        record_type = type(records[0])
        name_field = RECORD_KINDS[record_type].name_field
        with self.dao.write():
            names = [getattr(record, name_field) for record in records]
            named: dict[str, list[Record]] = {name: [] for name in names}
            for existing in self._dao_method(record_type, "find_many")(names):
                named[getattr(existing, name_field)].append(existing)
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
                hit = self._dedup_hit(user, record, named[getattr(record, name_field)])
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
                self._dao_method(record_type, "insert_many")(fresh)
                for kind in RECORD_KINDS[record_type].shards:
                    spec = SHARD_KINDS[kind]
                    embedded = [
                        (getattr(r, spec.id_field), vec)
                        for r in fresh
                        if (vec := getattr(r, spec.vector_field)) is not None
                    ]
                    if embedded:
                        ids, vectors = map(list, zip(*embedded))
                        self._on_commit(
                            "add_many", user.user_id, kind, ids, vectors
                        )
            return stored, created

    def _upsert(
        self, user: UserRecord, current: Record, record: Record, named=None
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
        with self.dao.write():
            stored, created = getattr(self, f"register_{kind}")(
                user, record, named
            )
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
        index; an embedding revised away entirely also drops the stale
        row from every owner's live shard.
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
        record_id = getattr(current, record_kind.id_field)
        with self.dao.write():
            self._dao_method(type(current), "update")(current)
            for kind, vec in changed.items():
                for owner in current.owners:
                    if vec is not None:
                        self._on_commit("add", owner, kind, record_id, vec)
                    else:
                        self._on_commit("remove", owner, kind, record_id)
        return current, False

    def _remove(self, user: UserRecord, record: Record) -> None:
        """Remove an already-fetched owned record (no re-fetch).

        The write core resolves the target once for its revision check;
        re-reading it here would unblob the embeddings a second time
        inside the write scope.
        """
        record.owners.discard(user.user_id)
        record_id = getattr(record, RECORD_KINDS[type(record)].id_field)
        with self.dao.write():
            if record.owners:
                self._dao_method(type(record), "update")(record)
            else:
                self._dao_method(type(record), "delete")(record_id)
            self._unindex(user.user_id, record)

    # ------------------------------------------------------------------
    # Record reads: one body per operation, keyed by record class and
    # reading what differs by kind from RECORD_KINDS.  The v1 listings
    # look two entries up by kind (``owned_{kind}_ids``,
    # ``resolve_{kind}s``), the search serving path the second.
    # ------------------------------------------------------------------
    def get_by_id(
        self, user: UserRecord, record_type: type, record_id: int
    ) -> Record:
        """The caller's ``record_type`` record ``record_id``; 404 when
        it is absent or not theirs."""
        record = self._dao_method(record_type, "get")(record_id)
        if record is None or user.user_id not in record.owners:
            spec = RECORD_KINDS[record_type]
            raise NotFoundError(
                f"{spec.label} id {record_id} not found for user "
                f"{user.user_name!r}",
                params={spec.id_param: record_id, "user": user.user_name},
            )
        return record

    def get_by_name(
        self, user: UserRecord, record_type: type, name: str
    ) -> Record:
        """The caller's ``record_type`` record bound to ``name``; 404
        when they hold none."""
        for record in self.named(record_type, name):
            if user.user_id in record.owners:
                return record
        spec = RECORD_KINDS[record_type]
        raise NotFoundError(
            f"{spec.label} {name!r} not found for user {user.user_name!r}",
            params={spec.name_param: name, "user": user.user_name},
        )

    def owned_records(self, user: UserRecord, record_type: type) -> list:
        """The user's records, ascending id — owner-scoped at the DAO."""
        return self._dao_method(record_type, "owned")(user.user_id)

    def owned_ids(self, user: UserRecord, record_type: type) -> list[int]:
        """Ascending owned ids; no row materialization at all."""
        return self._dao_method(record_type, "owned_ids")(user.user_id)

    def resolve(
        self, user: UserRecord, record_type: type, ids: list[int]
    ) -> list:
        """Batch-hydrate ``ids`` in order, dropping non-owned records.

        The top-k serving path: a search ranks on the index shard and
        materializes only the winners through this call.  Ids that
        vanished or changed hands since ranking are silently skipped —
        the caller's result is then slightly under-filled rather than
        wrong.
        """
        return [
            record
            for record in self._dao_method(record_type, "get_many")(ids)
            if user.user_id in record.owners
        ]

    def text_topk(
        self, user: UserRecord, record_type: type, query: str, k: int | None = None
    ) -> list[tuple[int, float]]:
        """Indexed BM25+substring text ranking: the DAO ranks the user's
        ids inside its inverted index and returns ``(id, score)`` pairs
        in rank order; the caller hydrates the ones it keeps
        (:meth:`resolve`)."""
        return self._dao_method(record_type, "text_topk")(
            user.user_id, query, k
        )

    def owned_pe_ids(self, user: UserRecord) -> list[int]:
        return self.owned_ids(user, PERecord)

    def owned_workflow_ids(self, user: UserRecord) -> list[int]:
        return self.owned_ids(user, WorkflowRecord)

    def resolve_pes(self, user: UserRecord, ids: list[int]) -> list[PERecord]:
        return self.resolve(user, PERecord, ids)

    def resolve_workflows(
        self, user: UserRecord, ids: list[int]
    ) -> list[WorkflowRecord]:
        return self.resolve(user, WorkflowRecord, ids)

    # ------------------------------------------------------------------
    # Associations
    # ------------------------------------------------------------------
    def link_pe_to_workflow(
        self, user: UserRecord, workflow_id: int, pe_id: int
    ) -> WorkflowRecord:
        """PUT /registry/{user}/workflow/{workflowId}/pe/{peId}: one
        write scope, so the checks hold for the update."""
        with self.dao.write():
            workflow = self.get_by_id(user, WorkflowRecord, workflow_id)
            self.get_by_id(user, PERecord, pe_id)
            if pe_id not in workflow.pe_ids:
                workflow.pe_ids.append(pe_id)
                self.dao.update_workflow(workflow)
        return workflow

    def workflow_pes(
        self, user: UserRecord, workflow_id: int
    ) -> list[PERecord]:
        """The workflow's PEs the caller owns, in link order (duplicates
        kept): a workflow may name PEs its owner does not own, and the
        privacy rule holds for them too."""
        workflow = self.get_by_id(user, WorkflowRecord, workflow_id)
        return self.resolve_pes(user, workflow.pe_ids)

    def workflow_pes_by_name(self, user: UserRecord, name: str) -> list[PERecord]:
        workflow = self.get_by_name(user, WorkflowRecord, name)
        return self.workflow_pes(user, workflow.workflow_id)

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
from repro.registry.dao import RegistryDAO, _embed_bytes
from repro.registry.entities import (
    PERecord,
    UserRecord,
    WorkflowRecord,
    hash_password,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.backend import IndexBackend

#: a shard's journal is folded into its base slab once the rows
#: journaled since the last fold reach ``max(_FOLD_FLOOR, base rows)``:
#: a fold then rewrites at most twice what the journal it retires added
#: (amortised O(delta) per write), and the chain a restart replays never
#: outgrows the base it is replayed onto.  The floor keeps a small shard
#: from folding on every write.  Rows, not bytes: replay costs one
#: last-writer-wins slot per journaled id whatever its encoded size.
_FOLD_FLOOR = 64


class RegistryService:
    """All registry business logic, backend-agnostic.

    When constructed with a :class:`~repro.search.index.VectorIndex`,
    the service keeps the per-owner search shards synchronized with every
    PE/workflow mutation: registration adds the stored embeddings under
    each owner's shard, removal drops them, and a pre-populated DAO
    (e.g. a reopened SQLite registry) is bulk-loaded at attach time.
    """

    def __init__(
        self, dao: RegistryDAO, index: "IndexBackend | None" = None
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
        #: approximate companion backends (e.g. IVF) registered via
        #: attach_approx_backend; their training state persists and
        #: restores alongside the slab snapshot
        self._companions: list = []
        #: mirror backends (e.g. the scatter/gather fan-out) that keep
        #: their *own* copies of every shard: every index mutation fans
        #: out to them, so their results stay bitwise identical to the
        #: authoritative exact index
        self._mirrors: list = []
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
        self, index: "IndexBackend", *, persist: bool = True
    ) -> str:
        """Adopt ``index`` (any registered backend — select by name via
        :func:`repro.search.backend.create_backend`) and populate it;
        returns ``"fresh"``, ``"partial"`` or ``"rebuilt"``.

        Cold start, per shard: every persisted base slab (the shard's
        ids at its last fold) is replayed through its delta journal
        chain and filled from the record rows — one ordered scan and one
        batch decode per (user, record table), no record is hydrated —
        and a shard whose replayed chain tip equals its expected
        mutation stamp
        (:meth:`~repro.registry.dao.RegistryDAO.shard_stamps`) loads
        straight into the index.  Only shards that are stale (a write
        this journal never saw — e.g. a foreign process's), torn or
        corrupt are rebuilt, each from its *own* owner's rows
        (:meth:`~repro.registry.dao.RegistryDAO.owned_vectors`, the
        same scan), and (with ``persist``) upserted back so the next
        cold start finds them covered.  One tenant's write therefore
        never invalidates anyone else's slab.

        Stamps, slabs, journal and rows are read inside one
        :meth:`~repro.registry.dao.RegistryDAO.read_snapshot`, so what
        is loaded is the registry as of one mutation counter even
        while another process writes.

        A registry with no per-shard stamps at all (pre-v6 file whose
        stamps could not be provably seeded, or an empty DAO) falls
        back to the legacy full O(corpus) rebuild.

        ``persist`` also arms chain folding (see :meth:`_journaled`);
        without it this service writes no base slab and folds nothing —
        the DAO journals every write regardless.
        """
        from repro.search.index import KIND_CODE, KIND_DESC, KIND_WORKFLOW

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
                if kind in (KIND_DESC, KIND_CODE, KIND_WORKFLOW):
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
            # pre-v6 rows without provable stamps (or an empty DAO):
            # rebuild wholesale — persisting re-seeds per-shard stamps
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
            consume = getattr(index, "consume_dirty", None)
            if consume is not None:
                consume()
        if not stale:
            return "fresh"
        return "partial" if fresh else "rebuilt"

    def _rebuild_full(self, index: "IndexBackend") -> None:
        """Legacy O(corpus) rebuild: one pass over every record."""
        from repro.search.index import KIND_CODE, KIND_DESC, KIND_WORKFLOW

        shards: dict[tuple[int, str], tuple[list[int], list]] = {}

        def accumulate(user_id: int, kind: str, rid: int, vector) -> None:
            ids, vectors = shards.setdefault((user_id, kind), ([], []))
            ids.append(rid)
            vectors.append(vector)

        for record in self.dao.all_pes():
            for user_id in record.owners:
                if record.desc_embedding is not None:
                    accumulate(
                        user_id, KIND_DESC, record.pe_id, record.desc_embedding
                    )
                if record.code_embedding is not None:
                    accumulate(
                        user_id, KIND_CODE, record.pe_id, record.code_embedding
                    )
        for record in self.dao.all_workflows():
            for user_id in record.owners:
                if record.desc_embedding is not None:
                    accumulate(
                        user_id,
                        KIND_WORKFLOW,
                        record.workflow_id,
                        record.desc_embedding,
                    )
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
        if self.index is None or not hasattr(self.index, "consume_dirty"):
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
        full rebuild and for backends without dirty-shard tracking
        (which offer ``snapshot()`` and nothing cheaper to list their
        shards by; only the ids are kept)."""
        stamp = self._index_counter
        if self.dao.mutation_counter() != stamp:
            return False
        shards = {
            key: ids for key, (ids, _matrix) in self.index.snapshot().items()
        }
        if self.dao.mutation_counter() != stamp:
            return False
        self.dao.save_index_shards(shards, stamp)
        self._chains.clear()  # the wholesale save dropped every journal
        self._rebase_chains(shards)
        consume = getattr(self.index, "consume_dirty", None)
        if consume is not None:
            consume()
        self.persist_approx_states()
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
        not journal them) are upserted individually; backends
        without dirty-shard tracking fall back to the wholesale
        snapshot.  The export is stamped with the counter the index is
        *known* to reflect — never a fresh counter read, which could
        cover a foreign process's write this index never saw — and
        skipped when the DAO's counter disagrees before or after the
        export.  Returns whether the persisted state is consistent at
        that stamp.
        """
        if self.index is None:
            return False
        if getattr(self.index, "dirty_keys", None) is None:
            return self._save_full_snapshot()
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
        self.persist_approx_states()
        return True

    @staticmethod
    def _state_store(backend) -> str:
        """Which DAO store a companion's state lives in (``"ivf"`` or
        ``"hnsw"``); backends declare it via a ``state_store``
        attribute, defaulting to the historical IVF store."""
        return str(getattr(backend, "state_store", "ivf"))

    def _load_states(self, store: str):
        if store == "hnsw":
            return self.dao.load_hnsw_states()
        return self.dao.load_ivf_states()

    def _save_states(self, store: str, states: dict, stamp: int) -> None:
        if store == "hnsw":
            self.dao.save_hnsw_states(states, stamp)
        else:
            self.dao.save_ivf_states(states, stamp)

    def attach_approx_backend(self, backend) -> str:
        """Adopt an approximate companion backend (the IVF or HNSW
        engine) and restore its persisted training state, per shard.

        A stored per-(user, kind) state (centroids + inverted lists, or
        graph levels + adjacency) is only meaningful against the slab
        contents at the stamp it carries, so it is adopted iff its
        stamp equals the shard's *current* expected stamp
        (``shard_stamps``) — the live shard then holds exactly those
        rows (fresh load and rebuild both leave ascending-id order,
        which is the layout stored row indices refer to).  One stale
        shard no longer discards every other shard's state.  Mismatched
        shards rebuild lazily, which is always correct.  Returns
        ``"restored"``, ``"stale"`` or ``"untrained"``.
        """
        if backend not in self._companions:
            self._companions.append(backend)
        stored_stamps, states = self._load_states(self._state_store(backend))
        if not states:
            return "untrained"
        if self.index is None:
            return "stale"
        shard_stamps = self.dao.shard_stamps()
        fresh = {
            key: state
            for key, state in states.items()
            if key in shard_stamps
            and stored_stamps.get(key) == shard_stamps[key]
        }
        if not fresh:
            return "stale"
        adopted = backend.adopt_states(fresh)
        return "restored" if adopted else "untrained"

    def persist_approx_states(self) -> bool:
        """Save companion backends' trained state next to the slabs.

        Same freshness protocol as :meth:`persist_shards`: exports are
        skipped whenever the DAO's counter disagrees with the tracked
        one before or after (state must never claim freshness it does
        not have).  Each shard's state is stamped with that *shard's*
        expected stamp — its slab content is unchanged since then, and
        attach compares per shard — and the save is a per-shard upsert,
        so IVF and HNSW companions persist side by side and untouched
        shards keep their rows.  Stale trained shards are excluded by
        the export itself.  Returns whether any snapshot was written.
        """
        if self.index is None or not self._companions:
            return False
        stamp = self._index_counter
        if self.dao.mutation_counter() != stamp:
            return False
        by_store: dict[str, dict] = {}
        for backend in self._companions:
            exported = backend.export_states()
            if exported:
                by_store.setdefault(self._state_store(backend), {}).update(
                    exported
                )
        if not by_store:
            return False
        shard_stamps = self.dao.shard_stamps()
        if self.dao.mutation_counter() != stamp:
            return False
        for store, states in by_store.items():
            per_key = {
                key: shard_stamps.get(key, stamp) for key in states
            }
            self._save_states(store, states, per_key)
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

    def attach_mirror(self, backend) -> None:
        """Adopt a mirror backend: bulk-load the current shards into it
        and fan every future index mutation out to it.

        Mirrors (the scatter/gather fan-out above all) hold their own
        slab copies — possibly across worker processes — so the initial
        load replays the authoritative index's snapshot verbatim
        (bitwise: slabs are copied, never recomputed).
        """
        if backend in self._mirrors:
            return
        if self.index is not None:
            for (user_id, kind), (ids, matrix) in self.index.snapshot().items():
                backend.add_many(user_id, kind, ids, matrix)
        self._mirrors.append(backend)

    def _index_targets(self) -> list:
        if self.index is None:
            return []
        return [self.index, *self._mirrors]

    def _index_pe(
        self, user_id: int, record: PERecord, *, journaled: bool = True
    ) -> None:
        """Put a PE into ``user_id``'s shards of the live index and its
        mirrors.  ``journaled`` says a DAO write put it there (and so
        journaled it); re-indexing a record the caller already owned is
        not one."""
        from repro.search.index import KIND_CODE, KIND_DESC

        for kind, vector in (
            (KIND_DESC, record.desc_embedding),
            (KIND_CODE, record.code_embedding),
        ):
            if vector is None:
                continue
            for index in self._index_targets():
                index.add(user_id, kind, record.pe_id, vector)
            if journaled:
                self._journaled((user_id, kind), 1)

    def _unindex_pe(self, user_id: int, record: PERecord) -> None:
        """Drop a PE from both of ``user_id``'s shards; the DAO journaled
        a ``remove`` for the kinds the record embeds."""
        from repro.search.index import KIND_CODE, KIND_DESC

        for kind, vector in (
            (KIND_DESC, record.desc_embedding),
            (KIND_CODE, record.code_embedding),
        ):
            for index in self._index_targets():
                index.remove(user_id, kind, record.pe_id)
            if vector is not None:
                self._journaled((user_id, kind), 1)

    def _index_workflow(
        self, user_id: int, record: WorkflowRecord, *, journaled: bool = True
    ) -> None:
        from repro.search.index import KIND_WORKFLOW

        if record.desc_embedding is None:
            return
        for index in self._index_targets():
            index.add(
                user_id, KIND_WORKFLOW, record.workflow_id, record.desc_embedding
            )
        if journaled:
            self._journaled((user_id, KIND_WORKFLOW), 1)

    def _unindex_workflow(self, user_id: int, record: WorkflowRecord) -> None:
        from repro.search.index import KIND_WORKFLOW

        for index in self._index_targets():
            index.remove(user_id, KIND_WORKFLOW, record.workflow_id)
        if record.desc_embedding is not None:
            self._journaled((user_id, KIND_WORKFLOW), 1)

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
    # PEs
    # ------------------------------------------------------------------
    def add_pe(self, user: UserRecord, record: PERecord) -> PERecord:
        """Register a PE, applying the §3.1 dedup-by-identity rule."""
        return self.register_pe(user, record)[0]

    def _dedup_pe_hit(
        self, user: UserRecord, record: PERecord
    ) -> PERecord | None:
        """The §3.1 dedup resolution: an identity match grants the
        caller ownership (and indexes the record for them); ``None``
        means the registration is genuinely new."""
        identity = record.identity_key()
        for existing in self.dao.find_pe_by_name(record.pe_name):
            if existing.identity_key() == identity:
                granted = user.user_id not in existing.owners
                if granted:
                    existing.owners.add(user.user_id)
                    self.dao.update_pe(existing)
                    self._note_write()
                self._index_pe(user.user_id, existing, journaled=granted)
                return existing
        return None

    def register_pe(
        self, user: UserRecord, record: PERecord
    ) -> tuple[PERecord, bool]:
        """Dedup-or-insert; returns ``(stored, created)``.

        ``created`` is False when the §3.1 identity rule resolved the
        registration onto an existing record (ownership granted, or the
        caller already owned it) — the v1 write envelope surfaces the
        distinction while ``add_pe`` keeps the historical signature.
        """
        hit = self._dedup_pe_hit(user, record)
        if hit is not None:
            return hit, False
        record.owners = {user.user_id}
        stored = self.dao.insert_pe(record)
        self._note_write()
        self._index_pe(user.user_id, stored)
        return stored, True

    def upsert_pe(
        self, user: UserRecord, current: PERecord, record: PERecord
    ) -> tuple[PERecord, bool]:
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
        stored, created = self.register_pe(user, record)
        self.remove_pe_record(user, current)
        return stored, created

    def revise_pe(
        self, user: UserRecord, current: PERecord, record: PERecord
    ) -> tuple[PERecord, bool]:
        """In-place metadata revision: same identity (name + code),
        changed description/source/imports/embeddings.

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
        from repro.search.index import KIND_CODE, KIND_DESC

        changed: dict[str, np.ndarray | None] = {}
        for kind, old_vec, new_vec in (
            (KIND_DESC, current.desc_embedding, record.desc_embedding),
            (KIND_CODE, current.code_embedding, record.code_embedding),
        ):
            if _embed_bytes(old_vec) != _embed_bytes(new_vec):
                changed[kind] = new_vec
        current.description = record.description
        current.description_origin = record.description_origin
        current.pe_source = record.pe_source
        current.pe_imports = list(record.pe_imports)
        current.desc_embedding = record.desc_embedding
        current.code_embedding = record.code_embedding
        self.dao.update_pe(current)
        self._note_write()
        for kind, vec in changed.items():
            for owner in current.owners:
                for index in self._index_targets():
                    if vec is not None:
                        index.add(owner, kind, current.pe_id, vec)
                    else:
                        index.remove(owner, kind, current.pe_id)
                self._journaled((owner, kind), 1)
        return current, False

    def register_pes_bulk(
        self, user: UserRecord, records: list[PERecord], *, persist: bool = True
    ) -> tuple[list[PERecord], list[bool]]:
        """Bulk registration: one DAO ``executemany`` insert, one index
        ``add_many`` per shard kind, one shard persist.

        Applies the same §3.1 dedup-by-identity rule as
        :meth:`register_pe` — against the registry *and* within the
        batch itself (two identical items resolve to one record).
        Returns the stored records in item order plus per-item
        ``created`` flags.
        """
        from repro.search.index import KIND_CODE, KIND_DESC

        stored: list[PERecord] = []
        created: list[bool] = []
        fresh: list[PERecord] = []
        by_identity: dict[str, PERecord] = {}
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
            hit = self._dedup_pe_hit(user, record)
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
            self.dao.insert_pes(fresh)
            # both DAOs treat a bulk insert as ONE mutation event
            self._note_write()
            # the DAO journaled one row per kind for the whole batch;
            # with persist deferred to the caller, folding the chain is
            # deferred with it
            for kind, embedded in (
                (KIND_DESC, [(r.pe_id, r.desc_embedding) for r in fresh]),
                (KIND_CODE, [(r.pe_id, r.code_embedding) for r in fresh]),
            ):
                ids = [rid for rid, vec in embedded if vec is not None]
                vectors = [vec for _, vec in embedded if vec is not None]
                if not ids:
                    continue
                for index in self._index_targets():
                    index.add_many(user.user_id, kind, ids, vectors)
                self._journaled((user.user_id, kind), len(ids), fold=persist)
        if persist:
            self.persist_shards()
        return stored, created

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

        The top-k serving path: the searcher ranks on the index shard
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

    def text_candidate_pes(self, user: UserRecord, query: str) -> list[PERecord]:
        """Candidate PEs for the **legacy** Python text scorer.

        Serves only the legacy Table-3 parity adapter, whose contract
        is the byte-identical historical scorer output.  The SQL
        ``LIKE`` filter (``RegistryDAO.pes_owned_by_matching``) is a
        strict superset of the scorer's matches, so scoring the
        candidates yields exactly the historical results.  The v1
        ``queryType=text`` path ranks in the FTS5 index instead — see
        :meth:`text_topk_pes`.
        """
        from repro.search.text_search import candidate_patterns

        return self.dao.pes_owned_by_matching(
            user.user_id, candidate_patterns(query)
        )

    def text_topk_pes(
        self, user: UserRecord, query: str, k: int | None = None
    ) -> list[tuple[PERecord, float]]:
        """Indexed BM25+substring text ranking — O(k) hydration.

        The DAO ranks owned PE ids inside its inverted index
        (``RegistryDAO.text_topk_pes``); only the winners are
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

    def remove_pe(self, user: UserRecord, pe_id: int) -> None:
        """Dissociate the user; delete the PE once ownerless."""
        self.remove_pe_record(user, self._owned_pe(user, pe_id))

    def remove_pe_record(self, user: UserRecord, record: PERecord) -> None:
        """Remove an already-fetched owned record (no re-fetch).

        The write core resolves the target once for its revision check;
        re-reading it here would unblob the embeddings a second time
        inside the write lock.
        """
        record.owners.discard(user.user_id)
        if record.owners:
            self.dao.update_pe(record)
        else:
            self.dao.delete_pe(record.pe_id)
        self._note_write()
        self._unindex_pe(user.user_id, record)

    def remove_pe_by_name(self, user: UserRecord, name: str) -> None:
        record = self.get_pe_by_name(user, name)
        self.remove_pe(user, record.pe_id)

    # ------------------------------------------------------------------
    # Workflows
    # ------------------------------------------------------------------
    def add_workflow(
        self, user: UserRecord, record: WorkflowRecord
    ) -> WorkflowRecord:
        return self.register_workflow(user, record)[0]

    def _dedup_workflow_hit(
        self, user: UserRecord, record: WorkflowRecord
    ) -> WorkflowRecord | None:
        """The §3.1 dedup resolution for workflows (see
        :meth:`_dedup_pe_hit`): an identity match grants the caller
        ownership; ``None`` means the registration is genuinely new."""
        for existing in self.dao.find_workflow_by_entry_point(record.entry_point):
            if existing.identity_key() == record.identity_key():
                granted = user.user_id not in existing.owners
                if granted:
                    existing.owners.add(user.user_id)
                    self.dao.update_workflow(existing)
                    self._note_write()
                self._index_workflow(
                    user.user_id, existing, journaled=granted
                )
                return existing
        return None

    def register_workflow(
        self, user: UserRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        """Dedup-or-insert; returns ``(stored, created)`` (see register_pe)."""
        hit = self._dedup_workflow_hit(user, record)
        if hit is not None:
            return hit, False
        record.owners = {user.user_id}
        stored = self.dao.insert_workflow(record)
        self._note_write()
        self._index_workflow(user.user_id, stored)
        return stored, True

    def register_workflows_bulk(
        self,
        user: UserRecord,
        records: list[WorkflowRecord],
        *,
        persist: bool = True,
    ) -> tuple[list[WorkflowRecord], list[bool]]:
        """Bulk workflow registration — the :meth:`register_pes_bulk`
        contract for workflows: one DAO ``executemany`` insert (which
        journals one row), one index ``add_many``, one shard persist, with
        the §3.1 dedup applied against the registry *and* within the
        batch itself.
        """
        from repro.search.index import KIND_WORKFLOW

        stored: list[WorkflowRecord] = []
        created: list[bool] = []
        fresh: list[WorkflowRecord] = []
        by_identity: dict[str, WorkflowRecord] = {}
        for record in records:
            identity = record.identity_key()
            batch_hit = by_identity.get(identity)
            if batch_hit is not None:
                stored.append(batch_hit)
                created.append(False)
                continue
            hit = self._dedup_workflow_hit(user, record)
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
            self.dao.insert_workflows(fresh)
            # both DAOs treat a bulk insert as ONE mutation event
            self._note_write()
            indexed = [
                (r.workflow_id, r.desc_embedding)
                for r in fresh
                if r.desc_embedding is not None
            ]
            if indexed:
                ids = [rid for rid, _ in indexed]
                vectors = [vec for _, vec in indexed]
                for index in self._index_targets():
                    index.add_many(user.user_id, KIND_WORKFLOW, ids, vectors)
                self._journaled(
                    (user.user_id, KIND_WORKFLOW), len(ids), fold=persist
                )
        if persist:
            self.persist_shards()
        return stored, created

    def upsert_workflow(
        self, user: UserRecord, current: WorkflowRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        """Replace the user's entry-point binding (see :meth:`upsert_pe`)."""
        stored, created = self.register_workflow(user, record)
        self.remove_workflow_record(user, current)
        return stored, created

    def revise_workflow(
        self, user: UserRecord, current: WorkflowRecord, record: WorkflowRecord
    ) -> tuple[WorkflowRecord, bool]:
        """In-place metadata revision (see :meth:`revise_pe`)."""
        from repro.search.index import KIND_WORKFLOW

        desc_changed = _embed_bytes(current.desc_embedding) != _embed_bytes(
            record.desc_embedding
        )
        current.workflow_name = record.workflow_name
        current.description = record.description
        current.workflow_source = record.workflow_source
        current.pe_ids = list(record.pe_ids)
        current.desc_embedding = record.desc_embedding
        self.dao.update_workflow(current)
        self._note_write()
        if desc_changed:
            for owner in current.owners:
                for index in self._index_targets():
                    if current.desc_embedding is not None:
                        index.add(
                            owner,
                            KIND_WORKFLOW,
                            current.workflow_id,
                            current.desc_embedding,
                        )
                    else:
                        index.remove(
                            owner, KIND_WORKFLOW, current.workflow_id
                        )
                self._journaled((owner, KIND_WORKFLOW), 1)
        return current, False

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

    def text_candidate_workflows(
        self, user: UserRecord, query: str
    ) -> list[WorkflowRecord]:
        """Candidate workflows for the **legacy** Python text scorer
        (legacy Table-3 parity adapter only; see
        :meth:`text_candidate_pes`)."""
        from repro.search.text_search import candidate_patterns

        return self.dao.workflows_owned_by_matching(
            user.user_id, candidate_patterns(query)
        )

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

    def remove_workflow(self, user: UserRecord, workflow_id: int) -> None:
        self.remove_workflow_record(
            user, self._owned_workflow(user, workflow_id)
        )

    def remove_workflow_record(
        self, user: UserRecord, record: WorkflowRecord
    ) -> None:
        """Remove an already-fetched owned record (no re-fetch)."""
        record.owners.discard(user.user_id)
        if record.owners:
            self.dao.update_workflow(record)
        else:
            self.dao.delete_workflow(record.workflow_id)
        self._note_write()
        self._unindex_workflow(user.user_id, record)

    def remove_workflow_by_name(self, user: UserRecord, name: str) -> None:
        record = self.get_workflow_by_name(user, name)
        self.remove_workflow(user, record.workflow_id)

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
        workflow = self._owned_workflow(user, workflow_id)
        records = []
        for pe_id in workflow.pe_ids:
            record = self.dao.get_pe(pe_id)
            if record is not None:
                records.append(record)
        return records

    def workflow_pes_by_name(self, user: UserRecord, name: str) -> list[PERecord]:
        workflow = self.get_workflow_by_name(user, name)
        return self.workflow_pes(user, workflow.workflow_id)

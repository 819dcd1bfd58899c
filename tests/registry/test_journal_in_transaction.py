"""The ids-only journal written inside each mutation's transaction,
folded into ids-only base slabs.

Since schema v8 the DAO appends a shard's journal row wherever it
stamps the shard, in the same commit; since v9 a base slab is ids only
too, so replay reads every vector from the record rows.  Pinned here:

* a model test (Hypothesis): after *every* step of a random
  write sequence the persisted state replays to exactly the live index,
  every stamp equals its chain tip, and the memory text documents are
  the builders run over the stored rows
  (``test_fts_text.assert_text_cache_current``);
* torn shards: an id — journaled or in the base slab — that the record
  table cannot back discards exactly its shard;
* one read transaction: a writer in another process cannot land
  between attach's journal read and its row scan.

The covered-shard guard (a stale shard is never journaled) and the
foreign-writer cases live in ``test_delta_journal.py``.
"""

import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.registry.service as service_module
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW, VectorIndex
from tests.registry.test_dao import make_pe, make_wf
from tests.registry.test_fts_text import assert_text_cache_current

DIM = 8
SLOTS = 6  # record identities the sequences draw from


def unit(rng, dim=DIM):
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / np.linalg.norm(vec)


def live_shards(index):
    return {
        key: (ids.tobytes(), matrix.tobytes())
        for key, (ids, matrix) in index.export_shards().items()
    }


def assert_persisted_equals_live(dao, index):
    """``load_index_shards()`` replays to the live index's export, ids
    and bytes, and every shard's stamp equals its chain tip."""
    shards, discarded = dao.load_index_shards()
    assert discarded == 0
    stamps = dao.shard_stamps()
    for key, (_ids, _matrix, tip) in shards.items():
        assert stamps[key] == tip, key
    assert set(stamps) == set(shards)
    replayed = {
        key: (ids.tobytes(), matrix.tobytes())
        for key, (ids, matrix, _tip) in shards.items()
        if ids.shape[0]
    }
    assert replayed == live_shards(index)


def assert_equals_brute_force(index, dao):
    reference = VectorIndex()
    RegistryService(dao)._rebuild_full(reference)
    assert live_shards(index) == live_shards(reference)


# ---------------------------------------------------------------------------
# (a) model test: persisted == live after every step
# ---------------------------------------------------------------------------
steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "register", "register", "revise_text", "revise_embedding",
                "drop_embedding", "remove", "bulk", "fold", "reopen",
                "workflow", "revise_workflow", "remove_workflow",
            ]
        ),
        st.integers(0, 1),  # which user
        st.integers(0, SLOTS - 1),  # which identity
        st.integers(0, 3),  # op-specific choice
    ),
    min_size=1,
    max_size=25,
)


class Model:
    """Drives a persisting service; the live index is the truth."""

    def __init__(self, open_dao, seed):
        self.open_dao = open_dao
        self.rng = np.random.default_rng(seed)
        self.fresh_names = 0
        self.dao = open_dao()
        self.service = RegistryService(self.dao)
        for name in ("alice", "bob"):
            self.service.register_user(name, "pw")
        self.attach()

    def attach(self):
        self.index = VectorIndex()
        self.mode = self.service.attach_index(self.index)
        self.users = [self.service.get_user(n) for n in ("alice", "bob")]

    def pe(self, slot, choice):
        return make_pe(
            f"P{slot}",
            code=f"code:{slot}".encode().hex(),
            description=f"element {slot}",
            desc_embedding=unit(self.rng) if choice != 1 else None,
            code_embedding=unit(self.rng) if choice != 2 else None,
        )

    def owned(self, user, slot):
        for record in self.dao.find_pe_by_name(f"P{slot}"):
            if user.user_id in record.owners:
                return record
        return None

    def owned_workflow(self, user, slot):
        for record in self.dao.find_workflow_by_entry_point(f"wf{slot}"):
            if user.user_id in record.owners:
                return record
        return None

    def step(self, op, who, slot, choice):
        service, user = self.service, self.users[who]
        if op == "register":
            # a second user registering the identity is a grant
            service.register_pe(user, self.pe(slot, choice))
        elif op in ("revise_text", "revise_embedding", "drop_embedding"):
            current = self.owned(user, slot)
            if current is None:
                return
            revised = make_pe(
                current.pe_name,
                code=current.pe_code,
                description=current.description,
                desc_embedding=current.desc_embedding,
                code_embedding=current.code_embedding,
            )
            if op == "revise_text":
                revised.description = f"described again ({choice})"
            elif op == "revise_embedding":
                revised.desc_embedding = unit(self.rng)
                if choice == 0:
                    revised.code_embedding = unit(self.rng)
            else:
                revised.desc_embedding = None
            service.revise_pe(user, current, revised)
        elif op == "remove":
            # dissociation while another owner remains, else a delete
            current = self.owned(user, slot)
            if current is not None:
                service.remove_pe_record(user, current)
        elif op == "bulk":
            records = []
            for _ in range(choice + 1):
                self.fresh_names += 1
                records.append(
                    make_pe(
                        f"B{self.fresh_names}",
                        code=f"bulk:{self.fresh_names}".encode().hex(),
                        desc_embedding=unit(self.rng),
                        code_embedding=(
                            unit(self.rng) if self.fresh_names % 2 else None
                        ),
                    )
                )
            records.append(self.pe(slot, 0))  # may dedup onto a grant
            service.register_pes_bulk(user, records, persist=choice % 2 == 0)
        elif op == "fold":
            kind = (KIND_DESC, KIND_CODE, KIND_WORKFLOW, KIND_DESC)[choice]
            service._compact_shard((user.user_id, kind))
            assert service.persist_shards()
        elif op == "reopen":
            before = live_shards(self.index)
            if hasattr(self.dao, "close"):
                self.dao.close()
            self.dao = self.open_dao()
            self.service = RegistryService(self.dao)
            self.attach()
            # every shard was covered: nothing to rebuild, nothing lost
            # (an attach that finds no shard at all calls itself rebuilt)
            assert self.mode == ("fresh" if self.dao.shard_stamps() else "rebuilt")
            assert live_shards(self.index) == before
        elif op == "workflow":
            wf = make_wf(f"wf{slot}", code=f"wf:{slot}".encode().hex())
            wf.desc_embedding = unit(self.rng) if choice else None
            service.register_workflow(user, wf)
        elif op == "revise_workflow":
            current = self.owned_workflow(user, slot)
            if current is None:
                return
            revised = make_wf(
                current.entry_point,
                code=current.workflow_code,
                description=f"flow described again ({choice})",
            )
            revised.desc_embedding = (
                current.desc_embedding,
                unit(self.rng),
                None,
                unit(self.rng),
            )[choice]
            service.revise_workflow(user, current, revised)
        elif op == "remove_workflow":
            current = self.owned_workflow(user, slot)
            if current is not None:
                service.remove_workflow_record(user, current)


@pytest.mark.parametrize("backend", ["sqlite"])
def test_persisted_state_equals_live_index_after_every_step(
    backend, monkeypatch
):
    # folds within reach of a 25-step sequence
    monkeypatch.setattr(service_module, "_FOLD_FLOOR", 4)

    @settings(max_examples=60, deadline=None)
    @given(steps, st.integers(0, 2**16))
    def run(sequence, seed):
        with tempfile.TemporaryDirectory() as scratch:
            open_dao = lambda: SqliteDAO(Path(scratch) / "registry.db")
            model = Model(open_dao, seed)
            try:
                for step in sequence:
                    model.step(*step)
                    assert_persisted_equals_live(model.dao, model.index)
                    assert_text_cache_current(model.dao)
                assert_equals_brute_force(model.index, model.dao)
            finally:
                if hasattr(model.dao, "close"):
                    model.dao.close()

    run()


# ---------------------------------------------------------------------------
# (c) a populated file: every journal shape, two tenants
# ---------------------------------------------------------------------------
def new_4k_file(path):
    """A file that had 4 KB pages before this code first opened it."""
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA page_size=4096")
    conn.execute("PRAGMA journal_mode=WAL")  # writes page 1
    conn.close()


def populate(path, rng):
    """Two tenants with a base slab, a chain tail, a revise, a remove
    and a workflow — every journal shape."""
    service = RegistryService(SqliteDAO(path))
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    service.attach_index(VectorIndex())
    for user, count in ((alice, 10), (bob, 4)):
        for i in range(count):
            service.register_pe(
                user,
                make_pe(
                    f"{user.user_name}PE{i}",
                    code=f"{user.user_name}:{i}".encode().hex(),
                    description=f"element {i} of {user.user_name}",
                    desc_embedding=unit(rng),
                    code_embedding=unit(rng),
                ),
            )
    assert service._compact_shard((alice.user_id, KIND_DESC))
    tail = service.register_pe(
        alice, make_pe("Tail", code="dGFpbA==", desc_embedding=unit(rng))
    )[0]
    service.revise_pe(
        alice,
        tail,
        make_pe(
            "Tail", code="dGFpbA==", description="revised",
            desc_embedding=unit(rng),
        ),
    )
    service.remove_pe_record(alice, service.get_by_name(alice, PERecord, "alicePE3"))
    wf = make_wf("flow", code="Zmxvdw==")
    wf.desc_embedding = unit(rng)
    service.register_workflow(bob, wf)
    service.dao.close()
    return alice, bob


def serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng):
    """``dao`` (over ``path``, a :func:`populate`'d file) attaches
    fresh and ranks bitwise as brute force does; a write journals, and
    the file reopens fresh to the same index bytes.  Closes ``dao``."""
    service = RegistryService(dao)
    index = VectorIndex()
    assert service.attach_index(index) == "fresh"
    assert_persisted_equals_live(dao, index)
    assert_equals_brute_force(index, dao)
    user = service.get_user("alice")
    records = [
        r for r in service.owned_records(user, PERecord) if r.desc_embedding is not None
    ]
    query = unit(rng)
    sims = np.stack([r.desc_embedding for r in records]) @ query
    order = np.argsort(-sims, kind="stable")[:5]
    ids, scores = index.search(user.user_id, KIND_DESC, query, 5)
    assert ids == [records[row].pe_id for row in order]
    assert np.array_equal(scores, sims[order])

    service.register_pe(
        user, make_pe("Late", code="bGF0ZQ==", desc_embedding=unit(rng))
    )
    assert_persisted_equals_live(dao, index)
    dao.close()

    again = RegistryService(SqliteDAO(path))
    warm = VectorIndex()
    assert again.attach_index(warm) == "fresh"
    assert live_shards(warm) == live_shards(index)
    again.dao.close()


# ---------------------------------------------------------------------------
# (d) torn shards: a winning id the record table cannot back
# ---------------------------------------------------------------------------
class TestTornByRecordTable:
    @pytest.mark.parametrize(
        # "Tail" is journaled in alice's desc chain, past the base slab;
        # "alicePE5" sits in the slab itself (and in her code chain)
        "victim_name, victim_kinds",
        [("Tail", {KIND_DESC}), ("alicePE5", {KIND_DESC, KIND_CODE})],
    )
    @pytest.mark.parametrize(
        "damage, whole_row, rebuilds",
        [
            ("DELETE FROM pes WHERE pe_id = :id", True, True),
            ("UPDATE pes SET desc_embedding = NULL WHERE pe_id = :id",
             False, True),
            # a row of another width cannot be stacked into a rebuild
            # either: that stays the error a corrupt record row is
            ("UPDATE pes SET desc_embedding = :narrow WHERE pe_id = :id",
             False, False),
        ],
    )
    def test_discards_only_that_shard(
        self, tmp_path, damage, whole_row, rebuilds, victim_name, victim_kinds
    ):
        rng = np.random.default_rng(84)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        dao = SqliteDAO(path)
        victim = dao.find_pe_by_name(victim_name)[0]
        dao._conn.execute(
            damage,
            {
                "id": victim.pe_id,
                "narrow": np.ones(DIM // 2, dtype=np.float32).tobytes(),
            },
        )
        dao._conn.commit()
        torn = {
            (alice.user_id, kind)
            for kind in (victim_kinds if whole_row else {KIND_DESC})
        }
        shards, discarded = dao.load_index_shards()
        assert discarded == len(torn)
        assert set(shards) == set(dao.shard_stamps()) - torn
        if rebuilds:
            service = RegistryService(dao)
            index = VectorIndex()
            assert service.attach_index(index) == "partial"
            assert service.shard_persistence()["discardedShards"] == len(torn)
            assert not index.contains(alice.user_id, KIND_DESC, victim.pe_id)
            assert_persisted_equals_live(dao, index)
            assert_equals_brute_force(index, dao)
        else:
            with pytest.raises(ValueError, match="dimension mismatch"):
                RegistryService(dao).attach_index(VectorIndex())
        dao.close()

    def test_slab_id_of_a_record_the_user_no_longer_owns(self, tmp_path):
        """Membership is the owner table's to say: a slab id whose
        ownership row is gone is not filled from a row that still
        exists under someone else's name."""
        rng = np.random.default_rng(87)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        dao = SqliteDAO(path)
        victim = dao.find_pe_by_name("alicePE5")[0]
        dao._conn.execute(
            "UPDATE pe_owners SET user_id = ? WHERE pe_id = ?",
            (bob.user_id, victim.pe_id),
        )
        dao._conn.commit()
        shards, discarded = dao.load_index_shards()
        assert discarded == 2
        assert set(shards) == set(dao.shard_stamps()) - {
            (alice.user_id, KIND_DESC), (alice.user_id, KIND_CODE)
        }
        dao.close()


# ---------------------------------------------------------------------------
# (e) attach reads one state of the file
# ---------------------------------------------------------------------------
class TestOneReadTransaction:
    @pytest.mark.parametrize("foreign_op", ["revise", "delete"])
    def test_foreign_write_between_journal_read_and_row_scan(
        self, tmp_path, foreign_op
    ):
        """Another process commits while attach is between reading the
        journal and scanning the rows.  What loads must be the registry
        as of the counter attach read — not old membership filled with
        new vectors, which would claim freshness at a stamp it is not
        the state of."""
        rng = np.random.default_rng(88)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        reference = VectorIndex()
        before = RegistryService(SqliteDAO(path))
        assert before.attach_index(reference, persist=False) == "fresh"
        counter = before.dao.mutation_counter()
        before.dao.close()

        dao = SqliteDAO(path)
        foreign = SqliteDAO(path)  # another process's connection
        scan = dao._scan_owned
        landed = []

        def scan_after_foreign_write(user_id, table, kinds):
            if not landed:
                victim = foreign.find_pe_by_name("alicePE5")[0]
                if foreign_op == "revise":
                    victim.desc_embedding = unit(rng)
                    victim.code_embedding = unit(rng)
                    foreign.update_pe(victim)
                else:
                    foreign.delete_pe(victim.pe_id)
                landed.append(victim.pe_id)
            return scan(user_id, table, kinds)

        dao._scan_owned = scan_after_foreign_write
        service = RegistryService(dao)
        index = VectorIndex()
        assert service.attach_index(index) == "fresh"
        assert landed and foreign.mutation_counter() == counter + 1
        assert live_shards(index) == live_shards(reference)
        # the index knows which counter it reflects: it will not vouch
        # for the file as the foreign writer left it
        assert service._index_counter == counter
        assert service.persist_shards() is False
        dao.close()

        # the foreign write journaled itself; the next attach has it
        again = RegistryService(foreign)
        warm = VectorIndex()
        assert again.attach_index(warm) == "fresh"
        assert live_shards(warm) != live_shards(reference)
        assert_equals_brute_force(warm, foreign)
        foreign.close()

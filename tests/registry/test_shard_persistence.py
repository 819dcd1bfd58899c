"""Persisted index slabs: zero-rebuild cold start and freshness rules."""

import numpy as np

from repro.registry.dao import InMemoryDAO, SqliteDAO
from repro.registry.service import RegistryService
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW, VectorIndex
from tests.registry.test_dao import make_pe, make_wf

DIM = 8


def unit(rng):
    vec = rng.standard_normal(DIM).astype(np.float32)
    return vec / np.linalg.norm(vec)


class CallCountingDAO:
    """Transparent proxy counting full-corpus deserialization calls."""

    def __init__(self, inner):
        self.inner = inner
        self.all_pes_calls = 0
        self.all_workflows_calls = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name == "all_pes":
            def wrapped(*a, **kw):
                self.all_pes_calls += 1
                return attr(*a, **kw)
            return wrapped
        if name == "all_workflows":
            def wrapped(*a, **kw):
                self.all_workflows_calls += 1
                return attr(*a, **kw)
            return wrapped
        return attr


def populate(dao, rng, n_pes=12, n_workflows=3):
    service = RegistryService(dao)
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    for user, count in ((alice, n_pes), (bob, 4)):
        for i in range(count):
            service.add_pe(
                user,
                make_pe(
                    f"{user.user_name}PE{i}",
                    code=f"{user.user_name}:{i}".encode().hex(),
                    description=f"element {i} of {user.user_name}",
                    desc_embedding=unit(rng),
                    code_embedding=unit(rng),
                ),
            )
    for i in range(n_workflows):
        # make_wf does not plumb embeddings through; set them directly
        wf = make_wf(f"aliceFlow{i}", code=f"wf:{i}".encode().hex())
        wf.desc_embedding = unit(rng)
        service.add_workflow(alice, wf)
    return service, alice, bob


def attach_with_bases(service):
    """Attach an index and write every shard's base slab: the DAO
    journals each write itself, so a small registry has chains but no
    base until a fold — these tests damage the bases."""
    index = VectorIndex()
    service.attach_index(index)
    service.dao.save_index_shards(
        {key: ids for key, (ids, _matrix) in index.snapshot().items()},
        service.dao.mutation_counter(),
    )
    return index


class TestSqliteColdStart:
    def test_warm_attach_skips_all_corpus_deserialization(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        # the DAO journaled every write in the write's own transaction:
        # even the first boot replays instead of paying the full pass
        assert service.attach_index(VectorIndex()) == "fresh"
        service.dao.close()

        counted = CallCountingDAO(SqliteDAO(path))
        restarted = RegistryService(counted)
        mode = restarted.attach_index(VectorIndex())
        assert mode == "fresh"
        assert counted.all_pes_calls == 0
        assert counted.all_workflows_calls == 0

    def test_warm_attach_restores_identical_shards(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "registry.db"
        service, alice, bob = populate(SqliteDAO(path), rng)
        cold = VectorIndex()
        service.attach_index(cold)
        service.dao.close()

        restarted = RegistryService(SqliteDAO(path))
        warm = VectorIndex()
        assert restarted.attach_index(warm) == "fresh"
        cold_shards = cold.export_shards()
        warm_shards = warm.export_shards()
        assert set(cold_shards) == set(warm_shards)
        for key in cold_shards:
            np.testing.assert_array_equal(
                cold_shards[key][0], warm_shards[key][0]
            )
            # bitwise: persisted vectors round-trip exactly
            assert np.array_equal(cold_shards[key][1], warm_shards[key][1])

    def test_warm_attach_serves_identical_results(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        cold = VectorIndex()
        service.attach_index(cold)
        query = unit(rng)
        owned = service.owned_pe_ids(alice)
        reference = cold.search_among(alice.user_id, KIND_DESC, owned, query, 5)
        service.dao.close()

        restarted = RegistryService(SqliteDAO(path))
        warm = VectorIndex()
        restarted.attach_index(warm)
        user = restarted.get_user("alice")
        got = warm.search_among(
            user.user_id, KIND_DESC, restarted.owned_pe_ids(user), query, 5
        )
        assert got is not None and reference is not None
        assert got[0] == reference[0]
        assert np.array_equal(got[1], reference[1])

    def test_journaled_mutation_keeps_snapshot_fresh(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        service.attach_index(VectorIndex())
        assert service.shard_persistence()["fresh"]
        # a post-persist write appends its rows to the delta journal
        # inline, so the persisted state tracks the live index without
        # a re-export — and the next cold start replays it
        service.add_pe(
            alice, make_pe("Late", code="bGF0ZQ==", desc_embedding=unit(rng))
        )
        report = service.shard_persistence()
        assert report["fresh"]
        assert report["journal"]["rows"] > 0
        service.dao.close()

        counted = CallCountingDAO(SqliteDAO(path))
        restarted = RegistryService(counted)
        index = VectorIndex()
        assert restarted.attach_index(index) == "fresh"
        assert counted.all_pes_calls == 0
        user = restarted.get_user("alice")
        late = restarted.get_pe_by_name(user, "Late")
        assert index.contains(user.user_id, KIND_DESC, late.pe_id)

    def test_journaled_remove_replays_on_attach(self, tmp_path):
        rng = np.random.default_rng(15)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        service.attach_index(VectorIndex())
        victim = service.user_pes(alice)[0]
        service.remove_pe(alice, victim.pe_id)
        assert service.shard_persistence()["fresh"]
        service.dao.close()

        restarted = RegistryService(SqliteDAO(path))
        index = VectorIndex()
        assert restarted.attach_index(index) == "fresh"
        user = restarted.get_user("alice")
        assert not index.contains(user.user_id, KIND_DESC, victim.pe_id)

    def test_attach_without_persist_writes_no_base(self, tmp_path):
        """``persist=False`` stops base writes and folds, not
        journaling: the journal alone carries the shards."""
        rng = np.random.default_rng(16)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        assert service.attach_index(VectorIndex(), persist=False) == "fresh"
        for i in range(80):  # far past the fold floor
            service.add_pe(
                alice,
                make_pe(
                    f"More{i}",
                    code=f"more:{i}".encode().hex(),
                    desc_embedding=unit(rng),
                ),
            )
        meta = service.dao.index_shards_meta()
        assert (meta["counter"], meta["shards"]) == (None, 0)
        assert service.shard_persistence()["journal"]["compactions"] == 0
        service.dao.close()

        restarted = RegistryService(SqliteDAO(path))
        index = VectorIndex()
        assert restarted.attach_index(index, persist=False) == "fresh"
        user = restarted.get_user("alice")
        assert index.ids(user.user_id, KIND_DESC) == restarted.owned_pe_ids(user)

    def test_persist_skipped_when_registry_mutates_mid_export(self, tmp_path):
        rng = np.random.default_rng(17)
        # alice's chains are past the fold floor, so a persist has
        # slabs to export
        service, alice, _ = populate(
            SqliteDAO(tmp_path / "r.db"), rng, n_pes=70
        )
        index = VectorIndex()
        service.attach_index(index, persist=False)

        real_export = index.ids

        def mutating_export(*a, **kw):
            service.add_pe(
                alice,
                make_pe("Race", code="cmFjZQ==", desc_embedding=unit(rng)),
            )
            return real_export(*a, **kw)

        index.ids = mutating_export
        assert service.persist_shards() is False
        assert service.dao.index_shards_meta()["counter"] is None
        index.ids = real_export
        assert service.persist_shards() is True
        assert service.shard_persistence()["fresh"]

    def test_foreign_write_never_stamped_fresh(self, tmp_path):
        """A write from another process (second DAO connection) between
        index sync and persist must block the save — the in-memory index
        never saw that record, so a snapshot stamped with the bumped
        counter would serve stale results as 'fresh' forever."""
        rng = np.random.default_rng(23)
        path = tmp_path / "registry.db"
        service, alice, _ = populate(SqliteDAO(path), rng)
        service.attach_index(VectorIndex(), persist=False)

        foreign = SqliteDAO(path)  # another process's connection
        foreign.insert_pe(
            make_pe(
                "Foreign",
                code="Zm9yZWlnbg==",
                desc_embedding=unit(rng),
                owners={alice.user_id},
            )
        )
        foreign.close()

        assert service.persist_shards() is False
        assert service.dao.index_shards_meta()["counter"] is None

    def test_corrupt_slab_blob_forces_rebuild(self, tmp_path):
        """A truncated ids blob must be ignored (rebuild), not crash
        attach with a reshape error."""
        rng = np.random.default_rng(24)
        path = tmp_path / "registry.db"
        service, _, _ = populate(SqliteDAO(path), rng)
        attach_with_bases(service)
        service.dao._conn.execute(
            "UPDATE index_shards SET ids = X'00112233'"
        )
        service.dao._conn.commit()
        shards, discarded = service.dao.load_index_shards()
        assert shards == {} and discarded > 0
        service.dao.close()
        restarted = RegistryService(SqliteDAO(path))
        assert restarted.attach_index(VectorIndex()) == "rebuilt"

    def test_torn_snapshot_is_ignored(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "registry.db"
        service, _, _ = populate(SqliteDAO(path), rng)
        attach_with_bases(service)
        # simulate a crash mid-save: code rows stamped past their shard
        service.dao._conn.execute(
            "UPDATE index_shards SET mutation_counter = mutation_counter + 1"
            " WHERE kind = ?",
            (KIND_CODE,),
        )
        service.dao._conn.commit()
        shards, discarded = service.dao.load_index_shards()
        assert discarded == 0  # every row still decodes
        service.dao.close()
        counted = CallCountingDAO(SqliteDAO(path))
        restarted = RegistryService(counted)
        # only the torn code shards (tip ≠ stamp) rebuild; desc and
        # workflow slabs replay untouched
        assert restarted.attach_index(VectorIndex()) == "partial"
        assert counted.all_pes_calls == 0

    def test_schema_v1_file_migrates_and_journals(self, tmp_path):
        # a pre-v2 file has no slab tables; opening it must create them
        # and, the file being empty, every shard is born journaled
        import sqlite3

        path = tmp_path / "old.db"
        dao = SqliteDAO(path)
        dao.close()
        conn = sqlite3.connect(path)
        conn.executescript(
            "DROP TABLE index_shards; DROP TABLE registry_meta;"
            "PRAGMA user_version = 1;"
        )
        conn.close()
        reopened = SqliteDAO(path)
        assert reopened.mutation_counter() == 0
        rng = np.random.default_rng(19)
        service, _, _ = populate(reopened, rng)
        assert service.attach_index(VectorIndex()) == "fresh"
        assert service.shard_persistence()["fresh"]


class TestInMemoryCounter:
    def test_counter_tracks_every_write(self):
        dao = InMemoryDAO()
        service = RegistryService(dao)
        alice = service.register_user("alice", "pw")
        assert dao.mutation_counter() == 0  # users don't stale shards
        rng = np.random.default_rng(20)
        record = make_pe("A", desc_embedding=unit(rng))
        service.add_pe(alice, record)
        after_add = dao.mutation_counter()
        assert after_add > 0
        service.remove_pe(alice, record.pe_id)
        assert dao.mutation_counter() > after_add

    def test_snapshot_roundtrip_and_freshness(self):
        dao = InMemoryDAO()
        service = RegistryService(dao)
        alice = service.register_user("alice", "pw")
        rng = np.random.default_rng(21)
        for i in range(5):
            service.add_pe(
                alice,
                make_pe(
                    f"PE{i}",
                    code=f"c{i}".encode().hex(),
                    desc_embedding=unit(rng),
                ),
            )
        index = VectorIndex()
        assert service.attach_index(index) == "fresh"
        assert service.shard_persistence()["fresh"]
        # a second service over the same live DAO attaches fresh
        twin = RegistryService(dao)
        assert twin.attach_index(VectorIndex()) == "fresh"

    def test_workflow_shards_roundtrip(self):
        dao = InMemoryDAO()
        service = RegistryService(dao)
        alice = service.register_user("alice", "pw")
        rng = np.random.default_rng(22)
        wf = make_wf("flow")
        wf.desc_embedding = unit(rng)
        service.add_workflow(alice, wf)
        service.attach_index(VectorIndex())
        twin = RegistryService(dao)
        index = VectorIndex()
        assert twin.attach_index(index) == "fresh"
        assert index.contains(alice.user_id, KIND_WORKFLOW, wf.workflow_id)

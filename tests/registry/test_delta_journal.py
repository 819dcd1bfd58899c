"""Delta-journal integrity: torn chains, crash artifacts, foreign writers.

Every failure mode a journaled registry can wake up to — a chain whose
counters stopped increasing (crash mid-compaction), a truncated journal
row (torn WAL page), a stamp the journal never saw (a raw-SQL writer on
the same file) — must discard and rebuild exactly the affected shard.
The other tenants' slabs replay untouched, with zero full-corpus
deserialization.  A foreign writer that goes through a DAO is not a
failure mode at all: the DAO journals inside the mutation's own
transaction, whoever calls it.  Both DAOs enforce the same contract.
"""

import numpy as np
import pytest

from repro.registry.dao import InMemoryDAO, SqliteDAO
from repro.registry.service import RegistryService
from repro.search import KIND_CODE, KIND_DESC, VectorIndex
from tests.registry.test_dao import make_pe
from tests.registry.test_journal_in_transaction import (
    assert_equals_brute_force,
)

DIM = 8


def unit(rng):
    vec = rng.standard_normal(DIM).astype(np.float32)
    return vec / np.linalg.norm(vec)


class RecordingDAO:
    """Transparent proxy recording full-corpus loads and the users
    whose shards were rebuilt from their record rows."""

    def __init__(self, inner):
        self.inner = inner
        self.all_pes_calls = 0
        self.all_workflows_calls = 0
        self.rebuilt_users = []

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
        if name == "owned_vectors":
            def wrapped(user_id, *a, **kw):
                self.rebuilt_users.append(int(user_id))
                return attr(user_id, *a, **kw)
            return wrapped
        return attr


@pytest.fixture(params=["inmemory", "sqlite"])
def dao_factory(request, tmp_path):
    """Reopenable DAO constructor: same backing store on every call."""
    if request.param == "inmemory":
        dao = InMemoryDAO()
        return lambda: dao
    path = tmp_path / "registry.db"
    return lambda: SqliteDAO(path)


def build(dao_factory, rng, n=6):
    """A journaling service over two users' populated shards."""
    service = RegistryService(dao_factory())
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    service.attach_index(VectorIndex())
    for user in (alice, bob):
        for i in range(n):
            service.add_pe(
                user,
                make_pe(
                    f"{user.user_name}PE{i}",
                    code=f"{user.user_name}:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=unit(rng),
                    code_embedding=unit(rng),
                ),
            )
    assert service.shard_persistence()["fresh"]
    return service, alice, bob


def reattach(dao_factory):
    counted = RecordingDAO(dao_factory())
    restarted = RegistryService(counted)
    index = VectorIndex()
    mode = restarted.attach_index(index)
    return restarted, counted, index, mode


def raise_stamp(dao, key):
    """What a writer that bypasses the DAO leaves behind: the shard's
    stamp moved, no journal row."""
    if isinstance(dao, SqliteDAO):
        dao._conn.execute(
            "UPDATE shard_stamps SET mutation_counter = mutation_counter + 1"
            " WHERE user_id = ? AND kind = ?",
            key,
        )
        dao._conn.commit()
    else:
        dao._shard_stamps[key] += 1


class TestTornChains:
    def test_non_increasing_chain_rebuilds_only_that_shard(
        self, dao_factory
    ):
        """Crash mid-compaction leaves a base slab stamped *past* part
        of its chain: replay refuses the non-increasing counters and
        rebuilds that shard alone."""
        rng = np.random.default_rng(31)
        service, alice, bob = build(dao_factory, rng)
        # an orphaned pre-compaction delta: counter below the chain tip
        service.dao.append_index_delta(
            alice.user_id, KIND_DESC, "add", [1], counter=1
        )
        if hasattr(service.dao, "close"):
            service.dao._conn.commit()
            service.dao.close()

        fresh_dao = dao_factory()
        shards, discarded = fresh_dao.load_index_shards()
        assert discarded == 1
        assert (alice.user_id, KIND_DESC) not in shards
        assert (alice.user_id, KIND_CODE) in shards
        assert (bob.user_id, KIND_DESC) in shards
        if hasattr(fresh_dao, "close"):
            fresh_dao.close()

        restarted, counted, index, mode = reattach(dao_factory)
        assert mode == "partial"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == [alice.user_id]
        # the rebuilt shard serves every record again
        user = restarted.get_user("alice")
        for record in restarted.user_pes(user):
            assert index.contains(user.user_id, KIND_DESC, record.pe_id)

    def test_partial_journal_row_rebuilds_only_that_shard(self, tmp_path):
        """A truncated ids blob (torn WAL page) poisons one chain."""
        rng = np.random.default_rng(32)
        path = tmp_path / "registry.db"
        factory = lambda: SqliteDAO(path)
        service, alice, bob = build(factory, rng)
        service.dao._conn.execute(
            "UPDATE index_deltas SET ids = X'0011'"
            " WHERE user_id = ? AND kind = ?",
            (alice.user_id, KIND_CODE),
        )
        service.dao._conn.commit()
        service.dao.close()

        shards, discarded = factory().load_index_shards()
        assert discarded == 1
        assert (alice.user_id, KIND_CODE) not in shards
        assert (alice.user_id, KIND_DESC) in shards

        restarted, counted, index, mode = reattach(factory)
        assert mode == "partial"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == [alice.user_id]
        user = restarted.get_user("alice")
        for record in restarted.user_pes(user):
            assert index.contains(user.user_id, KIND_CODE, record.pe_id)

    def test_stamp_past_chain_tip_rebuilds_only_that_shard(self, tmp_path):
        """A stamp the journal never reached (counter bumped, append
        lost in a crash) marks exactly that shard stale."""
        rng = np.random.default_rng(33)
        path = tmp_path / "registry.db"
        factory = lambda: SqliteDAO(path)
        service, alice, bob = build(factory, rng)
        service.dao._conn.execute(
            "UPDATE shard_stamps SET mutation_counter = mutation_counter + 1"
            " WHERE user_id = ? AND kind = ?",
            (bob.user_id, KIND_DESC),
        )
        service.dao._conn.commit()
        service.dao.close()

        shards, discarded = factory().load_index_shards()
        assert discarded == 0  # the chain itself replays fine

        restarted, counted, index, mode = reattach(factory)
        assert mode == "partial"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == [bob.user_id]


class TestForeignWriters:
    def test_foreign_dao_writer_leaves_an_honest_chain(self, dao_factory):
        """A second service over the same store with *no* index attached
        still journals — the DAO does, in the write's transaction — so
        the cold start replays its rows like anyone else's."""
        rng = np.random.default_rng(34)
        service, alice, bob = build(dao_factory, rng)
        foreign = RegistryService(dao_factory())  # no attach
        foreign_user = foreign.get_user("bob")
        foreign.add_pe(
            foreign_user,
            make_pe(
                "Foreign",
                code="Zm9yZWlnbg==",
                description="landed without an index in sight",
                desc_embedding=unit(rng),
            ),
        )
        if hasattr(service.dao, "close"):
            service.dao.close()
            foreign.dao.close()

        restarted, counted, index, mode = reattach(dao_factory)
        assert mode == "fresh"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == []
        user = restarted.get_user("bob")
        landed = restarted.get_pe_by_name(user, "Foreign")
        assert index.contains(user.user_id, KIND_DESC, landed.pe_id)
        assert_equals_brute_force(index, dao_factory())

    def test_raw_sql_writer_stales_only_its_shard_until_rebuilt(
        self, dao_factory
    ):
        """Never wrongly fresh: a shard whose stamp moved without a
        journal row has a gap in its chain.  Later DAO writes stamp it
        but must not journal on top of the gap — tip == stamp again
        with the gap inside would load as fresh — so it stays stale
        until an attach rebuilds it, and is covered again after."""
        rng = np.random.default_rng(39)
        service, alice, bob = build(dao_factory, rng)
        key = (bob.user_id, KIND_DESC)
        raise_stamp(service.dao, key)
        chain_before = service.dao.shard_chain_meta()[key]
        for i in range(3):
            service.add_pe(
                bob,
                make_pe(
                    f"AfterGap{i}",
                    code=f"gap:{i}".encode().hex(),
                    description=f"written over a stale shard {i}",
                    desc_embedding=unit(rng),
                    code_embedding=unit(rng),
                ),
            )
        assert service.dao.shard_chain_meta()[key] == chain_before
        report = service.shard_persistence()
        assert not report["perShard"][f"{bob.user_id}/{KIND_DESC}"]["fresh"]
        # the same writes kept journaling the shard that had no gap
        assert report["perShard"][f"{bob.user_id}/{KIND_CODE}"]["fresh"]
        assert report["staleShards"] == 1
        if hasattr(service.dao, "close"):
            service.dao.close()

        restarted, counted, index, mode = reattach(dao_factory)
        assert mode == "partial"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == [bob.user_id]
        assert_equals_brute_force(index, dao_factory())
        # rebuilt at its stamp: covered, so the next write journals
        user = restarted.get_user("bob")
        restarted.add_pe(
            user,
            make_pe(
                "Covered",
                code="Y292ZXJlZA==",
                description="first write after the rebuild",
                desc_embedding=unit(rng),
            ),
        )
        assert restarted.shard_persistence()["fresh"]
        if hasattr(counted.inner, "close"):
            counted.inner.close()
        _again, counted, index, mode = reattach(dao_factory)
        assert mode == "fresh"
        assert counted.rebuilt_users == []
        assert_equals_brute_force(index, dao_factory())

    def test_cross_process_wal_interleaving(self, tmp_path):
        """Writes from two live connections on one WAL file interleave;
        each commit carries its own journal rows at the counter it
        bumped, so the file's chains stay honest for both."""
        rng = np.random.default_rng(35)
        path = tmp_path / "registry.db"
        factory = lambda: SqliteDAO(path)
        service, alice, bob = build(factory, rng)
        foreign = SqliteDAO(path)  # another process's connection
        for i in range(3):
            foreign.insert_pe(
                make_pe(
                    f"Foreign{i}",
                    code=f"foreign:{i}".encode().hex(),
                    description=f"foreign write {i}",
                    desc_embedding=unit(rng),
                    owners={bob.user_id},
                )
            )
            # the journaling service keeps writing between foreign commits
            service.add_pe(
                alice,
                make_pe(
                    f"Interleaved{i}",
                    code=f"inter:{i}".encode().hex(),
                    description=f"interleaved write {i}",
                    desc_embedding=unit(rng),
                ),
            )
        # the live index never saw the foreign rows, and the service
        # knows: its tracked counter lags the file's, so it refuses to
        # cite its slabs as truth
        assert service.persist_shards() is False
        foreign.close()
        service.dao.close()

        restarted, counted, index, mode = reattach(factory)
        assert mode == "fresh"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == []
        user = restarted.get_user("bob")
        for i in range(3):
            landed = restarted.get_pe_by_name(user, f"Foreign{i}")
            assert index.contains(user.user_id, KIND_DESC, landed.pe_id)
        alice2 = restarted.get_user("alice")
        for i in range(3):
            kept = restarted.get_pe_by_name(alice2, f"Interleaved{i}")
            assert index.contains(alice2.user_id, KIND_DESC, kept.pe_id)
        assert_equals_brute_force(index, factory())


def record_folds(service):
    """Rows every base upsert writes from here on, per call."""
    written = []
    upsert = service.dao.upsert_index_shards

    def recording(shards, stamp):
        written.extend(len(ids) for ids in shards.values())
        return upsert(shards, stamp)

    service.dao.upsert_index_shards = recording
    return written


def assert_chains_bounded(service):
    for stats in service.dao.shard_chain_meta().values():
        assert stats["chainRows"] <= max(64, stats["rows"])


class TestCompaction:
    """The fold rule: a shard's chain folds into its base once the rows
    journaled since the last fold reach ``max(64, base rows)``."""

    def test_inline_compaction_folds_chain_and_stays_fresh(
        self, dao_factory
    ):
        rng = np.random.default_rng(36)
        service = RegistryService(dao_factory())
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        folded = record_folds(service)
        n = 300
        for i in range(n):
            service.add_pe(
                alice,
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=unit(rng),
                ),
            )
            # the chain a restart replays never outgrows its base
            assert_chains_bounded(service)
        report = service.shard_persistence()
        assert report["fresh"]
        # folds at 64, 128 and 256 rows: each rewrites at most twice
        # what the journal it retired had added
        assert folded == [64, 128, 256]
        assert report["journal"]["compactions"] == len(folded)
        assert sum(folded) <= 2 * n + 64
        shard = report["perShard"][f"{alice.user_id}/{KIND_DESC}"]
        assert (shard["baseRows"], shard["chainRows"]) == (256, n - 256)
        if hasattr(service.dao, "close"):
            service.dao.close()

        restarted, counted, index, mode = reattach(dao_factory)
        assert mode == "fresh"
        assert counted.all_pes_calls == 0
        assert counted.rebuilt_users == []
        user = restarted.get_user("alice")
        assert len(restarted.user_pes(user)) == n
        for record in restarted.user_pes(user):
            assert index.contains(user.user_id, KIND_DESC, record.pe_id)
        # the accounting is seeded from the file: the restarted service
        # folds where the first one would have
        folded = record_folds(restarted)
        for i in range(n, 512):
            restarted.add_pe(
                user,
                make_pe(
                    f"PE{i}",
                    code=f"c:{i}".encode().hex(),
                    description=f"element {i}",
                    desc_embedding=unit(rng),
                ),
            )
        assert folded == [512]

    def test_removes_count_toward_the_fold_and_the_bound_holds(
        self, dao_factory
    ):
        """Replay pays per journaled row, removes included."""
        rng = np.random.default_rng(37)
        service, alice, _bob = build(dao_factory, rng, n=40)
        folded = record_folds(service)
        for i in range(30):
            service.remove_pe_by_name(alice, f"alicePE{i}")
            assert_chains_bounded(service)
        # 40 adds + 24 removes reach the floor on both of alice's shards
        assert folded == [16, 16]
        assert service.shard_persistence()["fresh"]
        if hasattr(service.dao, "close"):
            service.dao.close()
        restarted, counted, index, mode = reattach(dao_factory)
        assert mode == "fresh"
        user = restarted.get_user("alice")
        assert index.ids(user.user_id, KIND_DESC) == [
            record.pe_id for record in restarted.user_pes(user)
        ]

    def test_persist_shards_folds_the_chain_a_deferred_bulk_left(
        self, dao_factory
    ):
        """A persist-deferred bulk caller (an ingest job) journals
        without folding; its closing ``persist_shards`` folds once."""
        rng = np.random.default_rng(38)
        service = RegistryService(dao_factory())
        alice = service.register_user("alice", "pw")
        service.attach_index(VectorIndex())
        folded = record_folds(service)
        for batch in range(5):
            service.register_pes_bulk(
                alice,
                [
                    make_pe(
                        f"PE{batch}_{i}",
                        code=f"c:{batch}:{i}".encode().hex(),
                        description=f"element {i}",
                        desc_embedding=unit(rng),
                        code_embedding=unit(rng),
                    )
                    for i in range(32)
                ],
                persist=False,
            )
        assert folded == []
        key = (alice.user_id, KIND_DESC)
        assert service.dao.shard_chain_meta()[key]["chainRows"] == 160

        assert service.persist_shards()
        assert folded == [160, 160]
        report = service.shard_persistence()
        assert report["fresh"]
        assert report["journal"]["compactions"] == 2
        for stats in service.dao.shard_chain_meta().values():
            assert (stats["rows"], stats["chainRows"]) == (160, 0)
        # nothing is due any more: a second persist writes nothing
        assert service.persist_shards()
        assert folded == [160, 160]
        if hasattr(service.dao, "close"):
            service.dao.close()
        _restarted, counted, _index, mode = reattach(dao_factory)
        assert mode == "fresh"
        assert counted.rebuilt_users == []

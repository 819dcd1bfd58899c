"""Persisted IVF training state: warm restores, stale/torn rejection.

The IVF backend's trained centroids + inverted lists persist next to
the slab snapshot, each shard stamped with the *same* per-shard
mutation stamp its slab carries (``RegistryService.persist_shards``
saves both; ``attach_approx_backend`` restores on attach).  A warm
cold start then skips the lazy k-means retrain entirely; any mismatch
— registry mutated since the stamp (stale) or a torn/corrupt row from
a crash mid-save — discards exactly that shard's state, which is
always correct (it retrains lazily).
"""

import numpy as np
import pytest

from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search.backend import IVFFlatBackend
from repro.search.index import KIND_DESC, VectorIndex

N = 200
DIM = 32
IVF_OPTS = dict(nlist=8, nprobe=2, min_train_rows=16)


def unit(rng) -> np.ndarray:
    vec = rng.standard_normal(DIM).astype(np.float32)
    return vec / np.linalg.norm(vec)


def populate(service: RegistryService, user, n: int = N) -> None:
    rng = np.random.default_rng(7)
    records = [
        PERecord(
            pe_id=0,
            pe_name=f"pe{i}",
            description=f"element {i}",
            pe_code=f"def pe{i}(): pass",
            desc_embedding=unit(rng),
            code_embedding=unit(rng),
        )
        for i in range(n)
    ]
    service.register_pes_bulk(user, records)


@pytest.fixture()
def stack(tmp_path):
    """A populated SQLite registry with a trained IVF backend."""
    path = tmp_path / "reg.db"
    dao = SqliteDAO(path)
    service = RegistryService(dao, index=VectorIndex())
    user = service.register_user("u", "p")
    populate(service, user)
    ivf = IVFFlatBackend(service.index, **IVF_OPTS)
    assert service.attach_approx_backend(ivf) == "untrained"
    return path, dao, service, user, ivf


def reopen(path, *, attach_ivf: bool = True):
    dao = SqliteDAO(path)
    service = RegistryService(dao)
    mode = service.attach_index(VectorIndex(), persist=False)
    ivf = IVFFlatBackend(service.index, **IVF_OPTS)
    state = service.attach_approx_backend(ivf) if attach_ivf else None
    return dao, service, ivf, mode, state


class TestWarmRestore:
    def test_restored_backend_skips_training_and_matches(self, stack):
        path, dao, service, user, ivf = stack
        rng = np.random.default_rng(11)
        query = unit(rng)
        first = ivf.search(user.user_id, KIND_DESC, query, k=5)
        assert ivf.trainings == 1 and ivf.approx_queries == 1
        assert service.persist_shards() is True
        stamps, states = dao.load_ivf_states()
        assert states
        assert set(stamps.values()) == {dao.mutation_counter()}

        dao2, service2, ivf2, mode, state = reopen(path)
        assert mode == "fresh"
        assert state == "restored"
        second = ivf2.search(user.user_id, KIND_DESC, query, k=5)
        # zero k-means retrains on the warm path, and the restored
        # lists reproduce the original probe-and-rerank result exactly
        assert ivf2.trainings == 0 and ivf2.approx_queries == 1
        assert second[0] == first[0]
        assert np.array_equal(second[1], first[1])

    def test_stats_report_restored_lists(self, stack):
        path, dao, service, user, ivf = stack
        ivf.search(user.user_id, KIND_DESC, unit(np.random.default_rng(3)), k=5)
        service.persist_shards()
        _, _, ivf2, _, state = reopen(path)
        assert state == "restored"
        shard_stats = ivf2.stats()[f"{user.user_id}/{KIND_DESC}"]
        assert shard_stats["ivfLists"] > 0


class TestStaleAndTorn:
    def test_mutation_after_persist_marks_stale(self, stack):
        path, dao, service, user, ivf = stack
        ivf.search(user.user_id, KIND_DESC, unit(np.random.default_rng(5)), k=5)
        assert service.persist_shards() is True
        # one more write lands after the snapshot
        service.add_pe(
            user,
            PERecord(
                pe_id=0,
                pe_name="late",
                description="late arrival",
                pe_code="def late(): pass",
                desc_embedding=unit(np.random.default_rng(6)),
            ),
        )
        dao2, service2, ivf2, mode, state = reopen(path)
        # the delta journal carried the late write, so the slab itself
        # replays fresh — but the IVF state was stamped before it
        assert mode == "fresh"
        assert state == "stale"
        # the stale lists never serve: the next query retrains
        ivf2.search(user.user_id, KIND_DESC, unit(np.random.default_rng(8)), k=5)
        assert ivf2.trainings == 1

    def test_torn_snapshot_is_ignored(self, stack):
        import sqlite3

        path, dao, service, user, ivf = stack
        rng = np.random.default_rng(9)
        # train two shards so the snapshot holds two rows
        from repro.search.index import KIND_CODE

        ivf.search(user.user_id, KIND_DESC, unit(rng), k=5)
        ivf.search(user.user_id, KIND_CODE, unit(rng), k=5)
        assert service.persist_shards() is True
        dao.close()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM ivf_states").fetchone()[0] == 2
        conn.execute(
            "UPDATE ivf_states SET mutation_counter = mutation_counter + 1"
            " WHERE kind = ?",
            (KIND_CODE,),
        )
        conn.commit()
        conn.close()
        dao2, service2, ivf2, mode, state = reopen(path)
        stamps, states = dao2.load_ivf_states()
        assert len(states) == 2  # both rows still decode
        assert mode == "fresh"  # the slab snapshot itself is intact
        # per-shard stamps: only the overwritten code row is torn; the
        # intact desc state still restores
        assert state == "restored"
        ivf2.search(user.user_id, KIND_DESC, unit(np.random.default_rng(12)), k=5)
        assert ivf2.trainings == 0  # desc serves from the restored lists
        ivf2.search(user.user_id, KIND_CODE, unit(np.random.default_rng(13)), k=5)
        assert ivf2.trainings == 1  # the torn code shard retrains lazily

    def test_corrupt_blob_forces_retrain(self, stack):
        import sqlite3

        path, dao, service, user, ivf = stack
        ivf.search(user.user_id, KIND_DESC, unit(np.random.default_rng(4)), k=5)
        assert service.persist_shards() is True
        dao.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE ivf_states SET members = X'00'")
        conn.commit()
        conn.close()
        dao2, _, _, _, state = reopen(path)
        assert dao2.load_ivf_states() == ({}, {})
        assert state == "untrained"


class TestAdoptionSanity:
    def test_adopt_rejects_inconsistent_states(self, stack):
        path, dao, service, user, ivf = stack
        shard_key = (user.user_id, KIND_DESC)
        centroids = np.zeros((2, DIM), dtype=np.float32)
        # member lists that do not cover the live slab exactly
        bogus = {shard_key: (centroids, [np.array([0, 1], dtype=np.int64)])}
        assert ivf.adopt_states(bogus) == 0
        # wrong centroid width
        bad_dim = {
            shard_key: (
                np.zeros((2, DIM + 1), dtype=np.float32),
                [np.arange(N, dtype=np.int64)],
            )
        }
        assert ivf.adopt_states(bad_dim) == 0
        # out-of-range member rows
        out_of_range = {
            shard_key: (
                centroids,
                [np.arange(N, dtype=np.int64) + 5],
            )
        }
        assert ivf.adopt_states(out_of_range) == 0

    def test_export_excludes_stale_shards(self, stack):
        path, dao, service, user, ivf = stack
        ivf.search(user.user_id, KIND_DESC, unit(np.random.default_rng(2)), k=5)
        assert ivf.export_states()
        # mutate the shard: the trained state no longer matches
        service.add_pe(
            user,
            PERecord(
                pe_id=0,
                pe_name="mutator",
                description="shifts rows",
                pe_code="def mutator(): pass",
                desc_embedding=unit(np.random.default_rng(1)),
            ),
        )
        assert ivf.export_states() == {}


class TestInMemoryRoundTrip:
    def test_states_round_trip_through_inmemory_dao(self):
        dao = SqliteDAO()
        service = RegistryService(dao, index=VectorIndex())
        user = service.register_user("m", "p")
        populate(service, user, n=64)
        ivf = IVFFlatBackend(service.index, **IVF_OPTS)
        service.attach_approx_backend(ivf)
        ivf.search(user.user_id, KIND_DESC, unit(np.random.default_rng(0)), k=5)
        assert service.persist_shards() is True
        stamps, states = dao.load_ivf_states()
        assert set(stamps.values()) == {dao.mutation_counter()}
        exported = ivf.export_states()
        assert set(states) == set(exported)
        for key in exported:
            assert np.array_equal(states[key][0], exported[key][0])
            assert len(states[key][1]) == len(exported[key][1])
            for stored_list, live_list in zip(states[key][1], exported[key][1]):
                assert np.array_equal(stored_list, live_list)


class TestServerColdStart:
    def test_laminar_server_restores_ivf_on_startup(self, tmp_path, fast_bundle):
        from repro.net.transport import Request
        from repro.server import LaminarServer

        path = tmp_path / "server.db"
        options = {"ivf": {"nlist": 4, "nprobe": 1, "min_train_rows": 8}}
        server1 = LaminarServer(
            dao=SqliteDAO(path), models=fast_bundle, backend_options=options
        )
        server1.dispatch(
            Request("POST", "/auth/register", {"userName": "s", "password": "p"})
        )
        token = server1.dispatch(
            Request("POST", "/auth/login", {"userName": "s", "password": "p"})
        ).body["token"]
        items = [
            {"peName": f"cold{i}", "peCode": f"def cold{i}(): pass",
             "description": f"cold start element {i}"}
            for i in range(12)
        ]
        server1.dispatch(
            Request(
                "POST", "/v1/registry/s/pes:bulk", {"items": items}, token=token
            )
        )
        search_body = {
            "query": "cold start element", "queryType": "semantic",
            "kind": "pe", "k": 3, "backend": "ivf",
        }
        first = server1.dispatch(
            Request("POST", "/v1/registry/s/search", search_body, token=token)
        )
        assert first.status == 200
        assert server1.backends["ivf"].trainings >= 1
        assert server1.registry.persist_shards() is True

        server2 = LaminarServer(
            dao=SqliteDAO(path), models=fast_bundle, backend_options=options
        )
        assert server2.backends["ivf"]._states  # restored, not lazy
        token2 = server2.dispatch(
            Request("POST", "/auth/login", {"userName": "s", "password": "p"})
        ).body["token"]
        second = server2.dispatch(
            Request("POST", "/v1/registry/s/search", search_body, token=token2)
        )
        assert second.status == 200
        assert server2.backends["ivf"].trainings == 0  # warm: no retrain
        assert second.body["hits"] == first.body["hits"]

"""Persisted HNSW graph state: warm restores, stale/torn rejection.

The HNSW backend's graph (per-row level assignment + base-layer
adjacency) persists next to the slab snapshot in its own state store
(``hnsw_states``), each shard stamped with the same per-shard
mutation stamp its slab carries (``RegistryService.persist_shards``
saves every companion; ``attach_approx_backend`` routes the restore by
the backend's ``state_store``).  A warm cold start then skips the
O(N²) lazy graph build entirely; any mismatch — registry mutated since
the stamp (stale) or a torn/corrupt row from a crash mid-save —
discards exactly that shard's graph, which is always correct (it
rebuilds lazily).
"""

import numpy as np
import pytest

from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search.backend import HNSWBackend, IVFFlatBackend
from repro.search.index import KIND_DESC, VectorIndex

N = 200
DIM = 32
HNSW_OPTS = dict(m=8, m0=24, ef_search=4, min_build_rows=16)


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
    """A populated SQLite registry with a built HNSW backend."""
    path = tmp_path / "reg.db"
    dao = SqliteDAO(path)
    service = RegistryService(dao, index=VectorIndex())
    user = service.register_user("u", "p")
    populate(service, user)
    hnsw = HNSWBackend(service.index, **HNSW_OPTS)
    assert service.attach_approx_backend(hnsw) == "untrained"
    return path, dao, service, user, hnsw


def reopen(path, *, attach_hnsw: bool = True):
    dao = SqliteDAO(path)
    service = RegistryService(dao)
    mode = service.attach_index(VectorIndex(), persist=False)
    hnsw = HNSWBackend(service.index, **HNSW_OPTS)
    state = service.attach_approx_backend(hnsw) if attach_hnsw else None
    return dao, service, hnsw, mode, state


class TestWarmRestore:
    def test_restored_backend_skips_build_and_matches(self, stack):
        path, dao, service, user, hnsw = stack
        rng = np.random.default_rng(11)
        query = unit(rng)
        first = hnsw.search(user.user_id, KIND_DESC, query, k=5)
        assert hnsw.builds == 1 and hnsw.approx_queries == 1
        assert service.persist_shards() is True
        stamps, states = dao.load_hnsw_states()
        assert states
        assert set(stamps.values()) == {dao.mutation_counter()}

        dao2, service2, hnsw2, mode, state = reopen(path)
        assert mode == "fresh"
        assert state == "restored"
        second = hnsw2.search(user.user_id, KIND_DESC, query, k=5)
        # zero graph rebuilds on the warm path, and the restored graph
        # reproduces the original route-and-expand result exactly
        assert hnsw2.builds == 0 and hnsw2.approx_queries == 1
        assert second[0] == first[0]
        assert np.array_equal(second[1], first[1])

    def test_stats_report_restored_entries(self, stack):
        path, dao, service, user, hnsw = stack
        hnsw.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(3)), k=5
        )
        service.persist_shards()
        _, _, hnsw2, _, state = reopen(path)
        assert state == "restored"
        shard_stats = hnsw2.stats()[f"{user.user_id}/{KIND_DESC}"]
        assert shard_stats["hnswEntries"] > 0

    def test_states_live_in_their_own_store(self, stack):
        """The HNSW snapshot never clobbers (or reads) the IVF one."""
        path, dao, service, user, hnsw = stack
        ivf = IVFFlatBackend(
            service.index, nlist=8, nprobe=2, min_train_rows=16
        )
        assert service.attach_approx_backend(ivf) == "untrained"
        query = unit(np.random.default_rng(21))
        hnsw.search(user.user_id, KIND_DESC, query, k=5)
        ivf.search(user.user_id, KIND_DESC, query, k=5)
        assert service.persist_shards() is True
        assert dao.load_hnsw_states()[1]
        assert dao.load_ivf_states()[1]
        dao2, service2, hnsw2, mode, state = reopen(path)
        assert state == "restored"
        ivf2 = IVFFlatBackend(
            service2.index, nlist=8, nprobe=2, min_train_rows=16
        )
        assert service2.attach_approx_backend(ivf2) == "restored"
        assert hnsw2.builds == 0 and ivf2.trainings == 0


class TestStaleAndTorn:
    def test_mutation_after_persist_marks_stale(self, stack):
        path, dao, service, user, hnsw = stack
        hnsw.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(5)), k=5
        )
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
        dao2, service2, hnsw2, mode, state = reopen(path)
        # the delta journal carried the late write, so the slab itself
        # replays fresh — but the graph state was stamped before it
        assert mode == "fresh"
        assert state == "stale"
        # the stale graph never serves: the next query rebuilds
        hnsw2.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(8)), k=5
        )
        assert hnsw2.builds == 1

    def test_torn_snapshot_is_ignored(self, stack):
        import sqlite3

        path, dao, service, user, hnsw = stack
        rng = np.random.default_rng(9)
        # build two shard graphs so the snapshot holds two rows
        from repro.search.index import KIND_CODE

        hnsw.search(user.user_id, KIND_DESC, unit(rng), k=5)
        hnsw.search(user.user_id, KIND_CODE, unit(rng), k=5)
        assert service.persist_shards() is True
        dao.close()
        conn = sqlite3.connect(path)
        assert (
            conn.execute("SELECT COUNT(*) FROM hnsw_states").fetchone()[0]
            == 2
        )
        conn.execute(
            "UPDATE hnsw_states SET mutation_counter = mutation_counter + 1"
            " WHERE kind = ?",
            (KIND_CODE,),
        )
        conn.commit()
        conn.close()
        dao2, service2, hnsw2, mode, state = reopen(path)
        stamps, states = dao2.load_hnsw_states()
        assert len(states) == 2  # both rows still decode
        assert mode == "fresh"  # the slab snapshot itself is intact
        # per-shard stamps: only the overwritten code row is torn; the
        # intact desc graph still restores
        assert state == "restored"
        hnsw2.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(12)), k=5
        )
        assert hnsw2.builds == 0  # desc serves from the restored graph
        hnsw2.search(
            user.user_id, KIND_CODE, unit(np.random.default_rng(13)), k=5
        )
        assert hnsw2.builds == 1  # the torn code shard rebuilds lazily

    def test_corrupt_blob_forces_rebuild(self, stack):
        import sqlite3

        path, dao, service, user, hnsw = stack
        hnsw.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(4)), k=5
        )
        assert service.persist_shards() is True
        dao.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE hnsw_states SET neighbors = X'00'")
        conn.commit()
        conn.close()
        dao2, _, _, _, state = reopen(path)
        assert dao2.load_hnsw_states() == ({}, {})
        assert state == "untrained"


class TestInMemoryRoundTrip:
    def test_states_round_trip_through_inmemory_dao(self):
        dao = SqliteDAO()
        service = RegistryService(dao, index=VectorIndex())
        user = service.register_user("m", "p")
        populate(service, user, n=64)
        hnsw = HNSWBackend(service.index, **HNSW_OPTS)
        service.attach_approx_backend(hnsw)
        hnsw.search(
            user.user_id, KIND_DESC, unit(np.random.default_rng(0)), k=5
        )
        assert service.persist_shards() is True
        stamps, states = dao.load_hnsw_states()
        assert set(stamps.values()) == {dao.mutation_counter()}
        exported = hnsw.export_states()
        assert set(states) == set(exported)
        for key in exported:
            assert np.array_equal(states[key][0], exported[key][0])
            assert np.array_equal(states[key][1], exported[key][1])


class TestServerColdStart:
    def test_laminar_server_restores_hnsw_on_startup(
        self, tmp_path, fast_bundle
    ):
        from repro.net.transport import Request
        from repro.server import LaminarServer

        path = tmp_path / "server.db"
        options = {"hnsw": {"m": 4, "m0": 8, "min_build_rows": 8}}
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
            "kind": "pe", "k": 3, "backend": "hnsw",
        }
        first = server1.dispatch(
            Request("POST", "/v1/registry/s/search", search_body, token=token)
        )
        assert first.status == 200
        assert server1.backends["hnsw"].builds >= 1
        assert server1.registry.persist_shards() is True

        server2 = LaminarServer(
            dao=SqliteDAO(path), models=fast_bundle, backend_options=options
        )
        assert server2.backends["hnsw"]._states  # restored, not lazy
        token2 = server2.dispatch(
            Request("POST", "/auth/login", {"userName": "s", "password": "p"})
        ).body["token"]
        second = server2.dispatch(
            Request("POST", "/v1/registry/s/search", search_body, token=token2)
        )
        assert second.status == 200
        assert server2.backends["hnsw"].builds == 0  # warm: no rebuild
        assert second.body["hits"] == first.body["hits"]

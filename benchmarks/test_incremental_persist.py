"""Incremental shard persistence: journal bytes, O(delta) warm attach.

Three measurements for the v6 persistence plane, emitted as the
``BENCH_incremental_persist.json`` trajectory point:

* **Bytes written per mutation** — K scattered single-record writes
  against an N=5000-record SQLite registry, with a meter summing the
  payload bytes of every journal row (ids only since schema v8 — the
  DAO writes it inside the mutation's transaction) and compaction
  fold (ids only since schema v9: 8 bytes a row).  The baseline is the
  pre-v6 whole-snapshot persist, which re-exported every slab on each
  write; the bar is a >= 10x reduction.
* **Warm attach after scattered writes** — a writer that bypasses the
  DAO (raw SQL) moves two tenants' stamps behind the journal's back
  and rows land on those stale shards; the restart must replay every
  other slab from its delta chain (zero ``all_pes()`` calls, per-owner
  row scans for exactly the stale tenants) and still match the
  O(corpus) rebuild bitwise.
* **Insert-time HNSW builds** — pure appends extend the small-world
  graph in place instead of rebuilding it; the extended graph must
  rank bitwise-identically to a from-scratch build over the grown
  shard.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.search import KIND_DESC, HNSWBackend, VectorIndex

TENANTS = 10
PER_TENANT = 500  # N = 5000 records across the tenants
DIM = 256
K_ADDS = 700  # scattered journaled writes (round-robin over tenants)
K_REMOVES = 60
FOREIGN_TENANTS = 2
FOREIGN_ROWS = 5  # rows landing on each stale tenant's shards

HNSW_N = 3000
HNSW_DIM = 64
HNSW_APPENDS = 32
HNSW_QUERIES = 8
HNSW_K = 10


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    matrix = rng.standard_normal((n, dim)).astype(np.float32)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class _ByteMeter:
    """DAO proxy summing the payload bytes of incremental persistence."""

    def __init__(self, inner):
        self.inner = inner
        self.delta_appends = 0
        self.delta_bytes = 0
        self.upsert_bytes = 0  # compaction folds / dirty-shard upserts
        # the DAO calls its journal-row writer on itself, inside the
        # mutation's transaction: meter it on the instance
        append = inner.append_index_delta

        def metered(user_id, kind, op, ids, counter):
            self.delta_appends += 1
            self.delta_bytes += 8 * len(ids)
            return append(user_id, kind, op, ids, counter)

        inner.append_index_delta = metered

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name == "upsert_index_shards":
            def wrapped(shards, stamp):
                for ids in shards.values():
                    self.upsert_bytes += ids.nbytes
                return attr(shards, stamp)
            return wrapped
        return attr


class _LoadCounter:
    """DAO proxy counting full-corpus loads vs per-owner row scans."""

    def __init__(self, inner):
        self.inner = inner
        self.all_pes_calls = 0
        self.rebuilt_users: list[int] = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name == "all_pes":
            def wrapped(*a, **kw):
                self.all_pes_calls += 1
                return attr(*a, **kw)
            return wrapped
        if name == "owned_vectors":
            def wrapped(user_id, *a, **kw):
                self.rebuilt_users.append(int(user_id))
                return attr(user_id, *a, **kw)
            return wrapped
        return attr


def _record_for(user, name: str, i: int, desc, code=None) -> PERecord:
    return PERecord(
        pe_id=0,
        pe_name=f"{user.user_name}-{name}{i}",
        description=f"{name} element {i} of {user.user_name}",
        pe_code=f"{user.user_name}:{name}:{i}".encode("ascii").hex(),
        desc_embedding=desc,
        code_embedding=code,
        owners={user.user_id},
    )


def test_incremental_persist(tmp_path, record, out_dir):
    rng = np.random.default_rng(2026)
    db = tmp_path / "bench.db"

    # -- build: N=5000 records, then seed the v6 snapshot ----------------
    meter = _ByteMeter(SqliteDAO(db))
    service = RegistryService(meter)
    users = [service.register_user(f"tenant{t}", "pw") for t in range(TENANTS)]
    for user in users:
        desc = _unit_rows(rng, PER_TENANT, DIM)
        code = _unit_rows(rng, PER_TENANT, DIM)
        service.dao.insert_pes(
            [
                _record_for(user, "PE", i, desc[i], code[i])
                for i in range(PER_TENANT)
            ]
        )
    # the bulk inserts journaled themselves: even the first attach replays
    assert service.attach_index(VectorIndex()) == "fresh"
    meter.delta_appends = meter.delta_bytes = meter.upsert_bytes = 0

    # -- K scattered journaled writes ------------------------------------
    added = []
    for i in range(K_ADDS):
        user = users[i % TENANTS]
        vecs = _unit_rows(rng, 2, DIM)
        added.append(
            (user, service.add_pe(user, _record_for(user, "W", i, vecs[0], vecs[1])))
        )
    for user, rec in added[:: len(added) // K_REMOVES][:K_REMOVES]:
        service.remove_pe_record(user, rec)
    mutations = K_ADDS + K_REMOVES

    report = service.shard_persistence()
    assert report["fresh"]
    # chains stayed bounded: none outgrew the base it replays onto
    for shard in report["perShard"].values():
        assert shard["chainRows"] <= max(64, shard["baseRows"])
    incremental_bytes = meter.delta_bytes + meter.upsert_bytes
    incremental_per_mut = incremental_bytes / mutations
    # the pre-v6 baseline re-exported every slab on each persist: one
    # whole-snapshot write per mutation
    snapshot_bytes = sum(
        ids.nbytes + matrix.nbytes
        for ids, matrix in service.index.snapshot().values()
    )
    improvement_x = snapshot_bytes / incremental_per_mut

    # -- stamps moved behind the journal's back, then rows on top --------
    stale_tenants = users[-FOREIGN_TENANTS:]
    foreign = SqliteDAO(db)
    foreign._conn.executemany(
        "UPDATE shard_stamps SET mutation_counter = mutation_counter + 1"
        " WHERE user_id = ?",
        [(user.user_id,) for user in stale_tenants],
    )
    foreign._conn.commit()
    for j in range(FOREIGN_ROWS):
        for user in stale_tenants:
            foreign.insert_pe(
                _record_for(user, "F", j, _unit_rows(rng, 1, DIM)[0])
            )
    foreign.close()
    service.dao.close()

    # -- warm attach: O(delta) replay, per-owner rebuild of stale only ---
    counted = _LoadCounter(SqliteDAO(db))
    warm = RegistryService(counted)
    warm_index = VectorIndex()
    t0 = time.perf_counter()
    warm_mode = warm.attach_index(warm_index, persist=False)
    warm_seconds = time.perf_counter() - t0
    assert warm_mode == "partial"
    assert counted.all_pes_calls == 0  # zero full-corpus deserialization
    assert sorted(counted.rebuilt_users) == sorted(
        user.user_id for user in stale_tenants
    )
    counted.inner.close()

    cold = RegistryService(SqliteDAO(db))
    reference = VectorIndex()
    t0 = time.perf_counter()
    cold._rebuild_full(reference)
    cold_seconds = time.perf_counter() - t0
    attach_x = cold_seconds / warm_seconds
    # the replayed + partially rebuilt index equals the full rebuild
    got = warm_index.export_shards()
    want = reference.export_shards()
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_array_equal(got[key][0], want[key][0])
        assert np.array_equal(got[key][1], want[key][1])
    cold.dao.close()

    # -- insert-time HNSW: extend in place vs rebuild per append ---------
    hindex = VectorIndex()
    hindex.add_many(
        "u", KIND_DESC, list(range(HNSW_N)), _unit_rows(rng, HNSW_N, HNSW_DIM)
    )
    queries = _unit_rows(rng, HNSW_QUERIES, HNSW_DIM)
    extended = HNSWBackend(hindex, rebuild_fraction=0.0)
    ids_all = list(range(HNSW_N))
    t0 = time.perf_counter()
    extended.search_among("u", KIND_DESC, ids_all, queries[0], HNSW_K)
    build_seconds = time.perf_counter() - t0
    assert extended.builds == 1
    tail = _unit_rows(rng, HNSW_APPENDS, HNSW_DIM)
    t0 = time.perf_counter()
    for j in range(HNSW_APPENDS):
        extended.add("u", KIND_DESC, HNSW_N + j, tail[j])
        ids_all.append(HNSW_N + j)
        extended.search_among(
            "u", KIND_DESC, ids_all, queries[j % HNSW_QUERIES], HNSW_K
        )
    extend_seconds = time.perf_counter() - t0
    assert extended.builds == 1  # never rebuilt
    assert extended.extends == HNSW_APPENDS

    rebuilt = HNSWBackend(hindex, rebuild_fraction=0.0)
    t0 = time.perf_counter()
    rebuilt.search_among("u", KIND_DESC, ids_all, queries[0], HNSW_K)
    rebuild_seconds = time.perf_counter() - t0
    assert rebuilt.builds == 1
    for q in queries:
        got_ids, got_scores = extended.search_among(
            "u", KIND_DESC, ids_all, q, HNSW_K
        )
        want_ids, want_scores = rebuilt.search_among(
            "u", KIND_DESC, ids_all, q, HNSW_K
        )
        assert got_ids == want_ids
        assert np.array_equal(got_scores, want_scores)
    # the old world rebuilt the graph once per insert
    hnsw_x = (HNSW_APPENDS * rebuild_seconds) / extend_seconds

    payload = {
        "benchmark": "incremental_persist",
        "config": {
            "tenants": TENANTS,
            "per_tenant": PER_TENANT,
            "dim": DIM,
            "adds": K_ADDS,
            "removes": K_REMOVES,
            "foreign_tenants": FOREIGN_TENANTS,
            "foreign_rows": FOREIGN_TENANTS * FOREIGN_ROWS,
        },
        "bytes_per_mutation": {
            "whole_snapshot": snapshot_bytes,
            "incremental": round(incremental_per_mut, 1),
            "journal_bytes": meter.delta_bytes,
            "compaction_bytes": meter.upsert_bytes,
            "journal_appends": meter.delta_appends,
            "compactions": report["journal"]["compactions"],
            "improvement_x": round(improvement_x, 1),
        },
        "warm_attach": {
            "mode": warm_mode,
            "warm_seconds": round(warm_seconds, 4),
            "cold_seconds": round(cold_seconds, 4),
            "speedup_x": round(attach_x, 1),
            "all_pes_calls": 0,
            "rebuilt_tenants": len(stale_tenants),
            "bitwise_identical": True,
        },
        "hnsw_insert": {
            "shard_rows": HNSW_N,
            "dim": HNSW_DIM,
            "appends": HNSW_APPENDS,
            "build_seconds": round(build_seconds, 4),
            "extend_total_seconds": round(extend_seconds, 4),
            "rebuild_each_seconds": round(rebuild_seconds, 4),
            "speedup_x": round(hnsw_x, 1),
            "bitwise_identical_to_rebuild": True,
        },
    }
    (out_dir / "BENCH_incremental_persist.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "incremental_persist",
        "\n".join(
            [
                f"Incremental shard persistence  (N={TENANTS * PER_TENANT}, "
                f"d={DIM}, {mutations} scattered writes)",
                f"{'whole-snapshot persist':<34}"
                f"{snapshot_bytes / 1024:>9.1f} KiB/mutation",
                f"{'delta journal + compaction':<34}"
                f"{incremental_per_mut / 1024:>9.1f} KiB/mutation"
                f"   {improvement_x:.0f}x less",
                "",
                f"Warm attach after foreign writes  "
                f"({len(stale_tenants)} of {TENANTS} tenants stale)",
                f"{'O(corpus) rebuild':<34}{cold_seconds * 1000:>9.1f} ms",
                f"{'delta replay + per-owner rebuild':<34}"
                f"{warm_seconds * 1000:>9.1f} ms"
                f"   {attach_x:.1f}x, 0 all_pes() calls",
                "",
                f"HNSW insert-time builds  (shard={HNSW_N}, "
                f"{HNSW_APPENDS} appends)",
                f"{'rebuild per insert':<34}"
                f"{HNSW_APPENDS * rebuild_seconds * 1000:>9.1f} ms",
                f"{'extend in place':<34}{extend_seconds * 1000:>9.1f} ms"
                f"   {hnsw_x:.1f}x, bitwise = rebuild",
            ]
        ),
    )
    # the acceptance bar: >= 10x lower bytes written per mutation
    assert improvement_x >= 10.0, payload["bytes_per_mutation"]

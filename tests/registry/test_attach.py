"""Attach fills the vector index from the record rows, and only from them.

Schema v16 keeps no index state on disk: which records a ``(user,
kind)`` shard holds is what the owner tables say, and each vector lives
in its record row.  :meth:`RegistryService.attach_index` scans them, one
ordered scan per (user, record table) inside one read transaction.
Pinned here:

* a model test (Hypothesis): after *every* step of a random write
  sequence a second connection that opens the file and attaches holds
  the live index's shards byte for byte, both equal the brute-force
  index (every record hydrated, grouped by owner), and the memory text
  documents are the builders run over the stored rows
  (``test_fts_text.assert_text_cache_current``);
* writers the live index never saw — a DAO on another connection, raw
  SQL — are in the next attach, whatever they changed;
* damaged rows: a record row or vector gone leaves only that record
  out; a vector of another width or a corrupt blob fails the attach with
  ``ValueError``, as it fails a read of its record; the owner table,
  not a row's JSON owners, decides membership;
* one read transaction: a writer in another process cannot land between
  attach's scans;
* attach hydrates no record;
* the scan itself (``SqliteDAO.owned_vectors``): ascending ids, one scan
  per record table, empty shards, each stored vector layout decoded bit
  for bit;
* the mutation counter: one step per record write, none for a failed
  one, and the same for a reopen; a write leaves its own connection's
  ``data_version`` and moves a peer's;
* the names the e2e tracer pins resolve, and the persistence stubs
  among them write nothing.
"""

import importlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFoundError
from repro.registry.dao import SqliteDAO
from repro.registry.entities import PERecord
from repro.registry.service import RegistryService
from repro.registry.veccodec import encode_vector
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW, VectorIndex
from tests.helpers import brute_force_index, index_shards, shard_bytes
from tests.registry.test_dao import make_pe, make_wf
from tests.registry.test_fts_text import assert_text_cache_current

DIM = 8
SLOTS = 6  # record identities the sequences draw from


def unit(rng, dim=DIM):
    vec = rng.standard_normal(dim).astype(np.float32)
    return vec / np.linalg.norm(vec)


def attached(dao):
    """A new index attached over ``dao``."""
    index = VectorIndex()
    RegistryService(dao).attach_index(index)
    return index


def assert_attach_equals_live_equals_brute_force(path, dao, index):
    """Reopen + attach == live index bytes == brute force."""
    reopened = SqliteDAO(path)
    try:
        assert shard_bytes(attached(reopened)) == shard_bytes(index)
    finally:
        reopened.close()
    assert shard_bytes(index) == shard_bytes(brute_force_index(dao))


class CallCountingDAO:
    """Transparent proxy counting batched record hydrations."""

    def __init__(self, inner):
        self.inner = inner
        self.hydrations = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name in ("get_pes", "get_workflows"):
            def counted(*args, **kwargs):
                self.hydrations += 1
                return attr(*args, **kwargs)
            return counted
        return attr


# ---------------------------------------------------------------------------
# (a) model test: reopen + attach == live == brute force after every step
# ---------------------------------------------------------------------------
steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "register", "register", "revise_text", "revise_embedding",
                "drop_embedding", "remove", "bulk", "reopen",
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
    """Drives a service with a live index over one file."""

    def __init__(self, path, seed):
        self.path = path
        self.rng = np.random.default_rng(seed)
        self.fresh_names = 0
        self.dao = SqliteDAO(path)
        self.service = RegistryService(self.dao)
        for name in ("alice", "bob"):
            self.service.register_user(name, "pw")
        self.attach()

    def attach(self):
        self.index = VectorIndex()
        self.service.attach_index(self.index)
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
            service.register_pes_bulk(user, records)
        elif op == "reopen":
            before = shard_bytes(self.index)
            self.dao.close()
            self.dao = SqliteDAO(self.path)
            self.service = RegistryService(self.dao)
            self.attach()
            assert shard_bytes(self.index) == before
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


@settings(max_examples=60, deadline=None)
@given(steps, st.integers(0, 2**16))
def test_attach_equals_live_index_equals_brute_force_after_every_step(
    sequence, seed
):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "registry.db"
        model = Model(path, seed)
        try:
            for step in sequence:
                model.step(*step)
                assert_attach_equals_live_equals_brute_force(
                    path, model.dao, model.index
                )
                assert_text_cache_current(model.dao)
        finally:
            model.dao.close()


# ---------------------------------------------------------------------------
# (b) writers the live index never saw
# ---------------------------------------------------------------------------
def populate(path, rng, n_pes=10):
    """Two tenants' PEs (both vector kinds), a revise, a remove and a
    workflow, written through a service with a live index; closed."""
    service = RegistryService(SqliteDAO(path))
    alice = service.register_user("alice", "pw")
    bob = service.register_user("bob", "pw")
    service.attach_index(VectorIndex())
    for user, count in ((alice, n_pes), (bob, 4)):
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
    service.remove_pe_record(
        alice, service.get_by_name(alice, PERecord, "alicePE3")
    )
    wf = make_wf("flow", code="Zmxvdw==")
    wf.desc_embedding = unit(rng)
    service.register_workflow(bob, wf)
    service.dao.close()
    return alice, bob


class TestForeignWriters:
    def test_a_dao_writer_without_an_index_is_in_the_next_attach(
        self, tmp_path
    ):
        rng = np.random.default_rng(34)
        path = tmp_path / "registry.db"
        populate(path, rng)
        live = RegistryService(SqliteDAO(path), VectorIndex())
        foreign = RegistryService(SqliteDAO(path))  # no index attached
        foreign.register_pe(
            foreign.get_user("bob"),
            make_pe(
                "Foreign",
                code="Zm9yZWlnbg==",
                description="landed without an index in sight",
                desc_embedding=unit(rng),
            ),
        )
        live.dao.close()
        foreign.dao.close()

        counted = CallCountingDAO(SqliteDAO(path))
        restarted = RegistryService(counted, VectorIndex())
        assert counted.hydrations == 0
        user = restarted.get_user("bob")
        landed = restarted.get_by_name(user, PERecord, "Foreign")
        shards = index_shards(restarted.index)
        assert landed.pe_id in shards[(user.user_id, KIND_DESC)][0]
        assert shard_bytes(restarted.index) == shard_bytes(
            brute_force_index(counted.inner)
        )
        counted.inner.close()

    def test_cross_process_wal_interleaving(self, tmp_path):
        """Writes from two live connections on one WAL file interleave;
        the next attach holds both writers' records."""
        rng = np.random.default_rng(35)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        service = RegistryService(SqliteDAO(path), VectorIndex())
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
            service.register_pe(
                alice,
                make_pe(
                    f"Interleaved{i}",
                    code=f"inter:{i}".encode().hex(),
                    description=f"interleaved write {i}",
                    desc_embedding=unit(rng),
                ),
            )
        foreign.close()
        service.dao.close()

        dao = SqliteDAO(path)
        index = attached(dao)
        for user, prefix in ((bob, "Foreign"), (alice, "Interleaved")):
            for i in range(3):
                landed = dao.find_pe_by_name(f"{prefix}{i}")[0]
                assert landed.pe_id in index_shards(index)[(user.user_id, KIND_DESC)][0]
        assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
        dao.close()

    @pytest.mark.parametrize(
        "raw_sql",
        [
            "UPDATE pes SET desc_embedding = :vector WHERE pe_id = :id",
            "UPDATE pes SET code_embedding = NULL WHERE pe_id = :id",
        ],
        ids=["new-vector", "dropped-vector"],
    )
    def test_a_raw_sql_write_is_in_the_next_attach(self, tmp_path, raw_sql):
        """A writer that bypasses the DAO moves no stamp and no counter;
        the next attach reads the rows as they are all the same."""
        rng = np.random.default_rng(39)
        path = tmp_path / "registry.db"
        populate(path, rng)
        dao = SqliteDAO(path)
        before = shard_bytes(attached(dao))
        victim = dao.find_pe_by_name("bobPE1")[0]
        dao._conn.execute(
            raw_sql, {"id": victim.pe_id, "vector": encode_vector(unit(rng))}
        )
        dao._conn.commit()
        index = attached(dao)
        assert shard_bytes(index) != before
        assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
        dao.close()


# ---------------------------------------------------------------------------
# (c) damaged rows
# ---------------------------------------------------------------------------
class TestDamagedRows:
    @pytest.mark.parametrize("victim", ["alicePE5", "Tail"])
    @pytest.mark.parametrize(
        "damage, kinds_out",
        [
            ("DELETE FROM pes WHERE pe_id = :id", {KIND_DESC, KIND_CODE}),
            ("UPDATE pes SET desc_embedding = NULL WHERE pe_id = :id",
             {KIND_DESC}),
            ("UPDATE pes SET code_embedding = NULL WHERE pe_id = :id",
             {KIND_CODE}),
        ],
        ids=["row-gone", "desc-vector-gone", "code-vector-gone"],
    )
    def test_a_missing_row_or_vector_leaves_only_that_record_out(
        self, tmp_path, damage, kinds_out, victim
    ):
        """Only the victim's shards of the damaged kinds lose it; every
        other shard attaches byte for byte as before ("Tail" carries no
        code vector, so dropping it changes nothing)."""
        rng = np.random.default_rng(84)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        dao = SqliteDAO(path)
        before = index_shards(attached(dao))
        victim = dao.find_pe_by_name(victim)[0]
        dao._conn.execute(damage, {"id": victim.pe_id})
        dao._conn.commit()
        index = attached(dao)
        after = index_shards(index)
        assert set(after) == set(before)
        for key, (ids, matrix) in before.items():
            kept = ids != victim.pe_id
            if key[0] != alice.user_id or key[1] not in kinds_out:
                kept[:] = True
            assert after[key][0].tobytes() == ids[kept].tobytes()
            assert after[key][1].tobytes() == matrix[kept].tobytes()
        for kind in kinds_out:
            assert victim.pe_id not in after.get((alice.user_id, kind), ((),))[0]
        assert shard_bytes(index) == shard_bytes(brute_force_index(dao))
        dao.close()

    @pytest.mark.parametrize(
        "damage",
        [
            "DELETE FROM workflows WHERE workflow_id = :id",
            "UPDATE workflows SET desc_embedding = NULL"
            " WHERE workflow_id = :id",
        ],
        ids=["row-gone", "vector-gone"],
    )
    def test_a_missing_workflow_row_or_vector_empties_its_shard(
        self, tmp_path, damage
    ):
        rng = np.random.default_rng(86)
        path = tmp_path / "registry.db"
        _alice, bob = populate(path, rng)
        dao = SqliteDAO(path)
        before = shard_bytes(attached(dao))
        (victim,) = dao.find_workflow_by_entry_point("flow")
        dao._conn.execute(damage, {"id": victim.workflow_id})
        dao._conn.commit()
        index = attached(dao)
        assert index.stats()[f"{bob.user_id}/{KIND_WORKFLOW}"]["live"] == 0
        after = shard_bytes(index)
        assert (bob.user_id, KIND_WORKFLOW) in before
        del before[(bob.user_id, KIND_WORKFLOW)]
        assert after == before
        assert after == shard_bytes(brute_force_index(dao))
        dao.close()

    @pytest.mark.parametrize(
        "damage, message",
        [
            # a row of another width cannot be stacked into a shard
            (lambda blob: np.ones(DIM // 2, dtype=np.float32).tobytes(),
             "dimension mismatch"),
            # one flipped bit of a checksummed blob
            (lambda blob: blob[:5] + bytes([blob[5] ^ 0x10]) + blob[6:], None),
            (lambda blob: blob[:-1], None),
        ],
        ids=["narrow", "bit-flip", "truncated"],
    )
    def test_a_bad_vector_fails_the_attach(self, tmp_path, damage, message):
        """Surfaced as an error, never loaded as zeros or skipped: the
        same ``ValueError`` a read of the record raises."""
        rng = np.random.default_rng(85)
        path = tmp_path / "registry.db"
        populate(path, rng)
        dao = SqliteDAO(path)
        # one non-zero of DIM: stored sparse, so checksummed
        sparse = np.zeros(DIM, dtype=np.float32)
        sparse[3] = 1.0
        victim = dao.insert_pe(
            make_pe("Sparse", desc_embedding=sparse, owners={1})
        )
        (blob,) = dao._conn.execute(
            "SELECT desc_embedding FROM pes WHERE pe_id = ?", (victim.pe_id,)
        ).fetchone()
        assert len(blob) % 4
        dao._conn.execute(
            "UPDATE pes SET desc_embedding = ? WHERE pe_id = ?",
            (damage(blob), victim.pe_id),
        )
        dao._conn.commit()
        with pytest.raises(ValueError, match=message):
            attached(dao)
        if message is None:  # a narrow vector reads as itself
            with pytest.raises(ValueError):
                dao.get_pe(victim.pe_id)
        dao.close()

    def test_membership_is_the_owner_tables_to_say(self, tmp_path):
        """A record whose ownership row moved (its JSON owners did not)
        is filled into the shard of the user the owner table names."""
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
        after = index_shards(attached(dao))
        for kind in (KIND_DESC, KIND_CODE):
            assert victim.pe_id not in after.get((alice.user_id, kind), ((),))[0]
            assert victim.pe_id in after[(bob.user_id, kind)][0]
        dao.close()


# ---------------------------------------------------------------------------
# (d) attach reads one state of the file
# ---------------------------------------------------------------------------
class TestOneReadTransaction:
    @pytest.mark.parametrize("foreign_op", ["revise", "delete"])
    def test_foreign_write_between_scans(self, tmp_path, foreign_op):
        """Another process commits while attach is between two scans.
        What loads must be the registry as of one commit — not one
        user's shards before the write and another's after it."""
        rng = np.random.default_rng(88)
        path = tmp_path / "registry.db"
        populate(path, rng)
        reference = SqliteDAO(path)
        before = shard_bytes(attached(reference))
        reference.close()

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
        assert shard_bytes(attached(dao)) == before
        assert landed
        dao.close()

        # the next attach has the foreign write
        after = attached(foreign)
        assert shard_bytes(after) != before
        assert shard_bytes(after) == shard_bytes(brute_force_index(foreign))
        foreign.close()


# ---------------------------------------------------------------------------
# (e) what attach reads
# ---------------------------------------------------------------------------
class TestColdStart:
    def test_attach_hydrates_no_record(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        counted = CallCountingDAO(SqliteDAO(path))
        service = RegistryService(counted, VectorIndex())
        assert counted.hydrations == 0
        assert index_shards(service.index)[(alice.user_id, KIND_DESC)][0].tolist() == [
            record.pe_id
            for record in counted.inner.pes_owned_by(alice.user_id)
            if record.desc_embedding is not None
        ]
        counted.inner.close()

    def test_a_restarted_service_serves_identical_results(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        query = unit(rng)
        live = RegistryService(SqliteDAO(path), VectorIndex())
        reference = live.index.search_among(alice.user_id, KIND_DESC, query, 5)
        live.dao.close()

        restarted = RegistryService(SqliteDAO(path), VectorIndex())
        got = restarted.index.search_among(alice.user_id, KIND_DESC, query, 5)
        assert got is not None and reference is not None
        assert got[0] == reference[0]
        assert np.array_equal(got[1], reference[1])
        restarted.dao.close()

    def test_an_in_memory_store_attaches_what_it_holds(self):
        dao = SqliteDAO()
        service = RegistryService(dao, VectorIndex())
        alice = service.register_user("alice", "pw")
        rng = np.random.default_rng(22)
        wf = make_wf("flow")
        wf.desc_embedding = unit(rng)
        service.register_workflow(alice, wf)
        service.register_pe(alice, make_pe("P", desc_embedding=unit(rng)))
        # a second service over the same live DAO attaches the same
        assert shard_bytes(attached(dao)) == shard_bytes(service.index)
        assert shard_bytes(service.index)

    def test_the_counter_tracks_every_record_write(self):
        dao = SqliteDAO()
        service = RegistryService(dao)
        alice = service.register_user("alice", "pw")
        assert dao.mutation_counter() == 0  # users are no record write
        rng = np.random.default_rng(20)
        record = make_pe("A", desc_embedding=unit(rng))
        service.register_pe(alice, record)
        after_add = dao.mutation_counter()
        assert after_add > 0
        service.remove_pe_record(
            alice, service.get_by_id(alice, PERecord, record.pe_id)
        )
        assert dao.mutation_counter() > after_add
        # a bulk write is one step, a failed write none
        before_bulk = dao.mutation_counter()
        service.register_pes_bulk(alice, [
            make_pe(f"B{i}", code=f"b:{i}".encode().hex(),
                    desc_embedding=unit(rng))
            for i in range(3)
        ])
        assert dao.mutation_counter() == before_bulk + 1
        gone = make_pe("G", code="Z29uZQ==", desc_embedding=unit(rng))
        gone.pe_id = 10**6
        with pytest.raises(NotFoundError):
            dao.update_pe(gone)
        assert dao.mutation_counter() == before_bulk + 1


# ---------------------------------------------------------------------------
# (f) the scan attach is built on
# ---------------------------------------------------------------------------
def stored_layout(blob):
    """Which of the codec's two layouts a vector blob was written in."""
    if len(blob) % 4 == 0:
        return "dense"
    return {3: "packed"}[blob[-1]]


def layout_rows(layout, rng, dim=64):
    """Four distinct vectors the codec stores in ``layout``."""
    rows = []
    for i in range(4):
        row = np.zeros(dim, dtype=np.float32)
        if layout == "dense":
            row = rng.standard_normal(dim).astype(np.float32)
        elif i % 2:  # a few non-zeros, all distinct
            row[[i, 17 + i]] = rng.standard_normal(2).astype(np.float32)
        else:  # many non-zeros, few distinct magnitudes, either sign
            row[i::2] = np.float32(0.25 * (i + 1))
            row[i + 2::4] *= -1
        rows.append(row)
    return rows


class TestOwnedVectors:
    @pytest.mark.parametrize(
        "kind, records",
        [
            (KIND_DESC, "pes_owned_by"),
            (KIND_CODE, "pes_owned_by"),
            (KIND_WORKFLOW, "workflows_owned_by"),
        ],
    )
    def test_a_shard_is_the_owned_records_vectors_in_id_order(
        self, tmp_path, kind, records
    ):
        rng = np.random.default_rng(91)
        path = tmp_path / "registry.db"
        users = populate(path, rng)
        dao = SqliteDAO(path)
        spec_field = {
            KIND_DESC: "desc_embedding",
            KIND_CODE: "code_embedding",
            KIND_WORKFLOW: "desc_embedding",
        }[kind]
        id_field = "workflow_id" if kind == KIND_WORKFLOW else "pe_id"
        for user in users:
            want = sorted(
                (getattr(record, id_field), getattr(record, spec_field))
                for record in getattr(dao, records)(user.user_id)
                if getattr(record, spec_field) is not None
            )
            ((got_kind, (ids, matrix)),) = dao.owned_vectors(
                user.user_id, [kind]
            ).items()
            assert got_kind == kind
            assert ids.dtype == np.int64 and matrix.dtype == np.float32
            assert matrix.flags.c_contiguous
            assert ids.tolist() == [record_id for record_id, _ in want]
            assert matrix.tobytes() == b"".join(
                vector.tobytes() for _, vector in want
            )
        dao.close()

    def test_a_user_who_owns_nothing_has_empty_shards(self):
        dao = SqliteDAO()
        service = RegistryService(dao)
        alice = service.register_user("alice", "pw")
        carol = service.register_user("carol", "pw")
        service.register_pe(
            alice, make_pe("P", desc_embedding=unit(np.random.default_rng(1)))
        )
        shards = dao.owned_vectors(
            carol.user_id, [KIND_DESC, KIND_CODE, KIND_WORKFLOW]
        )
        assert set(shards) == {KIND_DESC, KIND_CODE, KIND_WORKFLOW}
        for ids, matrix in shards.values():
            assert ids.shape == (0,) and ids.dtype == np.int64
            assert matrix.shape == (0, 0) and matrix.dtype == np.float32

    def test_an_unknown_kind_is_refused(self):
        dao = SqliteDAO()
        with pytest.raises(ValueError, match="unknown shard kind 'summary'"):
            dao.owned_vectors(1, [KIND_DESC, "summary"])

    def test_one_scan_per_record_table(self, tmp_path):
        """Both PE kinds ride one scan of ``pes``; the workflow kind
        adds the one scan of ``workflows``."""
        rng = np.random.default_rng(92)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        dao = SqliteDAO(path)
        scan = dao._scan_owned
        scanned = []

        def counted(user_id, record_type, kinds):
            scanned.append((record_type.__name__, tuple(kinds)))
            return scan(user_id, record_type, kinds)

        dao._scan_owned = counted
        assert set(dao.owned_vectors(alice.user_id, [KIND_CODE])) == {
            KIND_CODE
        }
        assert scanned == [("PERecord", (KIND_CODE,))]
        scanned.clear()
        dao.owned_vectors(alice.user_id, [KIND_WORKFLOW, KIND_DESC, KIND_CODE])
        assert sorted(scanned) == [
            ("PERecord", (KIND_CODE, KIND_DESC)),
            ("WorkflowRecord", (KIND_WORKFLOW,)),
        ]
        dao.close()

    def test_each_shard_keeps_its_own_width(self):
        rng = np.random.default_rng(93)
        dao = SqliteDAO()
        record = dao.insert_pe(
            make_pe(
                "Wide",
                desc_embedding=unit(rng, dim=8),
                code_embedding=unit(rng, dim=12),
                owners={1},
            )
        )
        shards = dao.owned_vectors(1, [KIND_DESC, KIND_CODE])
        assert shards[KIND_DESC][1].shape == (1, 8)
        assert shards[KIND_CODE][1].shape == (1, 12)
        assert shards[KIND_CODE][1].tobytes() == record.code_embedding.tobytes()

    @pytest.mark.parametrize("layouts", [
        ("dense",), ("packed",), ("dense", "packed"), ("packed", "dense"),
    ], ids=["dense", "packed", "mixed", "mixed-reversed"])
    def test_every_stored_layout_decodes_bit_for_bit(self, layouts):
        """One batch decode per shard, whichever layouts its rows were
        written in."""
        rng = np.random.default_rng(94)
        dao = SqliteDAO()
        rows = [row for layout in layouts for row in layout_rows(layout, rng)]
        records = dao.insert_pes(
            [
                make_pe(
                    f"L{i}", code=f"l:{i}".encode().hex(),
                    desc_embedding=row, owners={1},
                )
                for i, row in enumerate(rows)
            ]
        )
        stored = [
            stored_layout(blob)
            for (blob,) in dao._conn.execute(
                "SELECT desc_embedding FROM pes ORDER BY pe_id"
            )
        ]
        assert stored == [layout for layout in layouts for _ in range(4)]
        ids, matrix = dao.owned_vectors(1, [KIND_DESC])[KIND_DESC]
        assert ids.tolist() == [record.pe_id for record in records]
        assert matrix.tobytes() == np.stack(rows).tobytes()


# ---------------------------------------------------------------------------
# (g) one counter step per write; data_version moves only for a peer
# ---------------------------------------------------------------------------
def _register(service, alice, _bob, rng):
    return lambda: service.register_pe(
        alice, make_pe("P", desc_embedding=unit(rng), code_embedding=unit(rng))
    )


def _revise_text_only(service, alice, _bob, rng):
    current, _ = service.register_pe(
        alice, make_pe("P", desc_embedding=unit(rng))
    )
    revised = make_pe(
        "P", description="said again", desc_embedding=current.desc_embedding
    )
    return lambda: service.revise_pe(alice, current, revised)


def _revise_new_vector(service, alice, _bob, rng):
    current, _ = service.register_pe(
        alice, make_pe("P", desc_embedding=unit(rng), code_embedding=unit(rng))
    )
    revised = make_pe(
        "P", desc_embedding=current.desc_embedding, code_embedding=unit(rng)
    )
    return lambda: service.revise_pe(alice, current, revised)


def _grant(service, alice, bob, rng):
    desc, code = unit(rng), unit(rng)
    service.register_pe(
        alice, make_pe("P", desc_embedding=desc, code_embedding=code)
    )
    return lambda: service.register_pe(
        bob, make_pe("P", desc_embedding=desc, code_embedding=code)
    )


def _leave_shared(service, alice, bob, rng):
    desc = unit(rng)
    record, _ = service.register_pe(alice, make_pe("P", desc_embedding=desc))
    service.register_pe(bob, make_pe("P", desc_embedding=desc))
    return lambda: service.remove_pe_record(
        bob, service.get_by_id(bob, PERecord, record.pe_id)
    )


def _delete(service, alice, _bob, rng):
    record, _ = service.register_pe(
        alice, make_pe("P", desc_embedding=unit(rng), code_embedding=unit(rng))
    )
    return lambda: service.remove_pe_record(alice, record)


def _workflow(service, _alice, bob, rng):
    wf = make_wf("flow")
    wf.desc_embedding = unit(rng)
    return lambda: service.register_workflow(bob, wf)


def _bulk(service, alice, _bob, rng):
    records = [
        make_pe(
            f"B{i}", code=f"b:{i}".encode().hex(),
            desc_embedding=unit(rng),
            code_embedding=unit(rng) if i == 2 else None,
        )
        for i in range(3)
    ]
    return lambda: service.register_pes_bulk(alice, records)


WRITES = {
    "register": _register,
    "text-only-revise": _revise_text_only,
    "new-vector-revise": _revise_new_vector,
    "grant": _grant,
    "leave-shared": _leave_shared,
    "delete": _delete,
    "workflow": _workflow,
    "bulk": _bulk,
}


class TestMutationCounter:
    """Every record write, whatever shards it touches, is one step of
    the mutation counter (the registry version ``ifVersion`` checks) and
    one commit: the writer's own ``data_version`` holds, a peer
    connection's moves.  That split is what the vector and text indexes'
    freshness rule rests on."""

    @pytest.fixture
    def setup(self, tmp_path):
        path = tmp_path / "registry.db"
        service = RegistryService(SqliteDAO(path))
        alice = service.register_user("alice", "pw")
        bob = service.register_user("bob", "pw")
        peer = SqliteDAO(path)
        yield path, service, alice, bob, peer
        peer.close()
        service.dao.close()

    @pytest.mark.parametrize("write", list(WRITES), ids=list(WRITES))
    def test_a_write_is_one_counter_step(self, setup, write):
        _path, service, alice, bob, _peer = setup
        thunk = WRITES[write](service, alice, bob, np.random.default_rng(95))
        before = service.dao.mutation_counter()
        thunk()
        assert service.dao.mutation_counter() == before + 1

    @pytest.mark.parametrize("write", list(WRITES), ids=list(WRITES))
    def test_only_a_peer_sees_a_write_move_data_version(self, setup, write):
        _path, service, alice, bob, peer = setup
        thunk = WRITES[write](service, alice, bob, np.random.default_rng(96))
        own, theirs = service.dao.data_version(), peer.data_version()
        thunk()
        assert service.dao.data_version() == own
        assert peer.data_version() != theirs
        assert peer.mutation_counter() == service.dao.mutation_counter()

    def test_a_failed_write_moves_no_counter_and_no_data_version(
        self, setup
    ):
        _path, service, alice, _bob, peer = setup
        rng = np.random.default_rng(104)
        record, _ = service.register_pe(
            alice, make_pe("P", desc_embedding=unit(rng))
        )
        service.dao.delete_pe(record.pe_id)
        counter, theirs = service.dao.mutation_counter(), peer.data_version()
        record.desc_embedding = unit(rng)
        with pytest.raises(NotFoundError):
            service.dao.update_pe(record)
        assert service.dao.mutation_counter() == counter
        assert peer.data_version() == theirs

    def test_the_counter_survives_a_reopen(self, tmp_path):
        path = tmp_path / "registry.db"
        populate(path, np.random.default_rng(105))
        dao = SqliteDAO(path)
        counter = dao.mutation_counter()
        dao.close()
        dao = SqliteDAO(path)
        assert counter > 0
        assert dao.mutation_counter() == counter
        dao.close()


# ---------------------------------------------------------------------------
# (h) names the e2e tracer pins
# ---------------------------------------------------------------------------
class TestTracePinnedNames:
    """The e2e tracer (``benchmarks/e2e/trace.py``) wraps a fixed table
    of callables and reads the journal report; the index persistence
    plane's entries stay as no-ops that write nothing."""

    def test_every_trace_target_resolves_to_a_callable(self):
        from benchmarks.e2e.trace import TARGETS

        for _span, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr)), (module_name, path)

    @pytest.mark.parametrize(
        "call",
        [
            lambda service: service.persist_shards(),
            lambda service: service.dao.append_index_delta(
                1, KIND_DESC, "add", [1], 1
            ),
            lambda service: service.dao.upsert_index_shards(
                {(1, KIND_DESC): np.asarray([1], dtype=np.int64)}, 1
            ),
        ],
        ids=["persist_shards", "append_index_delta", "upsert_index_shards"],
    )
    def test_a_persistence_stub_writes_nothing(self, tmp_path, call):
        rng = np.random.default_rng(106)
        path = tmp_path / "registry.db"
        populate(path, rng)
        service = RegistryService(SqliteDAO(path), VectorIndex())
        before = shard_bytes(service.index)
        changes = service.dao._conn.total_changes
        counter = service.dao.mutation_counter()
        call(service)
        assert service.dao._conn.total_changes == changes
        assert service.dao.mutation_counter() == counter
        assert shard_bytes(service.index) == before
        service.dao.close()

    def test_the_journal_report_counts_no_compaction(self):
        service = RegistryService(SqliteDAO(), VectorIndex())
        assert service.shard_persistence()["journal"]["compactions"] == 0
        service.dao.close()

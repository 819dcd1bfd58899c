"""The ids-only journal written inside each mutation's transaction,
folded into ids-only base slabs.

Since schema v8 the DAO appends a shard's journal row wherever it
stamps the shard, in the same commit; since v9 a base slab is ids only
too, so replay reads every vector from the record rows.  Pinned here:

* a model test (Hypothesis): after *every* step of a random
  write sequence the persisted state replays to exactly the live index,
  and every stamp equals its chain tip;
* migration: a v7-shaped file (journal rows and base slabs with vector
  blobs, the secondary index, 4 KB pages, no ``tip``), a v8-shaped
  one (vector-carrying slabs only) and a v9-shaped one (IVF/HNSW state
  tables, which v10 drops and nothing else) open in place and attach
  fresh; a
  shard v7 left stale stays stale; content nobody ever stamped is
  seeded stale rather than mistaken for a shard born empty;
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
from repro.registry.service import RegistryService
from repro.search import KIND_CODE, KIND_DESC, KIND_WORKFLOW, VectorIndex
from tests.registry.test_dao import make_pe, make_wf
from tests.registry.test_veccodec import encode_through_blocks, reshape_slabs

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
                assert_equals_brute_force(model.index, model.dao)
            finally:
                if hasattr(model.dao, "close"):
                    model.dao.close()

    run()


# ---------------------------------------------------------------------------
# (c) migration: a v7-shaped file, built through raw SQL
# ---------------------------------------------------------------------------
def new_4k_file(path):
    """A file that had 4 KB pages before this code first opened it."""
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA page_size=4096")
    conn.execute("PRAGMA journal_mode=WAL")  # writes page 1
    conn.close()


def populate(path, rng):
    """Two tenants with a base slab, a chain tail, a revise, a remove
    and a workflow — every journal shape v7 could hold."""
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
    service.remove_pe_record(alice, service.get_pe_by_name(alice, "alicePE3"))
    wf = make_wf("flow", code="Zmxvdw==")
    wf.desc_embedding = unit(rng)
    service.register_workflow(bob, wf)
    service.dao.close()
    return alice, bob


def reshape_as_v7(path):
    """Turn the file into what schema v7 wrote, through raw SQL: journal
    rows carry ``dim`` and a ``vectors`` blob (the rows they added,
    empty for a remove) and so do the base slabs, the journal has its
    secondary index, stamps have no ``tip``, ``user_version`` is 7."""
    conn = sqlite3.connect(path)
    reshape_slabs(conn, encode_through_blocks)
    sources = {
        KIND_DESC: ("pes", "pe_id", "desc_embedding"),
        KIND_CODE: ("pes", "pe_id", "code_embedding"),
        KIND_WORKFLOW: ("workflows", "workflow_id", "desc_embedding"),
    }
    rows = conn.execute("SELECT * FROM index_deltas ORDER BY delta_id").fetchall()
    conn.execute("DROP TABLE index_deltas")
    conn.execute(
        """CREATE TABLE index_deltas (
            delta_id INTEGER PRIMARY KEY, user_id INTEGER NOT NULL,
            kind TEXT NOT NULL, op TEXT NOT NULL,
            mutation_counter INTEGER NOT NULL, dim INTEGER NOT NULL,
            rows INTEGER NOT NULL, ids BLOB NOT NULL, vectors BLOB NOT NULL
        )"""
    )
    conn.execute(
        "CREATE INDEX idx_index_deltas_shard"
        " ON index_deltas (user_id, kind, delta_id)"
    )
    for row in rows:
        ids = np.frombuffer(row["ids"], dtype=np.int64)
        matrix = np.zeros((ids.shape[0], 0), dtype=np.float32)
        if row["op"] == "add":
            # v7 stored the vectors the write carried; a record revised
            # or deleted since would have carried others — any will do,
            # the migration must not read them
            table, key, column = sources[row["kind"]]
            matrix = np.zeros((ids.shape[0], DIM), dtype=np.float32)
            for at, rid in enumerate(ids.tolist()):
                blob = conn.execute(
                    f"SELECT {column} FROM {table} WHERE {key}=?", (rid,)
                ).fetchone()
                if blob is not None and blob[0] is not None:
                    matrix[at] = np.frombuffer(blob[0][: DIM * 4], np.float32)
        conn.execute(
            "INSERT INTO index_deltas VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                row["delta_id"], row["user_id"], row["kind"], row["op"],
                row["mutation_counter"], matrix.shape[1], ids.shape[0],
                row["ids"], matrix.tobytes(),
            ),
        )
    stamps = conn.execute(
        "SELECT user_id, kind, mutation_counter FROM shard_stamps"
    ).fetchall()
    conn.execute("DROP TABLE shard_stamps")
    conn.execute(
        """CREATE TABLE shard_stamps (
            user_id INTEGER NOT NULL, kind TEXT NOT NULL,
            mutation_counter INTEGER NOT NULL, PRIMARY KEY (user_id, kind)
        ) WITHOUT ROWID"""
    )
    conn.executemany("INSERT INTO shard_stamps VALUES (?, ?, ?)", stamps)
    conn.execute("PRAGMA user_version = 7")
    conn.commit()
    conn.close()


def reshape_as_v8(path):
    """What schema v8 wrote: an ids-only journal already, but base slabs
    that still hold a second copy of every vector."""
    conn = sqlite3.connect(path)
    reshape_slabs(conn, encode_through_blocks)
    conn.execute("PRAGMA user_version = 8")
    conn.commit()
    conn.close()


#: the approximate engines' state tables as schema v9 declared them
V9_STATE_TABLES = ("ivf_states", "hnsw_states")


def reshape_as_v9(path, user):
    """What schema v9 wrote: this schema plus the IVF and HNSW state
    tables, each holding one row for ``user``'s description shard at
    that shard's stamp."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """CREATE TABLE ivf_states (
            user_id INTEGER NOT NULL, kind TEXT NOT NULL,
            mutation_counter INTEGER NOT NULL, dim INTEGER NOT NULL,
            nlist INTEGER NOT NULL, rows INTEGER NOT NULL,
            centroids BLOB NOT NULL, list_sizes BLOB NOT NULL,
            members BLOB NOT NULL, PRIMARY KEY (user_id, kind)
        );
        CREATE TABLE hnsw_states (
            user_id INTEGER NOT NULL, kind TEXT NOT NULL,
            mutation_counter INTEGER NOT NULL, rows INTEGER NOT NULL,
            m0 INTEGER NOT NULL, levels BLOB NOT NULL,
            neighbors BLOB NOT NULL, PRIMARY KEY (user_id, kind)
        );"""
    )
    stamp, rows = conn.execute(
        "SELECT s.mutation_counter, b.rows FROM shard_stamps s"
        " JOIN index_shards b USING (user_id, kind)"
        " WHERE s.user_id = ? AND s.kind = ?",
        (user.user_id, KIND_DESC),
    ).fetchone()
    members = np.arange(rows, dtype=np.int64)
    conn.execute(
        "INSERT INTO ivf_states VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            user.user_id, KIND_DESC, stamp, DIM, 1, rows,
            np.ones((1, DIM), np.float32).tobytes(),
            np.array([rows], np.int64).tobytes(), members.tobytes(),
        ),
    )
    conn.execute(
        "INSERT INTO hnsw_states VALUES (?, ?, ?, ?, ?, ?, ?)",
        (
            user.user_id, KIND_DESC, stamp, rows, 2,
            np.zeros(rows, np.int64).tobytes(),
            np.full((rows, 2), -1, np.int64).tobytes(),
        ),
    )
    conn.execute("PRAGMA user_version = 9")
    conn.commit()
    conn.close()


def dump_without(path, tables):
    """Every schema entry and row of the file, except ``tables``'."""
    conn = sqlite3.connect(path)
    lines = [
        line for line in conn.iterdump()
        if not any(table in line for table in tables)
    ]
    conn.close()
    return lines


def schema_of(dao):
    return {
        row[0]: row[1]
        for row in dao._conn.execute(
            "SELECT name, sql FROM sqlite_master WHERE sql IS NOT NULL"
        )
    }


class TestMigration:
    def test_v7_file_opens_fresh_takes_a_write_and_reopens_fresh(
        self, tmp_path
    ):
        rng = np.random.default_rng(81)
        path = tmp_path / "registry.db"
        new_4k_file(path)
        alice, bob = populate(path, rng)
        reshape_as_v7(path)

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 10
        # an existing file keeps its pages
        assert dao._conn.execute("PRAGMA page_size").fetchone()[0] == 4096
        schema = schema_of(dao)
        assert "idx_index_deltas_shard" not in schema
        assert "index_deltas_v7" not in schema
        for table in ("index_deltas", "index_shards"):
            assert "vectors" not in schema[table]
            assert "dim" not in schema[table]
        # journal membership survived, in order
        chain = dao.shard_chain_meta()[(alice.user_id, KIND_DESC)]
        assert (chain["rows"], chain["chainLen"]) == (10, 3)

        self.serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng)

    def test_v8_file_drops_its_slab_vectors_and_attaches_fresh(
        self, tmp_path
    ):
        rng = np.random.default_rng(86)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        reshape_as_v8(path)
        conn = sqlite3.connect(path)
        slab_bytes = conn.execute(
            "SELECT SUM(LENGTH(vectors)) FROM index_shards"
        ).fetchone()[0]
        conn.close()
        assert slab_bytes >= 10 * DIM * 4

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 10
        slab = schema_of(dao)["index_shards"]
        assert "vectors" not in slab and "dim" not in slab
        # slab membership survived
        chain = dao.shard_chain_meta()[(alice.user_id, KIND_DESC)]
        assert (chain["rows"], chain["chainLen"]) == (10, 3)
        self.serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng)

    def test_v9_file_drops_its_ann_state_tables_and_attaches_fresh(
        self, tmp_path
    ):
        rng = np.random.default_rng(87)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        reshape_as_v9(path, alice)
        conn = sqlite3.connect(path)
        for table in V9_STATE_TABLES:
            count = conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            assert count[0] == 1
        conn.close()

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 10
        assert not set(V9_STATE_TABLES) & set(schema_of(dao))
        self.serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng)
        # nothing brought them back
        dao = SqliteDAO(path)
        assert not set(V9_STATE_TABLES) & set(schema_of(dao))
        dao.close()

    def test_v9_to_v10_changes_nothing_but_the_state_tables(self, tmp_path):
        rng = np.random.default_rng(88)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        reshape_as_v9(path, alice)
        before = dump_without(path, V9_STATE_TABLES)
        assert len(before) < len(dump_without(path, ()))
        SqliteDAO(path).close()
        assert dump_without(path, ()) == before

    @pytest.mark.parametrize(
        # the migration's drops commit one by one: a crash can leave a
        # v9 file with one table or none
        "dropped", [V9_STATE_TABLES[:1], V9_STATE_TABLES],
        ids=["one-dropped", "both-dropped"],
    )
    def test_v9_migration_cut_short_completes_on_the_next_open(
        self, tmp_path, dropped
    ):
        rng = np.random.default_rng(89)
        path = tmp_path / "registry.db"
        alice, _bob = populate(path, rng)
        reshape_as_v9(path, alice)
        conn = sqlite3.connect(path)
        for table in dropped:
            conn.execute(f"DROP TABLE {table}")
        conn.commit()
        conn.close()

        dao = SqliteDAO(path)
        assert dao._conn.execute("PRAGMA user_version").fetchone()[0] == 10
        assert not set(V9_STATE_TABLES) & set(schema_of(dao))
        self.serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng)

    @staticmethod
    def serves_fresh_takes_a_write_and_reopens_fresh(dao, path, rng):
        service = RegistryService(dao)
        index = VectorIndex()
        assert service.attach_index(index) == "fresh"
        assert_persisted_equals_live(dao, index)
        assert_equals_brute_force(index, dao)
        user = service.get_user("alice")
        records = [
            r for r in service.user_pes(user) if r.desc_embedding is not None
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

    def test_shard_v7_left_stale_is_seeded_stale(self, tmp_path):
        """A v7 crash between mutation and journal append left the stamp
        above the chain tip: the migrated ``tip`` keeps that gap, later
        writes do not paper over it, the next attach rebuilds it."""
        rng = np.random.default_rng(82)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        reshape_as_v7(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE shard_stamps SET mutation_counter = mutation_counter + 1"
            " WHERE user_id = ? AND kind = ?",
            (bob.user_id, KIND_CODE),
        )
        conn.commit()
        conn.close()

        service = RegistryService(SqliteDAO(path))
        user = service.get_user("bob")
        key = (bob.user_id, KIND_CODE)
        before = service.dao.shard_chain_meta()[key]
        service.register_pe(
            user,
            make_pe(
                "OverTheGap", code="Z2Fw",
                desc_embedding=unit(rng), code_embedding=unit(rng),
            ),
        )
        assert service.dao.shard_chain_meta()[key] == before
        index = VectorIndex()
        assert service.attach_index(index) == "partial"
        assert_persisted_equals_live(service.dao, index)
        assert_equals_brute_force(index, service.dao)
        service.dao.close()

    def test_provably_current_pre_v6_snapshot_is_seeded_covered(
        self, tmp_path
    ):
        """A pre-v6 file whose uniform snapshot counter equals the live
        mutation counter has its stamps seeded from the snapshot; they
        must come out covered (tip == stamp), not merely stamped."""
        rng = np.random.default_rng(85)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        dao = SqliteDAO(path)
        index = VectorIndex()
        RegistryService(dao).attach_index(index)
        dao.save_index_shards(
            {key: ids for key, (ids, _matrix) in index.export_shards().items()},
            dao.mutation_counter(),
        )
        dao._conn.executescript(
            "DELETE FROM shard_stamps; PRAGMA user_version = 5;"
        )
        dao.close()

        service = RegistryService(SqliteDAO(path))
        warm = VectorIndex()
        assert service.attach_index(warm) == "fresh"
        assert live_shards(warm) == live_shards(index)
        service.register_pe(
            service.get_user("alice"),
            make_pe("Next", code="bmV4dA==", desc_embedding=unit(rng)),
        )
        assert_persisted_equals_live(service.dao, warm)
        service.dao.close()

    def test_content_nobody_stamped_is_not_a_shard_born_empty(self, tmp_path):
        """A pre-v6 file nobody attached holds records without stamp
        rows.  "No stamp row" must mean "no content" before a first
        journal row may count as a complete chain — so the migration
        stamps such shards stale."""
        rng = np.random.default_rng(83)
        path = tmp_path / "registry.db"
        alice, bob = populate(path, rng)
        conn = sqlite3.connect(path)
        conn.executescript(
            "DELETE FROM shard_stamps; DELETE FROM index_shards;"
            "DELETE FROM index_deltas; PRAGMA user_version = 5;"
        )
        conn.close()

        dao = SqliteDAO(path)
        assert set(dao.shard_stamps()) == {
            (alice.user_id, KIND_DESC), (alice.user_id, KIND_CODE),
            (bob.user_id, KIND_DESC), (bob.user_id, KIND_CODE),
            (bob.user_id, KIND_WORKFLOW),
        }
        service = RegistryService(dao)
        service.register_pe(
            service.get_user("alice"),
            make_pe("First", code="Zmlyc3Q=", desc_embedding=unit(rng)),
        )
        # not journaled as if the shard had been empty before it
        assert dao.index_shards_meta()["deltas"] == 0
        index = VectorIndex()
        assert service.attach_index(index) == "rebuilt"
        assert_persisted_equals_live(dao, index)
        assert_equals_brute_force(index, dao)
        dao.close()


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

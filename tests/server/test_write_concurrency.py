"""Cross-process write serialization and receipt lifecycle at app level.

A multi-process fleet shares one SQLite file but no lock in memory:
each write is one transaction that takes SQLite's write lock before it
reads a receipt or a revision, which is what guarantees exactly one
writer executes a keyed write (everyone else replays the stored
response byte-exact) and one ``ifVersion`` race winner.  Two
LaminarServers over two DAO handles on one database file model two
fleet processes faithfully.
"""

import sys
import threading

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.search import KIND_CODE, KIND_DESC
from repro.server import LaminarServer, v1_write
from tests.helpers import brute_force_index, shard_bytes


def _login(server, user="fleet", password="pw", register=True):
    if register:
        server.dispatch(
            Request(
                "POST",
                "/auth/register",
                {"userName": user, "password": password},
            )
        )
    reply = server.dispatch(
        Request(
            "POST", "/auth/login", {"userName": user, "password": password}
        )
    )
    return reply.body["token"]


class TestCrossProcessSerialization:
    def test_exactly_one_writer_wins_per_key(self, tmp_path, fast_bundle):
        path = tmp_path / "fleet.db"
        dao_a, dao_b = SqliteDAO(path), SqliteDAO(path)
        server_a = LaminarServer(dao=dao_a, models=fast_bundle)
        server_b = LaminarServer(dao=dao_b, models=fast_bundle)
        token_a = _login(server_a)
        token_b = _login(server_b, register=False)  # same user row

        before = dao_a.mutation_counter()
        barrier = threading.Barrier(2)
        responses = {}

        def writer(name, server, token):
            request = Request(
                "PUT",
                "/v1/registry/fleet/pes/shared",
                {
                    "peCode": "def shared(): pass",
                    "idempotencyKey": "fleet-key",
                },
                token=token,
            )
            barrier.wait()
            responses[name] = server.dispatch(request)

        threads = [
            threading.Thread(target=writer, args=("a", server_a, token_a)),
            threading.Thread(target=writer, args=("b", server_b, token_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        first, second = responses["a"], responses["b"]
        assert first.status == second.status == 201
        assert first.body == second.body  # loser replays byte-exact
        replay_flags = [
            r.headers.get("Idempotent-Replay") for r in (first, second)
        ]
        assert sorted(replay_flags, key=str) == [None, "true"]
        # exactly ONE registry mutation happened across the fleet
        assert dao_a.mutation_counter() == before + 1
        dao_a.close()
        dao_b.close()

    def test_conflicting_payload_under_same_key_is_rejected(
        self, tmp_path, fast_bundle
    ):
        path = tmp_path / "fleet2.db"
        dao_a, dao_b = SqliteDAO(path), SqliteDAO(path)
        server_a = LaminarServer(dao=dao_a, models=fast_bundle)
        server_b = LaminarServer(dao=dao_b, models=fast_bundle)
        token_a = _login(server_a)
        token_b = _login(server_b, register=False)

        winner = server_a.dispatch(
            Request(
                "PUT",
                "/v1/registry/fleet/pes/guard",
                {"peCode": "def guard(): pass", "idempotencyKey": "g-key"},
                token=token_a,
            )
        )
        assert winner.status == 201
        # a different payload reusing the key from the OTHER process
        conflict = server_b.dispatch(
            Request(
                "PUT",
                "/v1/registry/fleet/pes/guard",
                {
                    "peCode": "def guard(): DIFFERENT",
                    "idempotencyKey": "g-key",
                },
                token=token_b,
            )
        )
        assert conflict.status == 409
        dao_a.close()
        dao_b.close()


class TestReceiptLifecycleAtAppLevel:
    def _put(self, server, token, key, code="def gc(): pass", name="gc"):
        return server.dispatch(
            Request(
                "PUT",
                f"/v1/registry/fleet/pes/{name}",
                {"peCode": code, "idempotencyKey": key},
                token=token,
            )
        )

    def test_no_knobs_keeps_receipts_forever(self, fast_bundle):
        server = LaminarServer(models=fast_bundle)
        token = _login(server)
        first = self._put(server, token, "forever")
        for _ in range(3):
            self._put(server, token, "other", name="other")
        replay = self._put(server, token, "forever")
        assert replay.headers.get("Idempotent-Replay") == "true"
        assert replay.body == first.body


def _put(server, token, body, name="guard"):
    return server.dispatch(
        Request("PUT", f"/v1/registry/fleet/pes/{name}", body, token=token)
    )


class TestOneTransactionPerWrite:
    """A write, its ``ifVersion`` check and its receipt commit together."""

    def test_a_pending_row_left_by_a_crash_is_taken_over(self, tmp_path,
                                                         fast_bundle):
        path = tmp_path / "crashed.db"
        dao = SqliteDAO(path)
        server = LaminarServer(dao=dao, models=fast_bundle)
        token = _login(server)
        user_id = dao.get_user_by_name("fleet").user_id
        # what a process of an earlier checkout left when killed between
        # committing its claim and its write
        dao._conn.execute(
            "INSERT INTO write_receipts"
            " (user_id, idem_key, fingerprint, status, body)"
            " VALUES (?, 'stuck', 'fp-of-the-dead-write', -1, '{}')",
            (user_id,),
        )
        dao._conn.commit()
        body = {"peCode": "def guard(): pass", "idempotencyKey": "stuck"}
        first = _put(server, token, body)
        assert first.status == 201
        assert "Idempotent-Replay" not in first.headers
        replay = _put(server, token, body)
        assert replay.headers.get("Idempotent-Replay") == "true"
        assert replay.body == first.body
        dao.close()

    def test_a_fault_before_the_receipt_lands_nothing(self, fast_bundle,
                                                      monkeypatch):
        server = LaminarServer(models=fast_bundle)
        token = _login(server)
        dao = server.registry.dao
        user_id = dao.get_user_by_name("fleet").user_id
        body = {"peCode": "def guard(): pass", "idempotencyKey": "k"}
        counter = dao.mutation_counter()

        def fault(*_args, **_kwargs):
            raise RuntimeError("fault between the mutation and the receipt")

        with monkeypatch.context() as patch:
            patch.setattr(SqliteDAO, "save_write_receipt", fault)
            assert _put(server, token, body).status == 500
        assert dao.find_pe_by_name("guard") == []
        assert dao.mutation_counter() == counter
        assert dao.get_write_receipt(user_id, "k") is None
        for kind in (KIND_DESC, KIND_CODE):
            assert server.index.stats()[f"{user_id}/{kind}"]["live"] == 0
        # the key is free: the retry is the write, not a replay
        retry = _put(server, token, body)
        assert retry.status == 201
        assert "Idempotent-Replay" not in retry.headers
        assert len(dao.find_pe_by_name("guard")) == 1
        assert server.index.stats()[f"{user_id}/{KIND_DESC}"]["live"] == 1

    def test_if_version_puts_from_two_servers_have_one_winner(
        self, tmp_path, fast_bundle, monkeypatch
    ):
        """Server ``a`` stops inside its write, after its ``ifVersion``
        check, until server ``b`` has begun its own write (or, were the
        check not in ``a``'s transaction, finished it): ``b`` then waits
        for ``a``'s commit and sees the revision ``a`` wrote."""
        path = tmp_path / "cas.db"
        dao_a, dao_b = SqliteDAO(path), SqliteDAO(path)
        server_a = LaminarServer(dao=dao_a, models=fast_bundle)
        server_b = LaminarServer(dao=dao_b, models=fast_bundle)
        token_a = _login(server_a)
        token_b = _login(server_b, register=False)
        code = "def guard(): pass"
        assert _put(server_a, token_a, {"peCode": code}).status == 201

        checked, b_writing, resume = (threading.Event() for _ in range(3))
        check = v1_write._check_revision

        def check_then_wait(*args, **kwargs):
            check(*args, **kwargs)
            if threading.current_thread().name == "a":
                checked.set()
                assert resume.wait(30)

        monkeypatch.setattr(v1_write, "_check_revision", check_then_wait)
        dao_b._conn.set_trace_callback(
            lambda sql: sql.startswith("BEGIN IMMEDIATE") and b_writing.set()
        )
        responses = {}

        def writer(name, server, token):
            responses[name] = _put(
                server,
                token,
                {"peCode": code, "description": f"by {name}", "ifVersion": 1},
            )
            b_writing.set()

        thread_a = threading.Thread(
            target=writer, args=("a", server_a, token_a), name="a"
        )
        thread_b = threading.Thread(
            target=writer, args=("b", server_b, token_b), name="b"
        )
        thread_a.start()
        assert checked.wait(30)
        thread_b.start()
        assert b_writing.wait(30)
        resume.set()
        for thread in (thread_a, thread_b):
            thread.join(30)
            assert not thread.is_alive()
        dao_b._conn.set_trace_callback(None)

        assert {name: r.status for name, r in responses.items()} == {
            "a": 200, "b": 412,
        }
        (record,) = dao_b.find_pe_by_name("guard")
        assert (record.revision, record.description) == (2, "by a")
        dao_a.close()
        dao_b.close()

    def test_concurrent_writes_leave_the_index_equal_to_the_rows(
        self, fast_bundle
    ):
        """The live index takes each write's changes after its commit,
        in commit order: threads racing new PUTs, upserts, revises and
        DELETEs on a few shared names leave it equal to the one the
        rows build."""
        server = LaminarServer(models=fast_bundle)
        token = _login(server)

        def churn(worker):
            for step in range(24):
                name = f"shared{step % 3}"
                if step % 4 == 3:
                    server.dispatch(Request(
                        "DELETE", f"/v1/registry/fleet/pes/{name}", {},
                        token=token,
                    ))
                    continue
                _put(server, token, {
                    "peCode": f"def {name}(): return {worker * step % 5}",
                    "description": f"written by {worker} at {step}",
                }, name=name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(worker,))
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        dao = server.registry.dao
        assert shard_bytes(server.index) == shard_bytes(brute_force_index(dao))

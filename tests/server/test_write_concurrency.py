"""Cross-process write serialization and receipt lifecycle at app level.

A multi-process fleet shares one SQLite file but NOT one
``app.write_lock`` — the idempotency-key claim (``INSERT OR IGNORE``
inside the write transaction) is what guarantees exactly one writer
executes a keyed write; everyone else replays the stored response
byte-exact.  Two LaminarServers over two DAO handles on one database
file model two fleet processes faithfully.
"""

import threading

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer


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

"""Tests for the simulated Redis broker."""

import multiprocessing as mp
import time

import pytest

from repro.brokersim import BrokerServer
from repro.errors import MappingError


@pytest.fixture()
def broker():
    server = BrokerServer(n_clients=4)
    server.start()
    yield server
    server.shutdown()


class TestLists:
    def test_rpush_blpop_fifo(self, broker):
        client = broker.client(0)
        client.rpush("queue", "a")
        client.rpush("queue", "b", "c")
        assert client.blpop("queue", timeout=1.0) == ("queue", "a")
        assert client.blpop("queue", timeout=1.0) == ("queue", "b")
        assert client.blpop("queue", timeout=1.0) == ("queue", "c")

    def test_blpop_timeout_returns_none(self, broker):
        client = broker.client(0)
        t0 = time.monotonic()
        assert client.blpop("empty", timeout=0.2) is None
        assert time.monotonic() - t0 >= 0.15

    def test_blpop_woken_by_push_from_other_client(self, broker):
        waiter, pusher = broker.client(0), broker.client(1)

        def push_later():
            time.sleep(0.1)
            pusher.rpush("channel", "payload")

        import threading

        thread = threading.Thread(target=push_later)
        thread.start()
        result = waiter.blpop("channel", timeout=5.0)
        thread.join()
        assert result == ("channel", "payload")

    def test_pickled_values_round_trip(self, broker):
        client = broker.client(0)
        payload = {"nested": [1, (2, 3)], "name": "x"}
        client.rpush("objects", payload)
        assert client.blpop("objects", timeout=1.0)[1] == payload


class TestParkedWaiters:
    """Blocking pops are parked in the broker; the raw request queue is
    used so several waiters can be parked from one thread, in order."""

    def _park(self, broker, client_id, key, timeout):
        broker.request_q.put((client_id, "BLPOP", (key, timeout)))

    def _reply(self, broker, client_id):
        return broker.response_qs[client_id].get(timeout=5.0)

    def test_rpush_returns_the_list_length(self, broker):
        client = broker.client(0)
        assert client.rpush("queue", "a") == 1
        assert client.rpush("queue", "b", "c") == 3

    def test_keys_are_independent(self, broker):
        client = broker.client(0)
        client.rpush("left", "l")
        client.rpush("right", "r")
        assert client.blpop("right", timeout=1.0) == ("right", "r")
        assert client.blpop("left", timeout=1.0) == ("left", "l")

    def test_waiter_without_timeout_is_woken_by_push(self, broker):
        self._park(broker, 0, "queue", None)
        # the parked waiter takes the value, so the list stays empty
        assert broker.client(1).rpush("queue", "v") == 0
        assert self._reply(broker, 0) == ("ok", ("queue", "v"))

    def test_waiters_on_one_key_are_served_first_come(self, broker):
        self._park(broker, 0, "queue", 5.0)
        self._park(broker, 1, "queue", 5.0)
        broker.client(2).rpush("queue", "first", "second")
        assert self._reply(broker, 0) == ("ok", ("queue", "first"))
        assert self._reply(broker, 1) == ("ok", ("queue", "second"))

    def test_push_skips_an_expired_waiter(self, broker):
        self._park(broker, 0, "queue", 0.0)
        assert broker.client(1).rpush("queue", "kept") == 1
        assert self._reply(broker, 0) == ("ok", None)
        assert broker.client(1).blpop("queue", timeout=1.0) == ("queue", "kept")

    def test_shutdown_releases_parked_waiters(self, broker):
        self._park(broker, 0, "queue", None)
        broker.shutdown()
        assert self._reply(broker, 0) == ("ok", None)


class TestProtocol:
    def test_ping(self, broker):
        assert broker.client(0).ping() == "PONG"

    def test_unknown_command_raises(self, broker):
        client = broker.client(0)
        with pytest.raises(MappingError, match="unknown command"):
            client._call("FLUSHALL")

    def test_client_id_out_of_range(self, broker):
        with pytest.raises(MappingError, match="out of range"):
            broker.client(99)

    def test_shutdown_stops_the_process(self):
        server = BrokerServer(n_clients=1)
        server.start()
        assert server.client(0).ping() == "PONG"
        server.shutdown()
        assert not server._process.is_alive()

    def test_shutdown_idempotent(self, broker):
        broker.shutdown()
        broker.shutdown()


def _worker_pushes(client, n):
    for i in range(n):
        client.rpush("shared", i)


class TestMultiProcess:
    def test_concurrent_pushers_from_processes(self, broker):
        n_each = 25
        procs = [
            mp.Process(target=_worker_pushes, args=(broker.client(i + 1), n_each))
            for i in range(3)
        ]
        for proc in procs:
            proc.start()
        collected = []
        client = broker.client(0)
        for _ in range(3 * n_each):
            popped = client.blpop("shared", timeout=10.0)
            assert popped is not None
            collected.append(popped[1])
        for proc in procs:
            proc.join(timeout=5.0)
        assert sorted(collected) == sorted(list(range(n_each)) * 3)

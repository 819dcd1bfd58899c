"""The broker process: an in-memory Redis-like key-value/list server.

The broker runs in its own OS process and serves requests arriving on a
single request queue, replying on per-client response queues.  Supported
commands are the Redis subset the redis mapping calls: ``RPUSH``,
``BLPOP`` and ``PING``, plus ``SHUTDOWN`` to stop the broker.

``BLPOP`` is implemented with a parked-waiter table: when the requested
list is empty the client is parked (FIFO per key, like Redis) and woken
by the next ``RPUSH`` to that key or when its timeout expires.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections import defaultdict, deque
from typing import Any

from repro.errors import MappingError

_SWEEP_INTERVAL = 0.05


def _broker_main(request_q: Any, response_qs: dict[int, Any]) -> None:
    """Broker event loop (module-level for spawn-safety)."""
    lists: dict[str, deque] = defaultdict(deque)
    # key -> FIFO of (client_id, deadline or None)
    waiters: dict[str, deque] = defaultdict(deque)

    def reply(client_id: int, value: Any) -> None:
        response_qs[client_id].put(("ok", value))

    def reply_error(client_id: int, message: str) -> None:
        response_qs[client_id].put(("error", message))

    def wake_waiters(key: str) -> None:
        queue = waiters.get(key)
        while queue and lists[key]:
            client_id, deadline = queue.popleft()
            if deadline is not None and time.monotonic() > deadline:
                reply(client_id, None)  # waited too long; Redis returns nil
                continue
            reply(client_id, (key, lists[key].popleft()))
        if queue is not None and not queue:
            waiters.pop(key, None)

    def sweep_timeouts() -> None:
        now = time.monotonic()
        for key in list(waiters):
            queue = waiters[key]
            kept: deque = deque()
            for client_id, deadline in queue:
                if deadline is not None and now > deadline:
                    reply(client_id, None)
                else:
                    kept.append((client_id, deadline))
            if kept:
                waiters[key] = kept
            else:
                waiters.pop(key, None)

    running = True
    while running:
        try:
            client_id, op, args = request_q.get(timeout=_SWEEP_INTERVAL)
        except queue_mod.Empty:
            sweep_timeouts()
            continue
        try:
            if op == "PING":
                reply(client_id, "PONG")
            elif op == "SHUTDOWN":
                reply(client_id, True)
                running = False
            elif op == "RPUSH":
                key, values = args
                lists[key].extend(values)
                wake_waiters(key)
                reply(client_id, len(lists[key]))
            elif op == "BLPOP":
                key, timeout = args
                if lists[key]:
                    reply(client_id, (key, lists[key].popleft()))
                else:
                    deadline = (
                        None if timeout is None else time.monotonic() + timeout
                    )
                    waiters[key].append((client_id, deadline))
            else:
                reply_error(client_id, f"unknown command {op!r}")
        except Exception as exc:  # pragma: no cover - defensive
            reply_error(client_id, f"{type(exc).__name__}: {exc}")

    # broker shutting down: fail any remaining waiters
    for key in list(waiters):
        for client_id, _deadline in waiters[key]:
            reply(client_id, None)


class BrokerServer:
    """Parent-side handle: starts the broker process and issues clients."""

    def __init__(self, n_clients: int) -> None:
        if n_clients < 1:
            raise MappingError(f"need at least one client, got {n_clients}")
        ctx = mp.get_context()
        self.request_q = ctx.Queue()
        # one extra response queue reserved for the server's own admin
        # client (used by shutdown) so it never races a worker's replies
        self.response_qs: dict[int, Any] = {
            i: ctx.Queue() for i in range(n_clients + 1)
        }
        self.n_clients = n_clients
        self._admin_id = n_clients
        self._process = ctx.Process(
            target=_broker_main,
            args=(self.request_q, self.response_qs),
            daemon=True,
        )
        self._issued = 0

    def start(self) -> "BrokerServer":
        self._process.start()
        return self

    def client(self, client_id: int | None = None) -> "BrokerClient":
        """Create a client handle (safe to pass to a child process)."""
        from repro.brokersim.client import BrokerClient

        if client_id is None:
            client_id = self._issued
        if not 0 <= client_id < self.n_clients:
            raise MappingError(
                f"client id {client_id} out of range (n={self.n_clients})"
            )
        self._issued = max(self._issued, client_id + 1)
        return BrokerClient(
            client_id, self.request_q, self.response_qs[client_id]
        )

    def shutdown(self, timeout: float = 5.0) -> None:
        from repro.brokersim.client import BrokerClient

        if self._process.is_alive():
            try:
                admin = BrokerClient(
                    self._admin_id,
                    self.request_q,
                    self.response_qs[self._admin_id],
                )
                admin.shutdown()
            except Exception:  # pragma: no cover - defensive
                pass
            self._process.join(timeout=timeout)
            if self._process.is_alive():
                self.kill()

    def kill(self) -> None:
        """Stop the broker without a word on the request queue: a client
        killed mid-write may have left that queue unusable, and a write
        to it would then never finish."""
        self._process.terminate()
        self._process.join(timeout=1.0)

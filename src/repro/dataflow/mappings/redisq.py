"""Redis mapping — PE instances communicate through broker lists.

Mirrors dispel4py's redis mapping: every instance owns a list
(``q:<gid>``) on the broker; producers/relays ``RPUSH`` data units to
their destinations' lists and each instance ``BLPOP``s its own list.
Results, stdout and completion signals flow through a shared
``collector`` list that the parent drains.

Substitution note (DESIGN.md): the broker is the simulated Redis of
:mod:`repro.brokersim` — a separate OS process with Redis list
semantics — because no Redis server is available offline.  Workers are
real OS processes, one per instance, each holding its own broker client
("connection").
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.brokersim import BrokerClient, BrokerServer
from repro.dataflow.mappings.base import COLLECTOR, MailboxMapping, Mailboxes
from repro.errors import MappingError

#: longest an instance waits for its next message before it gives up
_BLPOP_TIMEOUT = 290.0


class _BrokerLists(Mailboxes):
    """The broker's lists, reached through one process's own client."""

    def __init__(self, client: BrokerClient) -> None:
        self.client = client

    @staticmethod
    def _key(gid: int) -> str:
        return "collector" if gid == COLLECTOR else f"q:{gid}"

    def put(self, gid: int, msg: tuple) -> None:
        self.client.rpush(self._key(gid), msg)

    def take(self, gid: int, timeout: float | None) -> tuple | None:
        popped = self.client.blpop(
            self._key(gid), timeout=_BLPOP_TIMEOUT if timeout is None else timeout
        )
        if popped is None and timeout is None:
            raise MappingError(
                f"instance {gid} starved: no message within {_BLPOP_TIMEOUT}s",
                params={"gid": gid},
            )
        return None if popped is None else popped[1]


class RedisMapping(MailboxMapping):
    """Parallel enactment through the simulated Redis broker."""

    name = "redis"

    @contextmanager
    def _fabric(self, total: int) -> Iterator[tuple[Mailboxes, list[Mailboxes]]]:
        # client 0..total-1 for the workers, client `total` for the parent
        server = BrokerServer(n_clients=total + 1)
        server.start()
        try:
            parent = server.client(total)
            parent.ping()
            yield _BrokerLists(parent), [
                _BrokerLists(server.client(gid)) for gid in range(total)
            ]
        except BaseException:
            # workers were killed at once, perhaps one mid-write
            server.kill()
            raise
        server.shutdown()

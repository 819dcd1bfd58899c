"""MPI mapping — one rank per PE instance over the simulated communicator.

Mirrors dispel4py's MPI enactment: rank *i* hosts instance *i* of the
concrete workflow, and stream data travels as tagged point-to-point
messages.  One more rank, the last, is the launching process itself: it
plays the driver (injecting externally supplied input items) and the
collector, to which every rank sends its results, stdout and terminal
message.  Spawning, collecting and stopping the ranks is the shared
:class:`~repro.dataflow.mappings.base.MailboxMapping` enactment.

Hardware substitution: the communicator is :mod:`repro.mpisim`,
message-passing over multiprocessing queues, because no MPI middleware
is available offline.  Ranks are real OS processes.
"""

from __future__ import annotations

import multiprocessing as mp
from collections.abc import Iterator
from contextlib import contextmanager

from repro.dataflow.mappings.base import COLLECTOR, MailboxMapping, Mailboxes
from repro.mpisim import Communicator, RecvTimeout

#: tag carrying stream data/EOS between instances
TAG_STREAM = 7
#: tag carrying results, stdout and terminal messages to the driver rank
TAG_COLLECT = 8


class _RankMailboxes(Mailboxes):
    """One rank's mailboxes: its own stream and, on the driver rank (the
    last), the collector's; every put is a point-to-point send."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm

    def put(self, gid: int, msg: tuple) -> None:
        if gid == COLLECTOR:
            self.comm.send(msg, dest=self.comm.size - 1, tag=TAG_COLLECT)
        else:
            self.comm.send(msg, dest=gid, tag=TAG_STREAM)

    def take(self, gid: int, timeout: float | None) -> tuple | None:
        try:
            return self.comm.recv(
                tag=TAG_COLLECT if gid == COLLECTOR else TAG_STREAM,
                timeout=timeout,
            )
        except RecvTimeout:
            return None


class MPIMapping(MailboxMapping):
    """Parallel enactment over the simulated MPI communicator."""

    name = "mpi"

    @contextmanager
    def _fabric(self, total: int) -> Iterator[tuple[Mailboxes, list[Mailboxes]]]:
        ctx = mp.get_context()
        inboxes = {rank: ctx.Queue() for rank in range(total + 1)}
        yield _RankMailboxes(Communicator(total, total + 1, inboxes)), [
            _RankMailboxes(Communicator(gid, total + 1, inboxes))
            for gid in range(total)
        ]

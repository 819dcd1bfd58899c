"""Multiprocessing (``multi``) mapping — one OS process per PE instance.

The concrete workflow of Figure 1 is realized literally: each PE instance
runs in a dedicated process; data units travel over per-instance
``multiprocessing`` queues.  Workers receive the concrete workflow as a
cloudpickle blob — the same serialization path the serverless Execution
Engine uses — so the mapping works regardless of the start method and
faithfully emulates shipping code to ephemeral workers.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from collections.abc import Iterator
from contextlib import contextmanager

from repro.dataflow.mappings.base import COLLECTOR, MailboxMapping, Mailboxes


class _Queues(Mailboxes):
    """One ``multiprocessing`` queue per mailbox, shared by every process."""

    def __init__(self, total: int) -> None:
        ctx = mp.get_context()
        self.queues = {gid: ctx.Queue() for gid in [*range(total), COLLECTOR]}

    def put(self, gid: int, msg: tuple) -> None:
        self.queues[gid].put(msg)

    def take(self, gid: int, timeout: float | None) -> tuple | None:
        try:
            return self.queues[gid].get(timeout=timeout)
        except queue_mod.Empty:
            return None


class MultiMapping(MailboxMapping):
    """Parallel enactment over ``multiprocessing`` queues."""

    name = "multi"

    @contextmanager
    def _fabric(self, total: int) -> Iterator[tuple[Mailboxes, list[Mailboxes]]]:
        queues = _Queues(total)
        yield queues, [queues] * total

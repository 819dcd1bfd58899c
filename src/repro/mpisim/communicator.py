"""An mpi4py-like communicator over multiprocessing queues.

Implements the part of mpi4py's "communication of generic Python
objects" API (all-lowercase method names, objects pickled under the
hood) that the MPI mapping calls: ``send`` and ``recv``, plus the
``size`` property.

Message matching follows MPI semantics: ``recv`` can select by source
rank and tag, with :data:`ANY_SOURCE`/:data:`ANY_TAG` wildcards; messages
that arrive while waiting for a specific match are buffered and delivered
to later receives (non-overtaking per (source, tag) channel, because the
underlying queues are FIFO).
"""

from __future__ import annotations

import queue as queue_mod
import time
from typing import Any

from repro.errors import MappingError

ANY_SOURCE = -1
ANY_TAG = -1


class RecvTimeout(MappingError):
    """No matching message arrived within a ``recv``'s timeout."""


class Communicator:
    """A COMM_WORLD-like communicator for one rank.

    Parameters
    ----------
    rank, size:
        This process's rank and the world size.
    inboxes:
        rank -> multiprocessing queue; every rank can put into every inbox
        but only ever gets from its own.
    """

    def __init__(self, rank: int, size: int, inboxes: dict[int, Any]) -> None:
        if not 0 <= rank < size:
            raise MappingError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self._inboxes = inboxes
        self._buffer: list[tuple[int, int, Any]] = []

    @property
    def size(self) -> int:
        return self._size

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send (returns once the message is enqueued)."""
        if not 0 <= dest < self._size:
            raise MappingError(f"send to invalid rank {dest}")
        if tag < 0:
            raise MappingError(f"negative tags are reserved, got {tag}")
        self._inboxes[dest].put((self._rank, tag, obj))

    def _match(self, source: int, tag: int) -> Any | None:
        for i, (src, t, obj) in enumerate(self._buffer):
            if source in (ANY_SOURCE, src) and tag in (ANY_TAG, t):
                del self._buffer[i]
                return (src, t, obj)
        return None

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Blocking receive; returns the received object, or raises
        :class:`RecvTimeout` if none matched within ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            hit = self._match(source, tag)
            if hit is not None:
                return hit[2]
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RecvTimeout(
                        f"recv(source={source}, tag={tag}) timed out on "
                        f"rank {self._rank}",
                        params={"timeout": timeout},
                    )
            try:
                self._buffer.append(
                    self._inboxes[self._rank].get(timeout=remaining)
                )
            except queue_mod.Empty:
                continue

"""An mpi4py-like communicator over multiprocessing queues.

Implements the part of mpi4py's "communication of generic Python
objects" API (all-lowercase method names, objects pickled under the
hood) that the MPI mapping calls: ``send``, ``recv`` and the collectives
``bcast``, ``gather`` and ``barrier``, plus the ``rank``/``size``
properties.

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

#: tag space reserved for collective operations (user tags must be >= 0)
_COLLECTIVE_TAG_BASE = -1000


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
        #: per-collective sequence number; all ranks execute collectives in
        #: the same program order, so these tags agree across the world.
        self._collective_seq = 0

    # -- accessors -------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- point to point --------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send (returns once the message is enqueued)."""
        if not 0 <= dest < self._size:
            raise MappingError(f"send to invalid rank {dest}")
        if tag < 0 and tag > _COLLECTIVE_TAG_BASE:
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
        """Blocking receive; returns the received object."""
        _src, _tag, obj = self._recv_full(source, tag, timeout)
        return obj

    def _recv_full(
        self, source: int, tag: int, timeout: float | None
    ) -> tuple[int, int, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            hit = self._match(source, tag)
            if hit is not None:
                return hit
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MappingError(
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

    # -- collectives -----------------------------------------------------
    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return _COLLECTIVE_TAG_BASE - self._collective_seq

    def _csend(self, obj: Any, dest: int, ctag: int) -> None:
        self._inboxes[dest].put((self._rank, ctag, obj))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        ctag = self._next_collective_tag()
        if self._rank == root:
            for dest in range(self._size):
                if dest != root:
                    self._csend(obj, dest, ctag)
            return obj
        return self.recv(source=root, tag=ctag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        ctag = self._next_collective_tag()
        if self._rank == root:
            out: list[Any] = [None] * self._size
            out[root] = obj
            for src in range(self._size):
                if src != root:
                    out[src] = self.recv(source=src, tag=ctag)
            return out
        self._csend(obj, root, ctag)
        return None

    def barrier(self) -> None:
        """All ranks block until every rank has arrived."""
        self.gather(None, root=0)
        self.bcast(None, root=0)

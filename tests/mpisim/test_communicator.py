"""Tests for the simulated MPI communicator and launcher."""

import pytest

from repro.errors import MappingError
from repro.mpisim import ANY_SOURCE, ANY_TAG, Communicator, MPIRunError, mpi_run


# ----------------------------------------------------------------------
# module-level rank functions (spawn-safe, cloudpickled by the launcher)
# ----------------------------------------------------------------------

def _ring(comm):
    """Pass a token around the ring; every rank returns what it saw."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(comm.rank, dest=right, tag=1)
    return comm.recv(source=left, tag=1)


def _collectives(comm):
    data = comm.bcast({"seed": 7} if comm.rank == 0 else None, root=0)
    gathered = comm.gather(comm.rank * comm.rank + data["seed"], root=0)
    comm.barrier()
    return {"bcast": data, "gather": gathered}


def _wildcard_recv(comm):
    if comm.rank == 0:
        seen = sorted(comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(comm.size - 1))
        return seen
    comm.send(comm.rank * 10, dest=0, tag=comm.rank)
    return None


def _selective_recv(comm):
    """Rank 0 receives from rank 2 FIRST even if rank 1 sent earlier."""
    if comm.rank == 0:
        from_two = comm.recv(source=2, tag=0)
        from_one = comm.recv(source=1, tag=0)
        return (from_two, from_one)
    comm.send(f"hello from {comm.rank}", dest=0, tag=0)
    return None


def _crash(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.rank


def _crash_before_receiving(comm):
    """Rank 1 fails; the others wait for a message it never sends."""
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.recv(source=1, tag=3)


class TestPointToPoint:
    def test_ring_exchange(self):
        results = mpi_run(4, _ring, timeout=60)
        assert results == [3, 0, 1, 2]

    def test_wildcard_receive(self):
        results = mpi_run(3, _wildcard_recv, timeout=60)
        assert results[0] == [10, 20]

    def test_selective_receive_buffers_nonmatching(self):
        results = mpi_run(3, _selective_recv, timeout=60)
        assert results[0] == ("hello from 2", "hello from 1")


class TestCollectives:
    def test_all_collectives_agree(self):
        results = mpi_run(4, _collectives, timeout=60)
        for result in results:
            assert result["bcast"] == {"seed": 7}
        assert results[0]["gather"] == [7, 8, 11, 16]
        assert results[1]["gather"] is None


class TestErrors:
    def test_rank_failure_raises(self):
        with pytest.raises(MPIRunError) as excinfo:
            mpi_run(3, _crash, timeout=60)
        assert "rank 1 exploded" in (excinfo.value.details or "")

    def test_a_failed_run_waits_on_no_live_rank(self, monkeypatch):
        """After the first rank error the launcher stops the others at
        once: every ``join`` it makes is on a rank it has terminated or
        that has already exited, never a timed wait on a live one."""
        from multiprocessing.process import BaseProcess

        terminated, waits_on_live = set(), []
        terminate, join = BaseProcess.terminate, BaseProcess.join

        def recording_terminate(self):
            terminated.add(self.pid)
            terminate(self)

        def recording_join(self, timeout=None):
            if self.pid not in terminated and self.exitcode is None:
                waits_on_live.append((self.pid, timeout))
            join(self, timeout)

        monkeypatch.setattr(BaseProcess, "terminate", recording_terminate)
        monkeypatch.setattr(BaseProcess, "join", recording_join)
        with pytest.raises(MPIRunError) as excinfo:
            mpi_run(3, _crash_before_receiving, timeout=60)
        assert excinfo.value.message == (
            "1 rank(s) failed during simulated MPI run"
        )
        assert "rank 1 exploded" in (excinfo.value.details or "")
        assert terminated  # the blocked ranks were stopped
        assert waits_on_live == []

    def test_zero_ranks_rejected(self):
        with pytest.raises(MappingError, match=">= 1"):
            mpi_run(0, _ring)

    def test_single_rank_ring(self):
        # self-send must work (rank sends to itself)
        assert mpi_run(1, _ring, timeout=60) == [0]


class TestLocalCommunicator:
    """Direct (single-process) communicator checks."""

    def _make(self):
        import queue

        inboxes = {0: queue.Queue()}
        return Communicator(0, 1, inboxes)

    def test_rank_size_accessors(self):
        comm = self._make()
        assert comm.rank == 0 and comm.size == 1

    def test_send_to_invalid_rank_rejected(self):
        comm = self._make()
        with pytest.raises(MappingError, match="invalid rank"):
            comm.send("x", dest=5)

    def test_negative_user_tag_rejected(self):
        comm = self._make()
        with pytest.raises(MappingError, match="reserved"):
            comm.send("x", dest=0, tag=-1)

    def test_recv_timeout(self):
        comm = self._make()
        with pytest.raises(MappingError, match="timed out"):
            comm.recv(timeout=0.05)

    def test_self_send(self):
        comm = self._make()
        comm.send("ping", dest=0, tag=4)
        assert comm.recv(source=0, tag=4) == "ping"

    def test_invalid_rank_construction(self):
        import queue

        with pytest.raises(MappingError, match="out of range"):
            Communicator(5, 2, {0: queue.Queue(), 1: queue.Queue()})


class TestLocalWorld:
    """Several ranks in one process over plain queues: every send is
    buffered, so a single thread can play each rank's part in turn."""

    def _world(self, size):
        import queue

        inboxes = {rank: queue.Queue() for rank in range(size)}
        return [Communicator(rank, size, inboxes) for rank in range(size)]

    def test_recv_by_tag_buffers_the_rest(self):
        zero, one = self._world(2)
        zero.send("first", dest=1, tag=1)
        zero.send("second", dest=1, tag=2)
        assert one.recv(source=0, tag=2, timeout=1.0) == "second"
        assert one.recv(timeout=1.0) == "first"

    def test_recv_by_source_buffers_the_rest(self):
        zero, one, two = self._world(3)
        one.send("from one", dest=0)
        two.send("from two", dest=0)
        assert zero.recv(source=2, timeout=1.0) == "from two"
        assert zero.recv(source=ANY_SOURCE, tag=ANY_TAG, timeout=1.0) == (
            "from one"
        )

    def test_one_channel_never_overtakes(self):
        zero, one = self._world(2)
        for n in range(5):
            zero.send(n, dest=1, tag=3)
        assert [one.recv(source=0, tag=3, timeout=1.0) for _ in range(5)] == [
            0, 1, 2, 3, 4,
        ]

    def test_bcast_from_a_nonzero_root(self):
        zero, one, two = self._world(3)
        assert two.bcast({"k": 1}, root=2) == {"k": 1}
        assert zero.bcast(None, root=2) == {"k": 1}
        assert one.bcast(None, root=2) == {"k": 1}

    def test_gather_to_a_nonzero_root(self):
        zero, one, two = self._world(3)
        assert zero.gather("a", root=1) is None
        assert two.gather("c", root=1) is None
        assert one.gather("b", root=1) == ["a", "b", "c"]

    def test_collective_leaves_buffered_user_messages(self):
        zero, one = self._world(2)
        zero.send("user", dest=1, tag=0)
        zero.bcast("collective", root=0)
        assert one.bcast(None, root=0) == "collective"
        assert one.recv(source=0, tag=0, timeout=1.0) == "user"

    def test_successive_collectives_match_in_program_order(self):
        zero, one = self._world(2)
        zero.bcast("one", root=0)
        zero.bcast("two", root=0)
        assert one.bcast(None, root=0) == "one"
        assert one.bcast(None, root=0) == "two"

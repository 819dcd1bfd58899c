"""Tests for the simulated MPI communicator and the MPI mapping over it."""

import multiprocessing as mp

import pytest

from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings import run_workflow
from repro.dataflow.mappings.base import COLLECTOR
from repro.dataflow.mappings.mpi import MPIMapping
from repro.errors import MappingError
from repro.mpisim import ANY_SOURCE, ANY_TAG, Communicator
from tests.helpers import FailingPE, OneToTenProducer


# ----------------------------------------------------------------------
# cross-process worlds: one OS process per rank, as in the MPI mapping
# ----------------------------------------------------------------------

def _rank_main(func, rank, size, inboxes, results):
    results.put((rank, func(rank, Communicator(rank, size, inboxes))))


def _run_ranks(nprocs, func, timeout=30.0):
    """Run ``func(rank, comm)`` on ``nprocs`` processes sharing one world;
    return the per-rank results ordered by rank."""
    ctx = mp.get_context()
    inboxes = {rank: ctx.Queue() for rank in range(nprocs)}
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_rank_main,
            args=(func, rank, nprocs, inboxes, results),
            daemon=True,
        )
        for rank in range(nprocs)
    ]
    for proc in procs:
        proc.start()
    try:
        by_rank = dict(results.get(timeout=timeout) for _ in procs)
    finally:
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    return [by_rank[rank] for rank in range(nprocs)]


def _ring(rank, comm):
    """Pass a token around the ring; every rank returns what it saw."""
    comm.send(rank, dest=(rank + 1) % comm.size, tag=1)
    return comm.recv(source=(rank - 1) % comm.size, tag=1)


def _wildcard_recv(rank, comm):
    if rank == 0:
        return sorted(
            comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            for _ in range(comm.size - 1)
        )
    comm.send(rank * 10, dest=0, tag=rank)
    return None


def _selective_recv(rank, comm):
    """Rank 0 receives from rank 2 FIRST even if rank 1 sent earlier."""
    if rank == 0:
        from_two = comm.recv(source=2, tag=0)
        from_one = comm.recv(source=1, tag=0)
        return (from_two, from_one)
    comm.send(f"hello from {rank}", dest=0, tag=0)
    return None


class TestPointToPoint:
    def test_ring_exchange(self):
        assert _run_ranks(4, _ring) == [3, 0, 1, 2]

    def test_wildcard_receive(self):
        assert _run_ranks(3, _wildcard_recv)[0] == [10, 20]

    def test_selective_receive_buffers_nonmatching(self):
        results = _run_ranks(3, _selective_recv)
        assert results[0] == ("hello from 2", "hello from 1")


def _failing_graph():
    graph = WorkflowGraph("failing")
    graph.connect(OneToTenProducer(), "output", FailingPE(poison=2), "input")
    return graph


class TestErrors:
    def test_rank_failure_raises(self):
        with pytest.raises(MappingError) as excinfo:
            run_workflow(
                _failing_graph(), input=3, mapping="mpi", nprocs=3, timeout=60,
            )
        assert excinfo.value.message == (
            "worker process(es) failed during mpi enactment"
        )
        assert "poisoned input 2" in (excinfo.value.details or "")

    def test_zero_ranks_rejected(self):
        with pytest.raises(MappingError, match=">= 1"):
            run_workflow(_failing_graph(), input=1, mapping="mpi", nprocs=0)

    def test_single_rank_ring(self):
        # self-send must work (rank sends to itself)
        assert _run_ranks(1, _ring) == [0]


class TestRankMailboxes:
    """The MPI mapping's fabric: ranks 0..total-1 are the instances and
    the last rank is the driver and collector."""

    def test_stream_put_reaches_only_its_rank(self):
        with MPIMapping()._fabric(2) as (driver, ranks):
            driver.put(1, ("data", "input", 5))
            assert ranks[1].take(1, timeout=5.0) == ("data", "input", 5)
            assert ranks[0].take(0, timeout=0.05) is None

    def test_collector_put_reaches_the_driver_rank(self):
        with MPIMapping()._fabric(2) as (driver, ranks):
            ranks[0].put(COLLECTOR, ("done", 0))
            ranks[1].put(1, ("eos", "input"))
            assert driver.take(COLLECTOR, timeout=5.0) == ("done", 0)
            assert driver.take(COLLECTOR, timeout=0.05) is None
            assert ranks[1].take(1, timeout=5.0) == ("eos", "input")

    def test_take_returns_none_when_nothing_arrives(self):
        with MPIMapping()._fabric(1) as (driver, ranks):
            assert driver.take(COLLECTOR, timeout=0.05) is None
            assert ranks[0].take(0, timeout=0.05) is None


class TestLocalCommunicator:
    """Direct (single-process) communicator checks."""

    def _make(self):
        import queue

        inboxes = {0: queue.Queue()}
        return Communicator(0, 1, inboxes)

    def test_size_accessor(self):
        comm = self._make()
        assert comm.size == 1

    def test_send_to_invalid_rank_rejected(self):
        comm = self._make()
        with pytest.raises(MappingError, match="invalid rank"):
            comm.send("x", dest=5)

    def test_negative_user_tag_rejected(self):
        comm = self._make()
        for tag in (-1, -1001):
            with pytest.raises(MappingError, match="reserved"):
                comm.send("x", dest=0, tag=tag)

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

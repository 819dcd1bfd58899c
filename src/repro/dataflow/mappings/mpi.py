"""MPI mapping — one rank per PE instance over the simulated communicator.

Mirrors dispel4py's MPI enactment: rank *i* hosts instance *i* of the
concrete workflow; stream data travels as tagged point-to-point messages;
rank 0 additionally plays the driver (injecting externally supplied input
items) and gathers results/stdout/counters from all ranks at the end via
a collective ``gather`` — the same communication pattern a real
``mpiexec`` run of dispel4py uses.

Hardware substitution (see DESIGN.md): the communicator is
:mod:`repro.mpisim`, message-passing over multiprocessing queues, because
no MPI middleware is available offline.  Ranks are real OS processes.
"""

from __future__ import annotations

import time
from typing import Any

import cloudpickle

from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings.base import (
    COLLECTOR,
    InstanceRunner,
    InstanceTransport,
    Mailboxes,
    Mapping,
    MappingResult,
    effective_expected_eos,
    inject,
    normalize_input,
)
from repro.errors import MappingError
from repro.mpisim import Communicator, mpi_run

#: tag carrying stream data/EOS between instances
TAG_STREAM = 7


class _RankMailboxes(Mailboxes):
    """Stream messages travel point to point over the simulated
    communicator; the collector's stay on the rank and reach rank 0 in
    one final ``gather`` — minimizing message volume, as the mpi4py guide
    recommends for small-object communication."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.collected: list[tuple] = []

    def put(self, gid: int, msg: tuple) -> None:
        if gid == COLLECTOR:
            self.collected.append(msg)
        else:
            self.comm.send(msg, dest=gid, tag=TAG_STREAM)

    def take(self, gid: int, timeout: float | None) -> tuple | None:
        # a rank takes only its own stream, waiting as long as the
        # launcher lets the run go on
        return self.comm.recv(tag=TAG_STREAM)


def _mpi_workflow_main(
    comm: Communicator,
    blob: bytes,
    produce_counts: dict[int, int],
    expected: dict[int, int],
    external_items: list[tuple[int, dict[str, Any]]],
    capture_stdout: bool,
) -> Any:
    """Per-rank body of the MPI enactment."""
    workflow = cloudpickle.loads(blob)
    comm.bcast("start", root=0)  # synchronize before streaming begins
    gid = comm.rank
    mailboxes = _RankMailboxes(comm)
    if comm.rank == 0:
        inject(mailboxes, workflow, external_items)
    counters = InstanceRunner(
        workflow,
        gid,
        InstanceTransport(gid, mailboxes),
        produce_n=produce_counts.get(gid),
        expected_eos=expected[gid],
        capture_stdout=capture_stdout,
    ).run()
    gathered = comm.gather((mailboxes.collected, counters), root=0)
    comm.barrier()
    return gathered


class MPIMapping(Mapping):
    """Parallel enactment over the simulated MPI communicator."""

    name = "mpi"
    parallel = True

    def execute(
        self,
        graph: WorkflowGraph,
        input: Any = None,
        nprocs: int | None = None,
        *,
        capture_stdout: bool = True,
        timeout: float = 300.0,
    ) -> MappingResult:
        t0 = time.perf_counter()
        workflow = self._build(graph, nprocs)
        produce_counts, external_items = normalize_input(workflow, input)
        ranks = workflow.total_instances
        per_rank = mpi_run(
            ranks,
            _mpi_workflow_main,
            cloudpickle.dumps(workflow),
            produce_counts,
            effective_expected_eos(workflow),
            external_items,
            capture_stdout,
            timeout=timeout,
        )
        gathered = per_rank[0]
        if gathered is None:  # pragma: no cover - defensive
            raise MappingError("MPI rank 0 returned no gathered payload")

        result = MappingResult(mapping=self.name, nprocs=ranks)
        result.add_messages(msg for collected, _ in gathered for msg in collected)
        return self._finalize(result, [c for _, c in gathered], t0)

"""Launcher for simulated MPI programs (the ``mpiexec -n`` analogue).

:func:`mpi_run` spawns one OS process per rank, hands each a
:class:`~repro.mpisim.communicator.Communicator`, runs a user function and
returns the per-rank results ordered by rank.  The function is shipped as
a cloudpickle blob so lambdas and closures work like with ``mpi4py``'s
pickle-based messaging.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from typing import Any, Callable

import cloudpickle

from repro.errors import MappingError
from repro.mpisim.communicator import Communicator


class MPIRunError(MappingError):
    """A rank raised an exception during a simulated MPI run."""

    kind = "MPIRunError"


def _rank_entry(
    func_blob: bytes,
    rank: int,
    size: int,
    inboxes: dict[int, Any],
    result_queue: Any,
    args_blob: bytes,
) -> None:
    """Per-rank process entry point (module level for spawn-safety)."""
    try:
        func = cloudpickle.loads(func_blob)
        args = cloudpickle.loads(args_blob)
        comm = Communicator(rank, size, inboxes)
        value = func(comm, *args)
        result_queue.put(("ok", rank, cloudpickle.dumps(value)))
    except Exception:
        result_queue.put(("error", rank, traceback.format_exc()))


def mpi_run(
    nprocs: int,
    func: Callable[..., Any],
    *args: Any,
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``func(comm, *args)`` on ``nprocs`` ranks; return results by rank.

    Raises :class:`MPIRunError` if any rank fails or the run times out.
    """
    if nprocs < 1:
        raise MappingError(f"nprocs must be >= 1, got {nprocs}")
    ctx = mp.get_context()
    inboxes: dict[int, Any] = {r: ctx.Queue() for r in range(nprocs)}
    result_queue = ctx.Queue()
    func_blob = cloudpickle.dumps(func)
    args_blob = cloudpickle.dumps(args)

    processes = [
        ctx.Process(
            target=_rank_entry,
            args=(func_blob, rank, nprocs, inboxes, result_queue, args_blob),
            daemon=True,
        )
        for rank in range(nprocs)
    ]
    for proc in processes:
        proc.start()

    results: dict[int, Any] = {}
    errors: list[tuple[int, str]] = []
    deadline = time.monotonic() + timeout
    while len(results) + len(errors) < nprocs:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            _terminate(processes)
            raise MPIRunError(
                f"simulated MPI run timed out after {timeout}s "
                f"({len(results)}/{nprocs} ranks finished)",
                params={"timeout": timeout, "nprocs": nprocs},
            )
        try:
            status, rank, payload = result_queue.get(timeout=min(remaining, 0.5))
        except queue_mod.Empty:
            continue
        if status == "ok":
            results[rank] = cloudpickle.loads(payload)
        else:
            errors.append((rank, payload))
            break

    if errors:
        # the surviving ranks block on messages the failed one will
        # never send: stop them now rather than wait for each in turn
        _terminate(processes)
        details = "\n---\n".join(f"rank {r}:\n{tb}" for r, tb in errors)
        raise MPIRunError(
            f"{len(errors)} rank(s) failed during simulated MPI run",
            details=details,
        )
    for proc in processes:
        proc.join(timeout=2.0)
    _terminate(processes)
    return [results[r] for r in range(nprocs)]


def _terminate(processes: list[mp.Process]) -> None:
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)

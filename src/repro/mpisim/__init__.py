"""Simulated MPI substrate.

The paper's dispel4py supports an MPI mapping executed with ``mpiexec`` on
an HPC cluster.  That hardware/middleware is not available offline, so
this subpackage provides the closest synthetic equivalent: an mpi4py-like
:class:`Communicator` (lowercase, pickle-based ``send``/``recv``/``bcast``/
``gather``/``barrier`` — the exact API subset the MPI mapping uses)
implemented over ``multiprocessing`` queues, plus a
:func:`mpi_run` launcher standing in for ``mpiexec -n``.

Each rank is a real OS process, so the parallel execution structure —
independent Python interpreters communicating only by message passing —
matches a genuine MPI enactment; only the wire transport differs.
"""

from repro.mpisim.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpisim.launcher import MPIRunError, mpi_run

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "mpi_run", "MPIRunError"]

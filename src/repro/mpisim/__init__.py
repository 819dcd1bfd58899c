"""Simulated MPI substrate.

The paper's dispel4py supports an MPI mapping run over the MPI
middleware of an HPC cluster.  That hardware/middleware is not available
offline, so this subpackage provides the closest synthetic equivalent:
an mpi4py-like :class:`Communicator` (lowercase, pickle-based
``send``/``recv`` with source and tag matching — the API subset the MPI
mapping uses) implemented over ``multiprocessing`` queues.  The MPI
mapping starts its ranks itself, one OS process each, through the
enactment every parallel mapping shares.

Each rank is a real OS process, so the parallel execution structure —
independent Python interpreters communicating only by message passing —
matches a genuine MPI enactment; only the wire transport differs.
"""

from repro.mpisim.communicator import ANY_SOURCE, ANY_TAG, Communicator, RecvTimeout

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "RecvTimeout"]

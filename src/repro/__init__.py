"""Reproduction of *Laminar: A New Serverless Stream-based Framework with
Semantic Code Search and Code Completion* (WORKS/SC 2023).

Public API overview
-------------------

Workflow authoring (the dispel4py substrate)::

    from repro import ProducerPE, IterativePE, ConsumerPE, GenericPE, WorkflowGraph

Serverless framework (the paper's contribution)::

    from repro import LaminarClient, LaminarServer, ExecutionEngine

A typical session (paper §3.4.1)::

    from repro import LaminarClient, local_stack

    client = LaminarClient(local_stack())
    client.register("zz46", "password")
    client.login("zz46", "password")
    client.register_PE(NumberProducer, "Random numbers producer")
    client.run("IsPrime", input=5, process="MULTI", args={"num": 5})

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

import importlib

from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "GenericPE",
    "ProducerPE",
    "IterativePE",
    "ConsumerPE",
    "WorkflowGraph",
    "run_workflow",
    "ReproError",
    "LaminarClient",
    "LaminarServer",
    "ExecutionEngine",
    "local_stack",
    "__version__",
]

#: public name -> defining subpackage, imported on first access (PEP 562)
_LAZY = {
    "GenericPE": "repro.dataflow",
    "ProducerPE": "repro.dataflow",
    "IterativePE": "repro.dataflow",
    "ConsumerPE": "repro.dataflow",
    "WorkflowGraph": "repro.dataflow",
    "run_workflow": "repro.dataflow",
    "LaminarClient": "repro.client",
    "local_stack": "repro.client",
    "LaminarServer": "repro.server",
    "ExecutionEngine": "repro.engine",
}


def __getattr__(name: str):
    """Import a layer when one of its names is first asked for.

    ``import repro`` itself loads nothing but the error types: a
    registry/search server never pays for the dataflow stack (the
    mappings, ``multiprocessing``, ``cloudpickle``), and a pure-dataflow
    user never pays for the serverless one.
    """
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

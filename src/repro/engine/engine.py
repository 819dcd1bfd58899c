"""The Execution Engine core (paper §3.3).

One entry point — :meth:`ExecutionEngine.execute` — behind the single
``/execution/{user}/run`` API endpoint.  Responsibilities, in order:

1. deserialize the shipped workflow (cloudpickle/base64);
2. auto-install the transmitted requirement list in the (simulated)
   conda environment;
3. stage the ``resources/`` payload into an ephemeral working directory;
4. autonomously identify the workflow's root PE(s) — users never specify
   the starting point;
5. enact with the requested dispel4py mapping and ship results, stdout
   and timings back.

The working directory is created per execution and discarded afterwards,
modelling the ephemerality of serverless back-ends.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.core import ProcessingElement
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings import run_workflow
from repro.engine.environment import SimulatedCondaEnvironment
from repro.engine.results import ExecutionOutcome
from repro.errors import ExecutionError, ValidationError
from repro.serialization import deserialize_object, unpack_resources


@dataclass
class ExecutionRequest:
    """The payload of POST /execution/{user}/run."""

    workflow_code: str
    workflow_name: str = "workflow"
    imports: list[str] = field(default_factory=list)
    input: Any = None
    mapping: str = "simple"
    nprocs: int | None = None
    resources_payload: str | None = None
    capture_stdout: bool = True
    timeout: float = 300.0

    @classmethod
    def from_json(cls, body: dict[str, Any]) -> "ExecutionRequest":
        if "workflowCode" not in body:
            raise ValidationError(
                "execution request missing 'workflowCode'",
                params={"keys": sorted(body)},
            )
        return cls(
            workflow_code=str(body["workflowCode"]),
            workflow_name=str(body.get("workflowName", "workflow")),
            imports=list(body.get("imports", [])),
            input=body.get("input"),
            mapping=str(body.get("mapping", "simple")),
            nprocs=body.get("nprocs"),
            resources_payload=body.get("resources"),
            capture_stdout=bool(body.get("captureStdout", True)),
            timeout=float(body.get("timeout", 300.0)),
        )


def _coerce_graph(obj: Any, name: str) -> WorkflowGraph:
    """Accept the shapes users ship: a graph, a PE, a PE class, or a
    zero-argument builder callable returning any of those."""
    if isinstance(obj, WorkflowGraph):
        return obj
    if isinstance(obj, ProcessingElement):
        graph = WorkflowGraph(name)
        graph.add(obj)
        return graph
    if isinstance(obj, type) and issubclass(obj, ProcessingElement):
        graph = WorkflowGraph(name)
        graph.add(obj())
        return graph
    if callable(obj):
        return _coerce_graph(obj(), name)
    raise ExecutionError(
        f"deserialized workflow has unsupported type {type(obj).__name__}",
        params={"type": type(obj).__name__},
    )


def _normalize_input(value: Any) -> Any:
    """JSON turns tuples into lists; restore dict-item list shape."""
    if isinstance(value, list):
        return [dict(item) if isinstance(item, dict) else item for item in value]
    return value


class ExecutionEngine:
    """A serverless execution engine instance.

    Parameters
    ----------
    environment:
        The simulated conda environment (shared across executions, as a
        warmed engine would be; call ``environment.reset()`` to model a
        cold start).
    name:
        Engine identifier reported in outcomes (``local``, ``remote``).
    workdir_root:
        Where ephemeral execution directories are created.
    """

    def __init__(
        self,
        environment: SimulatedCondaEnvironment | None = None,
        *,
        name: str = "local",
        workdir_root: str | None = None,
    ) -> None:
        self.environment = environment or SimulatedCondaEnvironment()
        self.name = name
        self.workdir_root = workdir_root
        #: executions served (serverless bookkeeping)
        self.invocations = 0

    def execute(self, request: ExecutionRequest) -> ExecutionOutcome:
        """Run one execution request to completion."""
        self.invocations += 1
        timings: dict[str, float] = {}
        t_total = time.perf_counter()

        # 1. deserialize ------------------------------------------------
        t0 = time.perf_counter()
        try:
            payload = deserialize_object(request.workflow_code)
        except Exception as exc:
            raise ExecutionError(
                f"cannot deserialize workflow {request.workflow_name!r}",
                params={"workflow": request.workflow_name},
                details=str(exc),
            ) from exc
        graph = _coerce_graph(payload, request.workflow_name)
        timings["deserialize_s"] = time.perf_counter() - t0

        # 2. dependency management ---------------------------------------
        t0 = time.perf_counter()
        report = self.environment.ensure(list(request.imports))
        timings["install_s"] = time.perf_counter() - t0

        workdir = tempfile.mkdtemp(
            prefix="laminar-exec-", dir=self.workdir_root
        )
        try:
            # 3. resource staging -------------------------------------
            t0 = time.perf_counter()
            if request.resources_payload:
                unpack_resources(
                    request.resources_payload, os.path.join(workdir, "resources")
                )
            timings["resources_s"] = time.perf_counter() - t0

            # 4. automatic root detection -------------------------------
            graph.validate()
            roots = [pe.name for pe in graph.roots()]

            # 5. enactment ------------------------------------------------
            t0 = time.perf_counter()
            with contextlib.chdir(workdir):
                mapping_result = run_workflow(
                    graph,
                    input=_normalize_input(request.input),
                    mapping=request.mapping,
                    nprocs=request.nprocs,
                    capture_stdout=request.capture_stdout,
                    timeout=request.timeout,
                )
            timings["execute_s"] = time.perf_counter() - t0
            timings["total_s"] = time.perf_counter() - t_total

            return ExecutionOutcome(
                status="ok",
                workflow_name=request.workflow_name,
                mapping=mapping_result.mapping,
                nprocs=mapping_result.nprocs,
                root_pes=roots,
                results=mapping_result.results,
                stdout=mapping_result.stdout,
                counters=mapping_result.counters,
                timings=timings,
                installed_packages=report.installed_now,
                engine_name=self.name,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

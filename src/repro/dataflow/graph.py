"""Abstract workflow graphs (paper §2.1, "Abstract Workflow").

A :class:`WorkflowGraph` captures the logical connections between PEs —
the computational sequence and data transformations the user describes.
At enactment time the graph is expanded into a *concrete* workflow (a DAG
of PE instances) by :mod:`repro.dataflow.partition`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dataflow.core import ProcessingElement
from repro.errors import GraphError


@dataclass(frozen=True)
class Connection:
    """A directed edge: ``(source PE, output port) -> (dest PE, input port)``."""

    source: ProcessingElement
    source_port: str
    dest: ProcessingElement
    dest_port: str


class WorkflowGraph:
    """The abstract workflow: PEs plus their port-to-port connections.

    Example (the IsPrime workflow of Listing 3)::

        graph = WorkflowGraph()
        graph.connect(pe1, 'output', pe2, 'input')
        graph.connect(pe2, 'output', pe3, 'input')
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or "workflow"
        self._pes: list[ProcessingElement] = []
        self._connections: list[Connection] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, pe: ProcessingElement) -> ProcessingElement:
        """Add an unconnected PE to the graph (rarely needed directly)."""
        if not isinstance(pe, ProcessingElement):
            raise GraphError(
                f"expected a ProcessingElement, got {type(pe).__name__}",
                params={"pe": pe},
            )
        if pe not in self._pes:
            self._pes.append(pe)
        return pe

    def connect(
        self,
        source: ProcessingElement,
        source_port: str,
        dest: ProcessingElement,
        dest_port: str,
    ) -> None:
        """Connect ``source.source_port`` to ``dest.dest_port``.

        Both PEs are added to the graph if not yet present.  Port names are
        validated eagerly so mistakes surface at build time rather than at
        enactment.
        """
        self.add(source)
        self.add(dest)
        if source_port not in source.outputconnections:
            raise GraphError(
                f"PE {source.name!r} has no output port {source_port!r}",
                params={"pe": source.name, "port": source_port},
                details=f"available: {sorted(source.outputconnections)}",
            )
        if dest_port not in dest.inputconnections:
            raise GraphError(
                f"PE {dest.name!r} has no input port {dest_port!r}",
                params={"pe": dest.name, "port": dest_port},
                details=f"available: {sorted(dest.inputconnections)}",
            )
        if source is dest:
            raise GraphError(
                "self-loops are not allowed in a dataflow graph",
                params={"pe": source.name},
            )
        conn = Connection(source, source_port, dest, dest_port)
        self._connections.append(conn)
        self._check_acyclic()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get_pes(self) -> list[ProcessingElement]:
        """All PEs in insertion order."""
        return list(self._pes)

    def get_connections(self) -> list[Connection]:
        return list(self._connections)

    def outgoing(self, pe: ProcessingElement) -> list[Connection]:
        return [c for c in self._connections if c.source is pe]

    def incoming(self, pe: ProcessingElement) -> list[Connection]:
        return [c for c in self._connections if c.dest is pe]

    def roots(self) -> list[ProcessingElement]:
        """PEs with no incoming connections — the stream origins.

        The Execution Engine uses this for *automatic root detection*
        (paper §3.3: "the Execution Engine autonomously analyzes the
        workflow's structure to identify the suitable starting point").
        """
        dests = {c.dest for c in self._connections}
        return [pe for pe in self._pes if pe not in dests]

    def topological_order(self) -> list[ProcessingElement]:
        """Kahn topological sort; raises :class:`GraphError` on cycles."""
        indeg: dict[int, int] = {id(pe): 0 for pe in self._pes}
        for conn in self._connections:
            indeg[id(conn.dest)] += 1
        by_id = {id(pe): pe for pe in self._pes}
        queue = deque(pe for pe in self._pes if indeg[id(pe)] == 0)
        order: list[ProcessingElement] = []
        while queue:
            pe = queue.popleft()
            order.append(pe)
            for conn in self.outgoing(pe):
                indeg[id(conn.dest)] -= 1
                if indeg[id(conn.dest)] == 0:
                    queue.append(by_id[id(conn.dest)])
        if len(order) != len(self._pes):
            raise GraphError(
                "workflow graph contains a cycle",
                params={"workflow": self.name},
            )
        return order

    def _check_acyclic(self) -> None:
        self.topological_order()

    def validate(self) -> None:
        """Full validation: acyclic, all non-source PEs reachable.

        Raises :class:`GraphError` describing the first violation.
        """
        self.topological_order()
        if not self._pes:
            raise GraphError("workflow graph is empty", params={"workflow": self.name})
        roots = self.roots()
        if not roots:
            raise GraphError(
                "workflow graph has no root PE",
                params={"workflow": self.name},
            )
        # Note: a root PE *with* input ports is legal — the Execution
        # Engine feeds it externally (e.g. ReadRaDec receiving the input
        # file name, Listing 7).  Input starvation is therefore a runtime
        # concern handled by normalize_input, not a graph-shape error.

    # ------------------------------------------------------------------
    # Naming helpers — instances of the same class must be distinguishable
    # ------------------------------------------------------------------
    def unique_names(self) -> dict[int, str]:
        """Assign a unique display name per PE (``IsPrime``, ``IsPrime#2``)."""
        seen: dict[str, int] = {}
        names: dict[int, str] = {}
        for pe in self._pes:
            count = seen.get(pe.name, 0)
            names[id(pe)] = pe.name if count == 0 else f"{pe.name}#{count + 1}"
            seen[pe.name] = count + 1
        return names

    def __len__(self) -> int:
        return len(self._pes)

    def __repr__(self) -> str:
        return (
            f"<WorkflowGraph {self.name!r} pes={len(self._pes)} "
            f"connections={len(self._connections)}>"
        )

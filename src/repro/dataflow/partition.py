"""Abstract -> concrete workflow expansion (paper §2.1, Figure 1).

During enactment — after the user specifies the mapping and the number of
processes — dispel4py automatically builds the *concrete* workflow: a DAG
of PE **instances** distributed over processes.  This module reproduces
that step:

* :func:`distribute_processes` implements the allocation rule of Figure 1
  (sources get one instance; the remaining process budget is split as
  evenly as possible over the other PEs).
* :class:`ConcreteWorkflow` holds the instance table and the routing
  tables shared by every mapping.
* :class:`Router` performs per-sender routing decisions (groupings with
  per-sender state such as shuffle counters live here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dataflow.core import PEOutput, ProcessingElement
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.grouping import Grouping, make_grouping
from repro.errors import GraphError, MappingError


@dataclass(frozen=True)
class InstanceInfo:
    """One PE instance in the concrete workflow."""

    gid: int
    pe_index: int
    local_index: int
    pe_name: str


@dataclass(frozen=True)
class RouteTarget:
    """One connection target of an output port, instance-resolved."""

    dest_pe_index: int
    dest_port: str
    dest_gids: tuple[int, ...]
    grouping_decl: Any


def distribute_processes(graph: WorkflowGraph, nprocs: int | None) -> list[int]:
    """Compute instances-per-PE for a total process budget.

    Returns a list aligned with ``graph.topological_order()``.

    Rule (matching dispel4py's multi/MPI partitioning, cf. Figure 1 where
    five processes over three PEs become 1/2/2): source PEs always get one
    instance; the remaining budget is divided over the non-source PEs
    proportionally to their ``numprocesses`` hints (all-equal hints give
    an even split, earlier/heavier PEs receiving the remainder first).
    When ``nprocs`` is ``None`` each PE's ``numprocesses`` attribute is
    used verbatim.
    """
    order = graph.topological_order()
    if nprocs is None:
        return [max(1, int(pe.numprocesses)) for pe in order]
    if nprocs < 1:
        raise MappingError(
            f"process count must be >= 1, got {nprocs}",
            params={"nprocs": nprocs},
        )
    sources = [pe for pe in order if graph.incoming(pe) == []]
    others = [pe for pe in order if pe not in sources]
    counts: dict[int, int] = {id(pe): 1 for pe in order}
    if others:
        budget = max(len(others), nprocs - len(sources))
        weights = [max(1, int(pe.numprocesses)) for pe in others]
        total_weight = sum(weights)
        shares = [budget * w / total_weight for w in weights]
        floors = [max(1, int(share)) for share in shares]
        # hand out any remaining budget by largest fractional part,
        # breaking ties toward upstream PEs
        remainder = budget - sum(floors)
        if remainder > 0:
            by_fraction = sorted(
                range(len(others)),
                key=lambda i: (-(shares[i] - int(shares[i])), i),
            )
            for i in by_fraction[:remainder]:
                floors[i] += 1
        for pe, count in zip(others, floors):
            counts[id(pe)] = count
    return [counts[id(pe)] for pe in order]


class ConcreteWorkflow:
    """The executable DAG of PE instances plus routing metadata.

    The same concrete workflow object drives every mapping: the simple
    mapping iterates it in-process, while multi/MPI/redis serialize it to
    worker processes.
    """

    def __init__(self, graph: WorkflowGraph, counts: list[int]) -> None:
        order = graph.topological_order()
        if len(counts) != len(order):
            raise MappingError(
                "instance count list does not match PE count",
                params={"counts": counts, "pes": len(order)},
            )
        self.graph = graph
        self.pes: list[ProcessingElement] = order
        names = graph.unique_names()
        self.pe_names: list[str] = [names[id(pe)] for pe in order]
        self.counts = list(counts)
        self._pe_index = {id(pe): i for i, pe in enumerate(order)}

        # instance table -------------------------------------------------
        self.instances: list[InstanceInfo] = []
        self.instances_of: list[list[int]] = [[] for _ in order]
        gid = 0
        for pe_index, pe in enumerate(order):
            for local in range(self.counts[pe_index]):
                self.instances.append(
                    InstanceInfo(gid, pe_index, local, self.pe_names[pe_index])
                )
                self.instances_of[pe_index].append(gid)
                gid += 1

        # routing tables ---------------------------------------------------
        # (pe_index, out_port) -> [RouteTarget, ...]
        self.routes: dict[tuple[int, str], list[RouteTarget]] = {}
        for conn in graph.get_connections():
            src_i = self._pe_index[id(conn.source)]
            dst_i = self._pe_index[id(conn.dest)]
            decl = conn.dest.inputconnections[conn.dest_port].grouping
            target = RouteTarget(
                dest_pe_index=dst_i,
                dest_port=conn.dest_port,
                dest_gids=tuple(self.instances_of[dst_i]),
                grouping_decl=decl,
            )
            self.routes.setdefault((src_i, conn.source_port), []).append(target)

        # expected EOS per destination instance ----------------------------
        # every source instance of every incoming connection sends exactly
        # one EOS to every destination instance of that connection.
        self.expected_eos: dict[int, int] = {
            info.gid: 0 for info in self.instances
        }
        for conn in graph.get_connections():
            src_i = self._pe_index[id(conn.source)]
            dst_i = self._pe_index[id(conn.dest)]
            n_src = self.counts[src_i]
            for dest_gid in self.instances_of[dst_i]:
                self.expected_eos[dest_gid] += n_src

        # output ports with no outgoing connection: their writes are the
        # workflow *results* returned to the client (cf. Figure 9).
        self.result_ports: set[tuple[int, str]] = set()
        connected = set(self.routes.keys())
        for pe_index, pe in enumerate(order):
            for port in pe.outputconnections:
                if (pe_index, port) not in connected:
                    self.result_ports.add((pe_index, port))

    # ------------------------------------------------------------------
    @property
    def total_instances(self) -> int:
        return len(self.instances)

    def make_instance(self, gid: int) -> ProcessingElement:
        """Create an independent PE object for instance ``gid``."""
        info = self.instances[gid]
        pe = self.pes[info.pe_index].clone()
        pe.instance_id = info.local_index
        return pe

    def root_pe_indices(self) -> list[int]:
        """Indices of root PEs (automatic starting-point detection, §3.3)."""
        return [i for i, pe in enumerate(self.pes) if not self.graph.incoming(pe)]


def build_concrete_workflow(
    graph: WorkflowGraph, nprocs: int | None = None
) -> ConcreteWorkflow:
    """Validate ``graph`` and expand it for a total process budget."""
    graph.validate()
    counts = distribute_processes(graph, nprocs)
    return ConcreteWorkflow(graph, counts)


@dataclass
class _TargetState:
    target: RouteTarget
    grouping: Grouping


class Router:
    """Per-sender routing: resolves writes to destination instance ids.

    Each sending instance owns a Router so that stateful groupings
    (shuffle counters) are independent per sender — the standard dataflow
    property that lets every worker route without coordination.
    """

    def __init__(self, workflow: ConcreteWorkflow, sender_pe_index: int) -> None:
        self._states: dict[str, list[_TargetState]] = {}
        self._result_ports: set[str] = set()
        pe = workflow.pes[sender_pe_index]
        for port in pe.outputconnections:
            key = (sender_pe_index, port)
            if key in workflow.result_ports:
                self._result_ports.add(port)
                continue
            states = []
            for target in workflow.routes.get(key, []):
                states.append(
                    _TargetState(target, make_grouping(target.grouping_decl).new_state())
                )
            self._states[port] = states

    def is_result_port(self, port: str) -> bool:
        return port in self._result_ports

    def route(self, output: PEOutput) -> list[tuple[int, str, Any]]:
        """Resolve one write to ``[(dest_gid, dest_port, value), ...]``."""
        states = self._states.get(output.port)
        if states is None:
            if output.port in self._result_ports:
                return []
            raise GraphError(
                f"write to unknown output port {output.port!r}",
                params={"port": output.port},
            )
        messages: list[tuple[int, str, Any]] = []
        for state in states:
            n = len(state.target.dest_gids)
            for local_idx in state.grouping.route(output.value, n):
                gid = state.target.dest_gids[local_idx]
                messages.append((gid, state.target.dest_port, output.value))
        return messages

    def eos_targets(self) -> list[tuple[int, str]]:
        """All (dest_gid, dest_port) pairs that must receive one EOS each.

        EOS is *broadcast* to every destination instance of every outgoing
        connection, regardless of grouping, because any instance may have
        been receiving data from this sender.
        """
        targets: list[tuple[int, str]] = []
        for states in self._states.values():
            for state in states:
                for gid in state.target.dest_gids:
                    targets.append((gid, state.target.dest_port))
        return targets

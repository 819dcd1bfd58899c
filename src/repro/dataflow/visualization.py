"""Workflow rendering — the green/blue graphs of Figure 1.

Renders abstract workflows (what the user describes) and concrete
workflows (what enactment builds) either as Graphviz DOT text or as a
compact ASCII diagram for terminals.  Purely textual; no plotting
dependencies.
"""

from __future__ import annotations

from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.grouping import make_grouping
from repro.dataflow.partition import ConcreteWorkflow


def concrete_to_dot(workflow: ConcreteWorkflow) -> str:
    """DOT rendering of the concrete workflow (Figure 1's blue graph).

    Each node is one PE *instance*; edges connect instances according to
    the routing tables (group-by edges fan out to every possible
    destination, matching how the figure draws instance-level links).
    """
    lines = [
        "digraph concrete {",
        "  rankdir=LR;",
        '  node [shape=box, style=filled, fillcolor="lightblue"];',
    ]
    for info in workflow.instances:
        lines.append(f'  "{info.pe_name}[{info.local_index}]" /* gid={info.gid} */;')
    label_of = {info.gid: f"{info.pe_name}[{info.local_index}]" for info in workflow.instances}
    for (src_pe, src_port), targets in sorted(workflow.routes.items()):
        for src_gid in workflow.instances_of[src_pe]:
            for target in targets:
                for dest_gid in target.dest_gids:
                    lines.append(
                        f'  "{label_of[src_gid]}" -> "{label_of[dest_gid]}" '
                        f'[label="{src_port}->{target.dest_port}"];'
                    )
    lines.append("}")
    return "\n".join(lines)


def abstract_to_ascii(graph: WorkflowGraph) -> str:
    """One-line-per-edge ASCII rendering of the abstract workflow."""
    names = graph.unique_names()
    lines = [f"abstract workflow '{graph.name}':"]
    order = graph.topological_order()
    for pe in order:
        out = graph.outgoing(pe)
        if not out:
            lines.append(f"  {names[id(pe)]} (sink)")
            continue
        for conn in out:
            decl = conn.dest.inputconnections[conn.dest_port].grouping
            grouping = "" if decl is None else f" ~{make_grouping(decl).label}~"
            lines.append(
                f"  {names[id(pe)]}.{conn.source_port} --> "
                f"{names[id(conn.dest)]}.{conn.dest_port}{grouping}"
            )
    return "\n".join(lines)


def concrete_to_ascii(workflow: ConcreteWorkflow) -> str:
    """Instance-count summary like the Figure 1 caption.

    Example output::

        concrete workflow (5 processes):
          NumberProducer  x1  [gid 0]
          IsPrime         x2  [gid 1-2]
          PrintPrime      x2  [gid 3-4]
    """
    lines = [f"concrete workflow ({workflow.total_instances} processes):"]
    width = max(len(name) for name in workflow.pe_names) if workflow.pe_names else 0
    for pe_index, name in enumerate(workflow.pe_names):
        gids = workflow.instances_of[pe_index]
        span = f"gid {gids[0]}" if len(gids) == 1 else f"gid {gids[0]}-{gids[-1]}"
        lines.append(f"  {name:<{width}}  x{len(gids)}  [{span}]")
    return "\n".join(lines)

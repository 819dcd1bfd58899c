"""Mapping base classes and the shared instance execution loop.

A *mapping* enacts a concrete workflow on an execution substrate (paper
§2.1: Simple, Multi, MPI, Redis).  All parallel mappings share the same
per-instance behaviour — consume until end-of-stream, route writes, then
flush ``_postprocess`` — which lives in :class:`InstanceRunner` and talks
to the substrate through the narrow :class:`InstanceTransport` interface.
This keeps the four mappings semantically identical by construction: only
the message transport differs.
"""

from __future__ import annotations

import io
import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.core import PEOutput
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.monitoring import InstanceCounters, merge_counters
from repro.dataflow.partition import ConcreteWorkflow, Router, build_concrete_workflow
from repro.errors import MappingError, ValidationError

#: wire-format message kinds exchanged between instances
MSG_DATA = "data"
MSG_EOS = "eos"


@dataclass
class MappingResult:
    """What an enactment returns to the caller (and ultimately the client).

    ``results`` collects every write to an output port with no outgoing
    connection, keyed ``"PEname.port"`` — the stream's terminal products.
    ``stdout`` is the interleaved transcript of everything instances
    printed, which Laminar forwards from the Execution Engine back to the
    Client (Figure 9).
    """

    mapping: str
    nprocs: int
    results: dict[str, list[Any]] = field(default_factory=dict)
    stdout: str = ""
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    elapsed: float = 0.0

    def add_result(self, pe_name: str, port: str, value: Any) -> None:
        self.results.setdefault(f"{pe_name}.{port}", []).append(value)


class InstanceTransport(ABC):
    """Substrate-specific message plumbing for a single instance."""

    @abstractmethod
    def send_data(self, dest_gid: int, port: str, value: Any) -> None:
        """Deliver one data unit to instance ``dest_gid``."""

    @abstractmethod
    def send_eos(self, dest_gid: int) -> None:
        """Deliver one end-of-stream token to instance ``dest_gid``."""

    @abstractmethod
    def recv(self) -> tuple[str, Any, Any]:
        """Blocking receive of the next message for *this* instance.

        Returns ``(MSG_DATA, port, value)`` or ``(MSG_EOS, None, None)``.
        """

    @abstractmethod
    def emit_result(self, pe_name: str, port: str, value: Any) -> None:
        """Report a terminal (result-port) write to the collector."""

    @abstractmethod
    def emit_stdout(self, text: str) -> None:
        """Forward captured stdout to the collector."""

    @abstractmethod
    def emit_done(self, counters: InstanceCounters) -> None:
        """Signal that this instance has finished."""


class _StdoutForwarder(io.TextIOBase):
    """A file-like object forwarding writes to the transport collector.

    Writes are buffered until a newline so that each forwarded message is
    a whole line — otherwise ``print``'s separate text and ``"\\n"`` writes
    from different worker processes interleave into garbage.
    """

    def __init__(self, transport: InstanceTransport) -> None:
        self._transport = transport
        self._pending = ""

    def write(self, text: str) -> int:  # type: ignore[override]
        self._pending += text
        while "\n" in self._pending:
            line, self._pending = self._pending.split("\n", 1)
            self._transport.emit_stdout(line + "\n")
        return len(text)

    def flush_remainder(self) -> None:
        """Forward any trailing partial line (called at instance end)."""
        if self._pending:
            self._transport.emit_stdout(self._pending)
            self._pending = ""

    def flush(self) -> None:  # pragma: no cover - line buffering only
        pass


class InstanceRunner:
    """Executes one PE instance to completion over a transport.

    Parameters
    ----------
    workflow:
        The concrete workflow (shared, read-only).
    gid:
        Which instance this runner embodies.
    transport:
        Substrate plumbing.
    produce_n:
        For producer instances: how many ``_process`` iterations to drive.
        ``None`` for consuming instances.
    expected_eos:
        Number of EOS tokens to await before finishing (already adjusted
        for external drivers by the mapping).
    capture_stdout:
        Redirect ``print`` output through the transport so the engine can
        return it to the client.
    """

    def __init__(
        self,
        workflow: ConcreteWorkflow,
        gid: int,
        transport: InstanceTransport,
        *,
        produce_n: int | None,
        expected_eos: int,
        capture_stdout: bool = True,
    ) -> None:
        self.workflow = workflow
        self.gid = gid
        self.transport = transport
        self.produce_n = produce_n
        self.expected_eos = expected_eos
        self.capture_stdout = capture_stdout
        info = workflow.instances[gid]
        self.pe = workflow.make_instance(gid)
        self.router = Router(workflow, info.pe_index)
        self.counters = InstanceCounters(pe_name=info.pe_name, instance=info.local_index)

    # ------------------------------------------------------------------
    def _dispatch(self, outputs: list[PEOutput]) -> None:
        for out in outputs:
            self.counters.produced += 1
            if self.router.is_result_port(out.port):
                self.transport.emit_result(
                    self.counters.pe_name, out.port, out.value
                )
                continue
            for dest_gid, dest_port, value in self.router.route(out):
                self.transport.send_data(dest_gid, dest_port, value)

    def _run_producer(self) -> None:
        for _ in range(self.produce_n or 0):
            t0 = time.perf_counter()
            outputs = self.pe.process({})
            self.counters.process_seconds += time.perf_counter() - t0
            self.counters.consumed += 1
            self._dispatch(outputs)

    def _run_consumer(self) -> None:
        eos_seen = 0
        while eos_seen < self.expected_eos:
            kind, port, value = self.transport.recv()
            if kind == MSG_EOS:
                eos_seen += 1
                continue
            if kind != MSG_DATA:  # pragma: no cover - defensive
                raise MappingError(f"unknown message kind {kind!r}")
            t0 = time.perf_counter()
            outputs = self.pe.process({port: value})
            self.counters.process_seconds += time.perf_counter() - t0
            self.counters.consumed += 1
            self._dispatch(outputs)

    def run(self) -> None:
        """Full instance lifecycle: preprocess, stream, postprocess, EOS."""
        original_stdout = sys.stdout
        forwarder: _StdoutForwarder | None = None
        if self.capture_stdout:
            forwarder = _StdoutForwarder(self.transport)
            sys.stdout = forwarder
        try:
            self.pe._log = lambda msg: self.transport.emit_stdout(msg + "\n")
            self.pe.preprocess()
            if self.produce_n is not None and not self.pe.inputconnections:
                self._run_producer()
            else:
                self._run_consumer()
            self._dispatch(self.pe.postprocess())
            for dest_gid, _port in self.router.eos_targets():
                self.transport.send_eos(dest_gid)
        finally:
            if forwarder is not None:
                forwarder.flush_remainder()
                sys.stdout = original_stdout
            self.transport.emit_done(self.counters)


# ----------------------------------------------------------------------
# Input normalisation shared by every mapping
# ----------------------------------------------------------------------
def normalize_input(
    workflow: ConcreteWorkflow, input: Any
) -> tuple[dict[int, int], list[tuple[int, dict[str, Any]]]]:
    """Split the user-level ``input`` argument into driver instructions.

    Returns ``(produce_counts, external_items)`` where

    * ``produce_counts`` maps producer-instance gid -> number of
      iterations that instance must drive (an ``input=N`` integer is split
      across the instances of each producer PE);
    * ``external_items`` is a list of ``(root_pe_index, {port: value})``
      deliveries for root PEs *with* input ports (the astrophysics-style
      ``input=[{"input": "resources/coordinates.txt"}]`` case).
    """
    roots = workflow.root_pe_indices()
    producer_roots = [i for i in roots if not workflow.pes[i].inputconnections]
    fed_roots = [i for i in roots if workflow.pes[i].inputconnections]

    produce_counts: dict[int, int] = {}
    external_items: list[tuple[int, dict[str, Any]]] = []

    if input is None or isinstance(input, int):
        iterations = 1 if input is None else int(input)
        if iterations < 0:
            raise ValidationError(
                f"input iteration count must be >= 0, got {iterations}",
                params={"input": input},
            )
        if fed_roots and not producer_roots:
            raise ValidationError(
                "this workflow's root PE expects data items; pass "
                "input=[{port: value}, ...] instead of an iteration count",
                params={"input": input},
            )
        for pe_index in producer_roots:
            gids = workflow.instances_of[pe_index]
            base, extra = divmod(iterations, len(gids))
            for j, gid in enumerate(gids):
                produce_counts[gid] = base + (1 if j < extra else 0)
    elif isinstance(input, (list, tuple)):
        if not fed_roots:
            raise ValidationError(
                "this workflow has no root PE with input ports; pass an "
                "integer iteration count instead of a list of items",
                params={"input": input},
            )
        for pe_index in producer_roots:
            for gid in workflow.instances_of[pe_index]:
                produce_counts[gid] = 1
        for item in input:
            if not isinstance(item, dict):
                raise ValidationError(
                    "list input items must be {port: value} dicts",
                    params={"item": item},
                )
            matched = False
            for pe_index in fed_roots:
                ports = workflow.pes[pe_index].inputconnections
                sub = {p: v for p, v in item.items() if p in ports}
                if sub:
                    external_items.append((pe_index, sub))
                    matched = True
            if not matched:
                raise ValidationError(
                    f"input item ports {sorted(item)} match no root PE",
                    params={"item": item},
                )
    else:
        raise ValidationError(
            f"unsupported input type {type(input).__name__}",
            params={"input": input},
        )
    return produce_counts, external_items


def effective_expected_eos(workflow: ConcreteWorkflow) -> dict[int, int]:
    """Expected EOS per instance, counting the external driver as one
    upstream source for every root PE that has input ports."""
    expected = dict(workflow.expected_eos)
    for pe_index in workflow.root_pe_indices():
        if workflow.pes[pe_index].inputconnections:
            for gid in workflow.instances_of[pe_index]:
                expected[gid] += 1
    return expected


class ExternalDriver:
    """Routes externally supplied items into root instances.

    Applies the root PE's own port groupings so that e.g. a group-by on
    the entry PE behaves identically whether data arrives from upstream
    PEs or from the client.
    """

    def __init__(self, workflow: ConcreteWorkflow) -> None:
        from repro.dataflow.grouping import make_grouping

        self.workflow = workflow
        self._groupings: dict[tuple[int, str], Any] = {}
        for pe_index in workflow.root_pe_indices():
            pe = workflow.pes[pe_index]
            for port, spec in pe.inputconnections.items():
                self._groupings[(pe_index, port)] = make_grouping(
                    spec.grouping
                ).new_state()

    def route_item(
        self, pe_index: int, item: dict[str, Any]
    ) -> list[tuple[int, str, Any]]:
        messages: list[tuple[int, str, Any]] = []
        gids = self.workflow.instances_of[pe_index]
        for port, value in item.items():
            grouping = self._groupings[(pe_index, port)]
            for local_idx in grouping.route(value, len(gids)):
                messages.append((gids[local_idx], port, value))
        return messages

    def eos_messages(self) -> list[int]:
        """One EOS per instance of every externally fed root PE."""
        gids: list[int] = []
        for pe_index in self.workflow.root_pe_indices():
            if self.workflow.pes[pe_index].inputconnections:
                gids.extend(self.workflow.instances_of[pe_index])
        return gids


class Mapping(ABC):
    """A workflow enactment strategy."""

    #: registry name, e.g. ``"simple"``
    name: str = "abstract"
    #: whether the mapping runs instances on separate OS processes
    parallel: bool = False

    @abstractmethod
    def execute(
        self,
        graph: WorkflowGraph,
        input: Any = None,
        nprocs: int | None = None,
        *,
        capture_stdout: bool = True,
        timeout: float = 300.0,
    ) -> MappingResult:
        """Enact ``graph`` and return the collected results."""

    def _build(
        self, graph: WorkflowGraph, nprocs: int | None
    ) -> ConcreteWorkflow:
        return build_concrete_workflow(graph, nprocs)

    @staticmethod
    def _finalize(
        result: MappingResult,
        counters: list[InstanceCounters],
        t0: float,
    ) -> MappingResult:
        result.counters = merge_counters(counters)
        result.elapsed = time.perf_counter() - t0
        return result

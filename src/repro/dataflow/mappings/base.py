"""Mapping base classes and the shared parallel enactment.

A *mapping* enacts a concrete workflow on an execution substrate (paper
§2.1: Simple, Multi, MPI, Redis).  All parallel mappings share the same
per-instance behaviour — consume until end-of-stream, route writes, then
flush ``_postprocess`` — which lives in :class:`InstanceRunner`, and the
same plumbing, :class:`InstanceTransport`, over a :class:`Mailboxes`
fabric.  Multi and Redis also share their enactment,
:class:`MailboxMapping`: each gives only its fabric.  This keeps the four
mappings semantically identical by construction: only the message
transport differs.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import sys
import time
import traceback
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any

import cloudpickle

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

    def add_messages(self, messages: Iterable[tuple]) -> None:
        """Take the collector's ``result`` and ``stdout`` messages, in
        order."""
        stdout = [self.stdout]
        for msg in messages:
            if msg[0] == "result":
                self.add_result(*msg[1:])
            else:
                stdout.append(msg[1])
        self.stdout = "".join(stdout)


#: mailbox of the collector; an instance's mailbox is its gid
COLLECTOR = -1


class Mailboxes(ABC):
    """The message fabric of a parallel mapping: one FIFO mailbox per
    instance gid plus one for the collector (:data:`COLLECTOR`).  A
    handle given to a worker process must pickle."""

    @abstractmethod
    def put(self, gid: int, msg: tuple) -> None:
        """Append ``msg`` to mailbox ``gid``."""

    @abstractmethod
    def take(self, gid: int, timeout: float | None) -> tuple | None:
        """Pop the oldest message of mailbox ``gid``, or ``None`` when
        none came within ``timeout`` seconds; ``None`` waits for as long
        as the fabric allows."""


class InstanceTransport:
    """One instance's plumbing over a :class:`Mailboxes` fabric."""

    def __init__(self, gid: int, mailboxes: Mailboxes) -> None:
        self.gid = gid
        self.mailboxes = mailboxes

    def send_data(self, dest_gid: int, port: str, value: Any) -> None:
        self.mailboxes.put(dest_gid, (MSG_DATA, port, value))

    def send_eos(self, dest_gid: int) -> None:
        self.mailboxes.put(dest_gid, (MSG_EOS, None, None))

    def recv(self) -> tuple[str, Any, Any]:
        """Blocking receive of the next message for *this* instance:
        ``(MSG_DATA, port, value)`` or ``(MSG_EOS, None, None)``."""
        return self.mailboxes.take(self.gid, None)

    def emit_result(self, pe_name: str, port: str, value: Any) -> None:
        """Report a terminal (result-port) write to the collector."""
        self.mailboxes.put(COLLECTOR, ("result", pe_name, port, value))

    def emit_stdout(self, text: str) -> None:
        """Forward captured stdout to the collector."""
        self.mailboxes.put(COLLECTOR, ("stdout", text))


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

    def run(self) -> InstanceCounters:
        """Full instance lifecycle: preprocess, stream, postprocess, EOS;
        returns the instance's counters."""
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
        return self.counters


def run_instance(
    mailboxes: Mailboxes,
    blob: bytes,
    gid: int,
    produce_n: int | None,
    expected_eos: int,
    capture_stdout: bool,
) -> None:
    """Worker entry point (module-level for spawn-safety): run instance
    ``gid`` of the cloudpickled workflow ``blob``, then post exactly one
    terminal message to the collector, after all its others: ``done``
    with the gid and the counters, or ``error`` with the gid and the
    traceback."""
    try:
        counters = InstanceRunner(
            cloudpickle.loads(blob),
            gid,
            InstanceTransport(gid, mailboxes),
            produce_n=produce_n,
            expected_eos=expected_eos,
            capture_stdout=capture_stdout,
        ).run()
    except Exception:
        mailboxes.put(COLLECTOR, ("error", gid, traceback.format_exc()))
    else:
        mailboxes.put(COLLECTOR, ("done", gid, counters))


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


def inject(
    mailboxes: Mailboxes,
    workflow: ConcreteWorkflow,
    external_items: list[tuple[int, dict[str, Any]]],
) -> None:
    """Deliver the externally supplied items to the root instances, then
    close the external stream with one EOS per fed instance."""
    driver = ExternalDriver(workflow)
    for pe_index, item in external_items:
        for gid, port, value in driver.route_item(pe_index, item):
            mailboxes.put(gid, (MSG_DATA, port, value))
    for gid in driver.eos_messages():
        mailboxes.put(gid, (MSG_EOS, None, None))


#: the longest the collector waits for a message before it checks which
#: workers have exited (:meth:`MailboxMapping._collect`)
_LIVENESS_SLICE = 0.5


class MailboxMapping(Mapping):
    """A parallel mapping: one OS process per instance, every message
    through a :class:`Mailboxes` fabric, which is all a subclass gives."""

    parallel = True

    @abstractmethod
    def _fabric(
        self, total: int
    ) -> AbstractContextManager[tuple[Mailboxes, list[Mailboxes]]]:
        """Open the fabric for ``total`` instances; yield the parent's
        handle and one handle per worker gid."""

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
        expected = effective_expected_eos(workflow)
        total = workflow.total_instances
        blob = cloudpickle.dumps(workflow)
        ctx = mp.get_context()
        result = MappingResult(mapping=self.name, nprocs=total)
        counters: list[InstanceCounters] = []
        processes: dict[int, mp.process.BaseProcess] = {}
        with self._fabric(total) as (mailboxes, handles):
            try:
                for info in workflow.instances:
                    proc = ctx.Process(
                        target=run_instance,
                        args=(
                            handles[info.gid],
                            blob,
                            info.gid,
                            produce_counts.get(info.gid),
                            expected[info.gid],
                            capture_stdout,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    processes[info.gid] = proc
                inject(mailboxes, workflow, external_items)
                result.add_messages(
                    self._collect(mailboxes, processes, timeout, counters)
                )
                # every worker has posted its last message: let each exit
                # on its own, since one killed mid-write can leave a
                # shared queue unusable
                for proc in processes.values():
                    proc.join(timeout=5.0)
            finally:
                for proc in processes.values():
                    if proc.is_alive():
                        proc.terminate()
                for proc in processes.values():
                    proc.join(timeout=1.0)
        return self._finalize(result, counters, t0)

    def _collect(
        self,
        mailboxes: Mailboxes,
        processes: dict[int, mp.process.BaseProcess],
        timeout: float,
        counters: list[InstanceCounters],
    ) -> Iterator[tuple]:
        """Yield the collector's result and stdout messages until every
        worker of ``processes`` (by gid) has posted ``done``, whose
        counters go to ``counters``; an ``error``, the timeout or a
        worker that exited without its terminal message raises.

        The wait is cut into slices of at most :data:`_LIVENESS_SLICE`
        seconds, and when one comes back empty the collector notes which
        workers have exited.  Those have put every message they ever
        will, so if the next slice comes back empty too and one of them
        has not posted its terminal message, it never will: the run ends
        then, naming the worker and its exit code, instead of at the
        timeout.  No worker is polled while messages flow.
        """
        deadline = time.monotonic() + timeout
        pending = dict(processes)
        # the workers seen exited when a slice last came back empty
        exited: list[int] = []
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise MappingError(
                    f"{self.name} mapping timed out after {timeout}s "
                    f"({len(processes) - len(pending)}/{len(processes)}"
                    " instances finished)",
                    params={"timeout": timeout},
                )
            msg = mailboxes.take(COLLECTOR, min(remaining, _LIVENESS_SLICE))
            if msg is None:
                for gid in exited:
                    if gid in pending:
                        code = pending[gid].exitcode
                        raise MappingError(
                            f"{self.name} worker {gid} exited with code"
                            f" {code} without posting its terminal message",
                            params={"gid": gid, "exitcode": code},
                        )
                exited = [
                    gid for gid, proc in pending.items()
                    if proc.exitcode is not None
                ]
                continue
            if msg[0] == "error":
                raise MappingError(
                    f"worker process(es) failed during {self.name} enactment",
                    details=msg[2],
                )
            if msg[0] == "done":
                pending.pop(msg[1], None)
                counters.append(msg[2])
            else:
                yield msg

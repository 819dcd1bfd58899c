"""Processing Elements — the fundamental dataflow units (paper §2.1).

A Processing Element (PE) is a computational task within a workflow graph.
PEs connect through named input and output ports for stream-based data
flow.  They can be *stateful* (retaining previous inputs in instance
attributes, like the ``CountWords`` PE of Listing 2) or *stateless*
(focusing on the current data, like ``NumberProducer`` of Listing 1).

Four PE flavours mirror dispel4py's taxonomy:

=============  =======================  ==========================
Class          Ports                    ``_process`` signature
=============  =======================  ==========================
GenericPE      user-defined             ``_process(self, inputs)``
ProducerPE     one output               ``_process(self)``
IterativePE    one input, one output    ``_process(self, data)``
ConsumerPE     one input                ``_process(self, data)``
=============  =======================  ==========================

``_process`` may *return* a value — routed to the default output port — or
call :meth:`ProcessingElement.write` any number of times to emit to named
ports.  Both styles may be mixed, exactly as in dispel4py.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import GraphError

#: Conventional default port names used by the convenience PE types.
DEFAULT_INPUT = "input"
DEFAULT_OUTPUT = "output"


def _silent_log(message: str) -> None:
    """Default log sink; module-level so PEs stay stdlib-picklable."""


@dataclass(frozen=True)
class PortSpec:
    """Declaration of a single input or output port on a PE.

    ``grouping`` only applies to input ports; it is the raw grouping
    declaration (``None``, a list of tuple indices, ``"all"`` or
    ``"global"``) as written by the user — resolution into a routing object
    happens at partition time (see :mod:`repro.dataflow.grouping`).
    """

    name: str
    is_input: bool
    grouping: Any = None


@dataclass
class PEOutput:
    """A single (port, value) emission produced by one ``process`` call."""

    port: str
    value: Any


class ProcessingElement:
    """Base class of every PE.

    Subclasses declare ports in ``__init__`` via :meth:`_add_input` /
    :meth:`_add_output` and implement ``_process``.  The enactment layer
    never calls ``_process`` directly; it calls :meth:`process`, which
    collects explicit :meth:`write` calls *and* the return value into a
    list of :class:`PEOutput` records.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.inputconnections: dict[str, PortSpec] = {}
        self.outputconnections: dict[str, PortSpec] = {}
        #: number of parallel instances requested for this PE (hint used by
        #: the partitioner; the total process budget still dominates).
        self.numprocesses: int = 1
        #: assigned during enactment: which instance of the PE this object is
        self.instance_id: int | None = None
        #: buffer of writes performed during the current ``process`` call
        self._written: list[PEOutput] = []
        #: logger callback injected by the enactment layer
        self._log: Callable[[str], None] = _silent_log

    # ------------------------------------------------------------------
    # Port declaration API (matches dispel4py naming)
    # ------------------------------------------------------------------
    def _add_input(self, name: str, grouping: Any = None) -> None:
        """Declare an input port.

        ``grouping`` may be ``None`` (shuffle), a list of indices (group-by
        on those tuple elements, MapReduce-style), ``"global"`` (all data to
        a single instance) or ``"all"`` (broadcast to every instance).
        """
        if name in self.inputconnections:
            raise GraphError(
                f"duplicate input port {name!r} on PE {self.name!r}",
                params={"port": name, "pe": self.name},
            )
        self.inputconnections[name] = PortSpec(name, True, grouping)

    def _add_output(self, name: str) -> None:
        """Declare an output port."""
        if name in self.outputconnections:
            raise GraphError(
                f"duplicate output port {name!r} on PE {self.name!r}",
                params={"port": name, "pe": self.name},
            )
        self.outputconnections[name] = PortSpec(name, False)

    # ------------------------------------------------------------------
    # Emission API
    # ------------------------------------------------------------------
    def write(self, port: str, value: Any) -> None:
        """Emit ``value`` on ``port`` from inside ``_process``."""
        if port not in self.outputconnections:
            raise GraphError(
                f"PE {self.name!r} has no output port {port!r}",
                params={"port": port, "pe": self.name},
            )
        self._written.append(PEOutput(port, value))

    def log(self, message: str) -> None:
        """Log a message through the enactment layer (visible to clients)."""
        self._log(f"{self.name}{'' if self.instance_id is None else self.instance_id}: {message}")

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _preprocess(self) -> None:
        """Called once per instance before any data arrives."""

    def _postprocess(self) -> None:
        """Called once per instance after all input streams finished.

        Stateful PEs may :meth:`write` their accumulated results here.
        """

    def _process(self, *args: Any, **kwargs: Any) -> Any:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Enactment entry points
    # ------------------------------------------------------------------
    def _collect(self, returned: Any) -> list[PEOutput]:
        outputs = list(self._written)
        self._written = []
        if returned is not None:
            port = self._default_output()
            if port is None:
                raise GraphError(
                    f"PE {self.name!r} returned a value from _process but "
                    "declares no output port",
                    params={"pe": self.name},
                )
            outputs.append(PEOutput(port, returned))
        return outputs

    def _default_output(self) -> str | None:
        if DEFAULT_OUTPUT in self.outputconnections:
            return DEFAULT_OUTPUT
        if len(self.outputconnections) == 1:
            return next(iter(self.outputconnections))
        return None

    def process(self, inputs: dict[str, Any]) -> list[PEOutput]:
        """Run one unit of computation on ``inputs``.

        Subclass flavours adapt the call signature of ``_process``; the
        default (GenericPE-style) passes the inputs dict straight through.
        """
        self._written = []
        returned = self._process(inputs)
        return self._collect(returned)

    def postprocess(self) -> list[PEOutput]:
        """Run the ``_postprocess`` hook, collecting any final writes."""
        self._written = []
        self._postprocess()
        return self._collect(None)

    def preprocess(self) -> None:
        self._preprocess()

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------
    def clone(self) -> "ProcessingElement":
        """Deep copy used to create independent instances of a PE."""
        return copy.deepcopy(self)


class GenericPE(ProcessingElement):
    """Custom-defined PE with any number of ports.

    ``_process(self, inputs)`` receives a dict mapping input port name to
    the arriving data unit.
    """


class ProducerPE(ProcessingElement):
    """PE with a single output port; it originates the stream.

    ``_process(self)`` takes no data argument; the enactment layer invokes
    it once per requested iteration.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._add_output(DEFAULT_OUTPUT)

    def process(self, inputs: dict[str, Any]) -> list[PEOutput]:
        self._written = []
        returned = self._process()
        return self._collect(returned)


class IterativePE(ProcessingElement):
    """PE with one input and one output port.

    ``_process(self, data)`` receives the single arriving data unit.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._add_input(DEFAULT_INPUT)
        self._add_output(DEFAULT_OUTPUT)

    def process(self, inputs: dict[str, Any]) -> list[PEOutput]:
        self._written = []
        returned = self._process(inputs[DEFAULT_INPUT])
        return self._collect(returned)


class ConsumerPE(ProcessingElement):
    """PE with one input port and no outputs; it terminates the stream.

    ``_process(self, data)`` receives the single arriving data unit.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._add_input(DEFAULT_INPUT)

    def process(self, inputs: dict[str, Any]) -> list[PEOutput]:
        self._written = []
        returned = self._process(inputs[DEFAULT_INPUT])
        if returned is not None:
            raise GraphError(
                f"ConsumerPE {self.name!r} returned a value but has no "
                "output port",
                params={"pe": self.name},
            )
        return self._collect(None)


@dataclass
class FunctionPE:
    """Helper describing a plain function lifted into an IterativePE.

    Used by :func:`make_iterative_pe` and by the registry examples; keeping
    it a separate dataclass makes the lifted PE picklable.
    """

    func: Callable[[Any], Any]
    name: str = field(default="FunctionPE")


def make_iterative_pe(func: Callable[[Any], Any], name: str | None = None) -> IterativePE:
    """Lift a plain ``f(data) -> result`` function into an IterativePE.

    This mirrors the FaaS-style single-function deployment the paper
    mentions (§3.4.1: users may run workflows consisting of a single PE,
    "similar to traditional FaaS frameworks").
    """

    class _Lifted(IterativePE):
        def __init__(self) -> None:
            super().__init__(name or getattr(func, "__name__", "FunctionPE"))
            self._func = func

        def _process(self, data: Any) -> Any:
            return self._func(data)

    return _Lifted()

"""Multiple Execution Engine registration (paper §3.3 / §8 future work).

"In the future we plan to expand Laminar's capabilities by enabling the
registration of multiple Execution Engines, a process that currently
involves manual intervention."  This module implements that extension:
an :class:`EnginePool` holding named engines, each with its own
simulated environment and (optional) transport latency model for the
engine-side hop, plus a dispatch policy for unpinned runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.engine import ExecutionEngine, ExecutionRequest
from repro.engine.environment import SimulatedCondaEnvironment
from repro.engine.results import ExecutionOutcome
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.net.latency import LatencyModel, make_latency


@dataclass
class EngineEntry:
    """One registered engine with its dispatch metadata."""

    name: str
    engine: ExecutionEngine
    #: latency charged per execution round trip to this engine (models
    #: where the engine runs: in-process, LAN, or WAN/cloud)
    latency: LatencyModel | None = None
    #: registration metadata shown to clients
    description: str = ""

    def stats(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "invocations": self.engine.invocations,
            "installedPackages": len(self.engine.environment.installed),
            "latency": self.latency.name if self.latency else "in-process",
        }


class EnginePool:
    """Named Execution Engines with least-load dispatch for unpinned runs."""

    def __init__(self, default: ExecutionEngine | None = None) -> None:
        self._entries: dict[str, EngineEntry] = {}
        self.register(
            "local",
            default or ExecutionEngine(name="local"),
            description="default in-process engine",
        )

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        engine: ExecutionEngine,
        *,
        latency: LatencyModel | None = None,
        description: str = "",
    ) -> EngineEntry:
        if not name or not name.strip():
            raise ValidationError("engine name must be non-empty")
        if name in self._entries:
            raise DuplicateError(
                f"engine {name!r} is already registered", params={"engine": name}
            )
        entry = EngineEntry(name, engine, latency, description)
        self._entries[name] = entry
        return entry

    def create(
        self,
        name: str,
        *,
        install_scale: float = 0.0,
        latency_preset: str | None = None,
        description: str = "",
    ) -> EngineEntry:
        """Provision a fresh engine from configuration (the API path)."""
        engine = ExecutionEngine(
            SimulatedCondaEnvironment(install_latency_scale=install_scale),
            name=name,
        )
        latency = make_latency(latency_preset) if latency_preset else None
        return self.register(
            name, engine, latency=latency, description=description
        )

    def remove(self, name: str) -> None:
        if name == "local":
            raise ValidationError("the default 'local' engine cannot be removed")
        if name not in self._entries:
            raise NotFoundError(
                f"engine {name!r} is not registered", params={"engine": name}
            )
        del self._entries[name]

    # ------------------------------------------------------------------
    def get(self, name: str) -> EngineEntry:
        if name not in self._entries:
            raise NotFoundError(
                f"engine {name!r} is not registered",
                params={"engine": name},
                details=f"registered engines: {sorted(self._entries)}",
            )
        return self._entries[name]

    def pick(self) -> EngineEntry:
        """Least-load dispatch: the engine with fewest invocations."""
        return min(
            self._entries.values(), key=lambda e: (e.engine.invocations, e.name)
        )

    def execute(
        self, request: ExecutionRequest, engine_name: str | None = None
    ) -> ExecutionOutcome:
        """Run on the named engine (or least-load pick), charging its hop."""
        entry = self.get(engine_name) if engine_name else self.pick()
        if entry.latency is not None:
            # engine-side hop: request out, results back (sizes approximated
            # by the serialized workflow and stdout payloads)
            entry.latency.apply(len(request.workflow_code))
        outcome = entry.engine.execute(request)
        if entry.latency is not None:
            entry.latency.apply(len(outcome.stdout) + 512)
        outcome.engine_name = entry.name
        return outcome

    # ------------------------------------------------------------------
    def stats(self) -> list[dict[str, Any]]:
        return [entry.stats() for _name, entry in sorted(self._entries.items())]

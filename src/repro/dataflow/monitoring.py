"""Lightweight per-instance monitoring counters.

The HPC guides' first rule is "no optimization without measuring": every
enactment records how many data units each instance consumed/produced and
how long it spent inside user ``_process`` code, so benchmark results can
be attributed to workload rather than framework overhead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class InstanceCounters:
    """Counters for a single PE instance."""

    pe_name: str = ""
    instance: int = 0
    consumed: int = 0
    produced: int = 0
    process_seconds: float = 0.0

    def merge_key(self) -> str:
        return self.pe_name


def merge_counters(items: list[InstanceCounters]) -> dict[str, dict[str, float]]:
    """Aggregate per-instance counters by PE name."""
    merged: dict[str, dict[str, float]] = {}
    for item in items:
        slot = merged.setdefault(
            item.merge_key(),
            {"consumed": 0, "produced": 0, "process_seconds": 0.0, "instances": 0},
        )
        slot["consumed"] += item.consumed
        slot["produced"] += item.produced
        slot["process_seconds"] += item.process_seconds
        slot["instances"] += 1
    return merged

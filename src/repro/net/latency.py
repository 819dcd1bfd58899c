"""Latency models for simulated deployments (Table 5's local vs remote).

A :class:`LatencyModel` charges each transport direction
``rtt/2 + payload_bytes/bandwidth`` seconds, with optional multiplicative
jitter from a seeded RNG (deterministic benchmarks).  ``sleep=False``
turns the model into a pure cost *accountant* — benchmarks can either
really sleep (wall-clock realism) or just integrate the modelled cost.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field


@dataclass
class LatencyModel:
    """Network cost model for one transport hop."""

    name: str = "local"
    #: round-trip time in seconds (a request pays rtt/2 each direction)
    rtt_s: float = 0.0
    #: link bandwidth in bytes/second (0 means infinite)
    bandwidth_bps: float = 0.0
    #: +- fractional jitter applied multiplicatively
    jitter: float = 0.0
    seed: int = 7
    #: when False, ``apply`` only accounts cost without sleeping
    sleep: bool = True
    _rng: random.Random = field(init=False, repr=False)
    #: accumulated modelled cost in seconds
    accounted_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, payload_bytes: int) -> float:
        """Modelled one-way delay for a payload of the given size."""
        base = self.rtt_s / 2.0
        if self.bandwidth_bps > 0:
            base += payload_bytes / self.bandwidth_bps
        if self.jitter > 0:
            base *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(0.0, base)

    def apply(self, payload_bytes: int) -> float:
        """Charge (and optionally sleep) one direction; returns seconds."""
        cost = self.delay(payload_bytes)
        self.accounted_s += cost
        if self.sleep and cost > 0:
            time.sleep(cost)
        return cost


#: zero-cost model: client, server and engine in one process
LOCAL = LatencyModel(name="local", rtt_s=0.0, bandwidth_bps=0.0)

#: same-site deployment (the paper's "Local Execution Engine" still talks
#: to the remotely hosted Registry; this models the short hop)
LAN = LatencyModel(
    name="lan", rtt_s=0.0008, bandwidth_bps=1.25e9, jitter=0.05
)

#: Azure-App-Service-like WAN hop (the paper's remote Execution Engine)
AZURE_WAN = LatencyModel(
    name="azure-wan", rtt_s=0.035, bandwidth_bps=6.25e6, jitter=0.10
)


#: the presets by name
PRESETS = {preset.name: preset for preset in (LOCAL, LAN, AZURE_WAN)}


def make_latency(name: str) -> LatencyModel:
    """Fresh (independently seeded/accounted) preset by name."""
    if name not in PRESETS:
        raise ValueError(f"unknown latency preset {name!r}; have {sorted(PRESETS)}")
    template = PRESETS[name]
    return LatencyModel(
        name=template.name,
        rtt_s=template.rtt_s,
        bandwidth_bps=template.bandwidth_bps,
        jitter=template.jitter,
    )

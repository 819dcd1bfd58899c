"""The only statistics this benchmark reports, and the rules on them.

A gated number is a median; a tail is informational and is refused
outright when the sample cannot support it (fewer than ten samples
beyond the percentile), because a p99 of 240 samples is two requests.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a percentile before it may be reported
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it on its short side — p50 needs 20 samples, p95 200, p99
    1000.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(samples)
    beyond = n * min(q, 100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond:.1f} samples beyond it; "
            f"{MIN_BEYOND} are required"
        )
    ordered = sorted(samples)
    if q == 50.0:
        return statistics.median(ordered)
    return ordered[min(n - 1, math.ceil(q * n / 100.0) - 1)]


def tail(samples: Sequence[float], q: float) -> float:
    """``percentile`` for informational metrics: 0.0 stands for "the
    sample does not support this percentile" instead of an error."""
    try:
        return percentile(samples, q)
    except ValueError:
        return 0.0


def median_or_zero(samples: Sequence[float]) -> float:
    """Median for informational metrics of op classes a workload may not
    contain at all; 0.0 when there is no sample."""
    return statistics.median(samples) if samples else 0.0


def ops_per_second(completions: Sequence[float], start: float,
                   end: float) -> float:
    """Median completions per one-second slice of ``[start, end)``.

    The median of slices, not ops / wall: one stalled second (a journal
    compaction, a neighbour's burst) moves a mean by its full weight and
    the median not at all.  The last partial slice is dropped.
    """
    slices = int(end - start)
    if slices < 1:
        return len(completions) / max(end - start, 1e-9)
    counts = [0] * slices
    for moment in completions:
        index = int(moment - start)
        if 0 <= index < slices:
            counts[index] += 1
    return float(statistics.median(counts))

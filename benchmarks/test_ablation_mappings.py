"""Ablation A3 — mapping scaling on CPU-bound and IO-bound workloads.

DESIGN.md calls out the mapping set (Simple/Multi/MPI/Redis) as the core
substrate choice; this ablation quantifies when each wins: parallel
mappings pay process/broker overhead that only amortizes once per-item
work is non-trivial (the paper's Table 5 uses an IO-bound workload where
Multi shines).
"""

from __future__ import annotations

import statistics

import pytest

from repro.dataflow.core import ConsumerPE, IterativePE, ProducerPE
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings import run_workflow

N_ITEMS = 24
IO_DELAY_S = 0.004
CPU_LOOPS = 20_000
#: alternating (simple, multi) runs the IO claim takes the medians of
IO_REPEATS = 5


class _Producer(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
        self.i = 0

    def _process(self):
        self.i += 1
        return self.i


class _IOStage(IterativePE):
    """Simulated blocking IO (VO-download-like)."""

    def __init__(self):
        IterativePE.__init__(self)

    def _process(self, x):
        import time

        time.sleep(IO_DELAY_S)
        return x


class _CPUStage(IterativePE):
    """Pure-Python CPU burn."""

    def __init__(self):
        IterativePE.__init__(self)

    def _process(self, x):
        total = 0
        for i in range(CPU_LOOPS):
            total += i * i % 7
        return (x, total)


class _Sink(ConsumerPE):
    def __init__(self):
        ConsumerPE.__init__(self)
        self.n = 0

    def _process(self, x):
        self.n += 1


def _graph(stage_cls, hint):
    graph = WorkflowGraph(f"ablation-{stage_cls.__name__}")
    stage = stage_cls()
    stage.numprocesses = hint
    graph.connect(_Producer(), "output", stage, "input")
    graph.connect(stage, "output", _Sink(), "input")
    return graph


@pytest.mark.parametrize("mapping", ["simple", "multi", "mpi", "redis"])
class TestMappingAblation:
    def test_io_bound(self, benchmark, mapping):
        benchmark.group = "ablation-io-bound"
        result = benchmark.pedantic(
            lambda: run_workflow(
                _graph(_IOStage, hint=4), input=N_ITEMS, mapping=mapping,
                nprocs=6, timeout=120,
            ),
            rounds=2,
            iterations=1,
        )
        assert result.counters["_IOStage"]["consumed"] == N_ITEMS

    def test_cpu_bound(self, benchmark, mapping):
        benchmark.group = "ablation-cpu-bound"
        result = benchmark.pedantic(
            lambda: run_workflow(
                _graph(_CPUStage, hint=4), input=N_ITEMS, mapping=mapping,
                nprocs=6, timeout=120,
            ),
            rounds=2,
            iterations=1,
        )
        assert result.counters["_CPUStage"]["consumed"] == N_ITEMS


def test_multi_beats_simple_on_io(benchmark, record):
    """The Table 5 mechanism in isolation: IO overlap across processes.

    Printed, not asserted.  Unprofiled, Multi's median is ~0.055 s
    against Simple's ~0.100 s; under a profile hook (``reach.py``
    arms one in every process) Multi's own Python overhead grows to
    ~0.095 s, and even the median of five alternating runs came out
    slower than Simple in 1 of 10 hooked runs.  CPU time cannot show
    the claim: what Multi overlaps is sleeping, not computing.
    """
    import time

    def timed(mapping):
        t0 = time.perf_counter()
        run_workflow(
            _graph(_IOStage, hint=4), input=N_ITEMS, mapping=mapping,
            nprocs=6, timeout=120,
        )
        return time.perf_counter() - t0

    runs = benchmark.pedantic(
        lambda: [(timed("simple"), timed("multi")) for _ in range(IO_REPEATS)],
        rounds=1,
        iterations=1,
    )
    simple = statistics.median(pair[0] for pair in runs)
    multi = statistics.median(pair[1] for pair in runs)
    record(
        "ablation_mappings",
        f"IO-bound ({N_ITEMS} items x {IO_DELAY_S * 1000:.0f}ms, "
        f"median of {IO_REPEATS} runs):\n"
        f"  simple: {simple:.3f}s\n  multi:  {multi:.3f}s\n"
        f"  speedup: {simple / multi:.2f}x\n"
        f"  multi faster than simple: {'yes' if multi < simple else 'NO'}",
    )

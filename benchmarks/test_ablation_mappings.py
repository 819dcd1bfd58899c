"""Ablation A3 — mapping scaling on CPU-bound and IO-bound workloads.

DESIGN.md calls out the mapping set (Simple/Multi/MPI/Redis) as the core
substrate choice; this ablation quantifies when each wins: parallel
mappings pay process/broker overhead that only amortizes once per-item
work is non-trivial (the paper's Table 5 uses an IO-bound workload where
Multi shines).
"""

from __future__ import annotations

import statistics

from repro.dataflow.core import ConsumerPE, IterativePE, ProducerPE
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings import run_workflow

N_ITEMS = 24
IO_DELAY_S = 0.004
CPU_LOOPS = 20_000
#: rounds of every (graph, mapping) run whose medians are recorded
IO_REPEATS = 5
MAPPINGS = ("simple", "multi", "mpi", "redis")


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


def test_multi_beats_simple_on_io(benchmark, record):
    """Every mapping on both workloads, and the Table 5 mechanism in
    isolation: IO overlap across processes.

    Every mapping runs both graphs in each of :data:`IO_REPEATS` rounds,
    in turn, each run consuming every item, and the medians of all of
    them are written to ``benchmarks/out/ablation_mappings.txt``: the
    one place this file times a mapping.  The claim is printed, not
    asserted.  Unprofiled, Multi's IO median is ~0.055 s against
    Simple's ~0.100 s; under a profile hook (``reach.py`` arms one in
    every process) Multi's own Python overhead grows to ~0.095 s, and
    even the median of five alternating runs came out slower than
    Simple in 1 of 10 hooked runs.  CPU time cannot show the claim:
    what Multi overlaps is sleeping, not computing.
    """
    import time

    stages = {"IO-bound": _IOStage, "CPU-bound": _CPUStage}

    def timed(stage, mapping):
        t0 = time.perf_counter()
        result = run_workflow(
            _graph(stages[stage], hint=4), input=N_ITEMS, mapping=mapping,
            nprocs=6, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        consumed = result.counters[stages[stage].__name__]["consumed"]
        assert consumed == N_ITEMS, (stage, mapping, consumed)
        return elapsed

    runs = benchmark.pedantic(
        lambda: [
            {
                (stage, mapping): timed(stage, mapping)
                for stage in stages
                for mapping in MAPPINGS
            }
            for _ in range(IO_REPEATS)
        ],
        rounds=1,
        iterations=1,
    )
    median = {
        cell: statistics.median(run[cell] for run in runs) for cell in runs[0]
    }
    simple, multi = median["IO-bound", "simple"], median["IO-bound", "multi"]
    rows = [
        f"  {mapping:<8}" + "".join(
            f" {median[stage, mapping]:>9.3f}s" for stage in stages
        )
        for mapping in MAPPINGS
    ]
    record(
        "ablation_mappings",
        f"Median of {IO_REPEATS} rounds, every mapping in turn in each "
        f"({N_ITEMS} items, nprocs 6; IO-bound {IO_DELAY_S * 1000:.0f} ms an "
        f"item, CPU-bound {CPU_LOOPS} loop steps an item):\n"
        f"  {'mapping':<8}" + "".join(f" {stage:>10}" for stage in stages)
        + "\n" + "\n".join(rows) + "\n"
        f"IO-bound speedup of multi over simple: {simple / multi:.2f}x\n"
        f"multi faster than simple on IO: {'yes' if multi < simple else 'NO'}",
    )

"""Failure-injection tests: timeouts, hangs, crashes mid-stream.

A serverless engine must never hang forever on a broken workflow; these
tests verify every parallel mapping escalates cleanly.
"""

import os
import time

import pytest

from repro.dataflow.core import ConsumerPE, IterativePE
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings import run_workflow
from repro.errors import MappingError
from tests.helpers import Collector, FailingPE, OneToTenProducer


class HangingPE(IterativePE):
    """Sleeps far longer than any test timeout (simulated deadlock)."""

    def __init__(self):
        IterativePE.__init__(self)

    def _process(self, x):
        import time

        time.sleep(3600)


class CrashInPostprocess(ConsumerPE):
    """Processes fine, explodes during the final flush."""

    def __init__(self):
        ConsumerPE.__init__(self)

    def _process(self, x):
        pass

    def _postprocess(self):
        raise RuntimeError("flush failed")


class DiesSilently(ConsumerPE):
    """Ends its own process on its first input: no traceback, no
    terminal message, exit code 1."""

    def __init__(self):
        ConsumerPE.__init__(self)

    def _process(self, x):
        os._exit(1)


def _graph(stage):
    graph = WorkflowGraph("failure")
    graph.connect(OneToTenProducer(), "output", stage, "input")
    return graph


#: a healthy run of the same two-stage graph finishes in under 0.1 s on
#: every mapping (2-CPU host), so a run still going at 0.5 s is the hang
HANG_TIMEOUT_S = 0.5


@pytest.mark.parametrize("mapping", ["multi", "mpi", "redis"])
def test_a_hang_times_out(mapping):
    with pytest.raises(MappingError, match=f"{mapping} mapping timed out"):
        run_workflow(
            _graph(HangingPE()), input=1, mapping=mapping, nprocs=2,
            timeout=HANG_TIMEOUT_S,
        )


@pytest.mark.parametrize("mapping", ["multi", "mpi", "redis"])
class TestCrashes:
    def test_postprocess_crash_reported(self, mapping):
        with pytest.raises(MappingError) as excinfo:
            run_workflow(
                _graph(CrashInPostprocess()), input=2, mapping=mapping,
                nprocs=2, timeout=60,
            )
        assert "flush failed" in (excinfo.value.details or "")

    def test_mid_stream_crash_does_not_hang_siblings(self, mapping):
        graph = WorkflowGraph("failure")
        failing = FailingPE(poison=2)
        graph.connect(OneToTenProducer(), "output", failing, "input")
        graph.connect(failing, "output", Collector(), "input")
        with pytest.raises(MappingError):
            run_workflow(graph, input=6, mapping=mapping, nprocs=4, timeout=60)

    def test_a_failed_run_waits_on_no_live_worker(self, mapping, monkeypatch):
        """After a worker's error the runner stops the others at once:
        every ``join`` it makes is on a process it has terminated or
        that has already exited, never a timed wait on a live one."""
        from multiprocessing.process import BaseProcess

        terminated, waits_on_live = set(), []
        terminate, join = BaseProcess.terminate, BaseProcess.join

        def recording_terminate(self):
            terminated.add(self.pid)
            terminate(self)

        def recording_join(self, timeout=None):
            if self.pid not in terminated and self.exitcode is None:
                waits_on_live.append((self.pid, timeout))
            join(self, timeout)

        monkeypatch.setattr(BaseProcess, "terminate", recording_terminate)
        monkeypatch.setattr(BaseProcess, "join", recording_join)
        graph = WorkflowGraph("failure")
        failing = FailingPE(poison=2)
        graph.connect(OneToTenProducer(), "output", failing, "input")
        graph.connect(failing, "output", Collector(), "input")
        with pytest.raises(MappingError) as excinfo:
            run_workflow(graph, input=6, mapping=mapping, nprocs=4, timeout=60)
        assert "poisoned input 2" in (excinfo.value.details or "")
        assert terminated  # the blocked workers were stopped
        assert waits_on_live == []


@pytest.mark.parametrize("mapping", ["multi", "mpi", "redis"])
def test_a_worker_that_dies_silently_ends_the_run(mapping):
    """The collector checks which workers have exited while it waits: a
    worker gone without its terminal message fails the run within a
    slice or two of its death, not at the 30 s timeout."""
    started = time.monotonic()
    with pytest.raises(MappingError, match="exited with code 1") as excinfo:
        run_workflow(
            _graph(DiesSilently()), input=2, mapping=mapping, nprocs=2,
            timeout=30,
        )
    assert time.monotonic() - started < 3
    assert excinfo.value.params["exitcode"] == 1
    assert f"worker {excinfo.value.params['gid']} " in excinfo.value.message


class TestSimpleMappingPropagates:
    def test_simple_raises_directly(self):
        with pytest.raises(RuntimeError, match="poisoned input 2"):
            run_workflow(_graph(FailingPE(poison=2)), input=3, mapping="simple")

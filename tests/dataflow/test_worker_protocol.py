"""The parallel worker's terminal message.

Multi and Redis collect until every worker has posted its terminal
message, and read nothing after it: each worker posts exactly one —
``done`` with its counters, or ``error`` — after all its other messages.
The worker entry runs here in-process over list-backed mailboxes.
"""

from collections import defaultdict

import cloudpickle

from repro.dataflow.core import GenericPE
from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.mappings.base import (
    COLLECTOR,
    MSG_DATA,
    MSG_EOS,
    Mailboxes,
    effective_expected_eos,
    run_instance,
)
from repro.dataflow.monitoring import InstanceCounters
from repro.dataflow.partition import build_concrete_workflow
from tests.helpers import OneToTenProducer


class ListMailboxes(Mailboxes):
    """Every mailbox a list; ``log`` keeps every put in order."""

    def __init__(self):
        self.boxes = defaultdict(list)
        self.log = []

    def put(self, gid, msg):
        self.boxes[gid].append(msg)
        self.log.append((gid, msg))

    def take(self, gid, timeout):
        return self.boxes[gid].pop(0) if self.boxes[gid] else None


class Tally(GenericPE):
    """Print each input; at the end write the count to a result port and
    print it as a line with no newline."""

    def __init__(self, fail=False):
        GenericPE.__init__(self)
        self._add_input("input")
        self._add_output("output")
        self.fail = fail
        self.count = 0

    def _process(self, inputs):
        print("got", inputs["input"])
        self.count += 1

    def _postprocess(self):
        if self.fail:
            raise RuntimeError("flush failed")
        self.write("output", self.count)
        print("total", self.count, end="")


def run(gid, tally, *, produce_n=None, feed=()):
    """Run instance ``gid`` of producer -> ``tally``; return the
    mailboxes and the collector's messages."""
    graph = WorkflowGraph("protocol")
    graph.connect(OneToTenProducer(), "output", tally, "input")
    workflow = build_concrete_workflow(graph, 2)
    mailboxes = ListMailboxes()
    for value in feed:
        mailboxes.put(gid, (MSG_DATA, "input", value))
    mailboxes.put(gid, (MSG_EOS, None, None))
    mailboxes.log.clear()
    run_instance(
        mailboxes,
        cloudpickle.dumps(workflow),
        gid,
        produce_n,
        effective_expected_eos(workflow)[gid],
        True,
    )
    return mailboxes, mailboxes.boxes[COLLECTOR]


def tally_gid():
    graph = WorkflowGraph("protocol")
    graph.connect(OneToTenProducer(), "output", Tally(), "input")
    (gid,) = build_concrete_workflow(graph, 2).instances_of[1]
    return gid


class TestTerminalMessage:
    def test_a_clean_run_posts_its_output_then_one_done_last(self):
        _, collected = run(tally_gid(), Tally(), feed=[5, 6])
        *output, last = collected
        assert output == [
            ("stdout", "got 5\n"),
            ("stdout", "got 6\n"),
            ("result", "Tally", "output", 2),
            ("stdout", "total 2"),
        ]
        kind, counters = last
        assert kind == "done" and isinstance(counters, InstanceCounters)
        assert counters.consumed == 2 and counters.produced == 1

    def test_a_producer_posts_done_after_its_stream(self):
        mailboxes, collected = run(0, Tally(), produce_n=3)
        assert [kind for kind, *_ in collected] == ["done"]
        assert mailboxes.log[-1][0] == COLLECTOR
        stream = [msg for gid, msg in mailboxes.log[:-1]]
        assert stream == [
            (MSG_DATA, "input", 1),
            (MSG_DATA, "input", 2),
            (MSG_DATA, "input", 3),
            (MSG_EOS, None, None),
        ]

    def test_a_crash_in_postprocess_posts_one_error_and_no_done(self):
        _, collected = run(tally_gid(), Tally(fail=True), feed=[5])
        kinds = [msg[0] for msg in collected]
        assert kinds == ["stdout", "error"]
        _, gid, details = collected[-1]
        assert gid == tally_gid()
        assert "RuntimeError: flush failed" in details

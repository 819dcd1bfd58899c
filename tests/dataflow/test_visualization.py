"""Tests for DOT/ASCII workflow rendering (Figure 1 views)."""

from repro.dataflow.graph import WorkflowGraph
from repro.dataflow.partition import build_concrete_workflow
from repro.dataflow.visualization import (
    abstract_to_ascii,
    concrete_to_ascii,
    concrete_to_dot,
)
from repro.workflows.isprime import build_isprime_graph
from tests.helpers import AddTen, build_wordcount_graph


class TestAbstractViews:
    def test_ascii_lists_edges_and_sinks(self):
        text = abstract_to_ascii(build_isprime_graph())
        assert "NumberProducer.output --> IsPrime.input" in text
        assert "PrintPrime (sink)" in text
        assert "~group-by~" in abstract_to_ascii(build_wordcount_graph())

    def test_ascii_tells_repeated_pes_apart(self):
        graph = WorkflowGraph("twice")
        graph.connect(AddTen(), "output", AddTen(), "input")
        text = abstract_to_ascii(graph)
        assert "AddTen.output --> AddTen#2.input" in text
        assert "AddTen#2 (sink)" in text


class TestConcreteViews:
    def test_dot_enumerates_instances(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        dot = concrete_to_dot(workflow)
        assert '"IsPrime[0]"' in dot and '"IsPrime[1]"' in dot
        assert '"PrintPrime[1]"' in dot
        # producer fans out to both IsPrime instances
        assert '"NumberProducer[0]" -> "IsPrime[0]"' in dot
        assert '"NumberProducer[0]" -> "IsPrime[1]"' in dot

    def test_dot_edges_carry_their_ports(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        dot = concrete_to_dot(workflow)
        assert (
            '"NumberProducer[0]" -> "IsPrime[0]" [label="output->input"];'
            in dot
        )
        assert dot.startswith("digraph concrete {") and dot.endswith("}")

    def test_ascii_matches_figure_1_caption(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        text = concrete_to_ascii(workflow)
        assert "5 processes" in text
        assert "NumberProducer" in text and "x1" in text
        assert "x2" in text

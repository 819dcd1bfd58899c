"""Unit tests for WorkflowGraph construction and validation."""

import pytest

from repro.dataflow.core import GenericPE
from repro.dataflow.graph import WorkflowGraph
from repro.errors import GraphError
from tests.helpers import (
    AddTen,
    Collector,
    OneToTenProducer,
    build_diamond_graph,
)


def two_stage():
    graph = WorkflowGraph("two")
    producer, consumer = OneToTenProducer(), Collector()
    graph.connect(producer, "output", consumer, "input")
    return graph, producer, consumer


class TestConnect:
    def test_connect_adds_both_pes(self):
        graph, producer, consumer = two_stage()
        assert len(graph) == 2
        assert graph.get_pes() == [producer, consumer]

    def test_connect_validates_source_port(self):
        graph = WorkflowGraph()
        with pytest.raises(GraphError, match="no output port 'wrong'"):
            graph.connect(OneToTenProducer(), "wrong", Collector(), "input")

    def test_connect_validates_dest_port(self):
        graph = WorkflowGraph()
        with pytest.raises(GraphError, match="no input port 'wrong'"):
            graph.connect(OneToTenProducer(), "output", Collector(), "wrong")

    def test_self_loop_rejected(self):
        graph = WorkflowGraph()
        pe = AddTen()
        with pytest.raises(GraphError, match="self-loop"):
            graph.connect(pe, "output", pe, "input")

    def test_cycle_rejected(self):
        graph = WorkflowGraph()
        a, b = AddTen(), AddTen()
        graph.connect(a, "output", b, "input")
        with pytest.raises(GraphError, match="cycle"):
            graph.connect(b, "output", a, "input")

    def test_add_rejects_non_pe(self):
        graph = WorkflowGraph()
        with pytest.raises(GraphError, match="expected a ProcessingElement"):
            graph.add("not a pe")

    def test_fan_out_same_port_allowed(self):
        graph = build_diamond_graph()
        producer = graph.roots()[0]
        assert len(graph.outgoing(producer)) == 2


class TestIntrospection:
    def test_roots_and_sinks(self):
        graph, producer, consumer = two_stage()
        assert graph.roots() == [producer]
        assert graph.outgoing(consumer) == []

    def test_an_unconnected_pe_is_a_root_too(self):
        graph, producer, _consumer = two_stage()
        loner = AddTen()
        graph.add(loner)
        assert graph.roots() == [producer, loner]

    def test_topological_order_respects_edges(self):
        graph = build_diamond_graph()
        order = graph.topological_order()
        position = {id(pe): i for i, pe in enumerate(order)}
        for conn in graph.get_connections():
            assert position[id(conn.source)] < position[id(conn.dest)]

    def test_incoming_outgoing(self):
        graph = build_diamond_graph()
        collector = graph.topological_order()[-1]
        assert len(graph.incoming(collector)) == 2
        assert graph.outgoing(collector) == []

    def test_unique_names_disambiguate(self):
        graph = WorkflowGraph()
        a, b = AddTen(), AddTen()
        graph.connect(a, "output", b, "input")
        names = set(graph.unique_names().values())
        assert names == {"AddTen", "AddTen#2"}

    def test_pes_and_len(self):
        graph, producer, consumer = two_stage()
        assert graph.get_pes() == [producer, consumer]
        assert len(graph) == 2


class TestValidate:
    def test_valid_graph_passes(self):
        graph, *_ = two_stage()
        graph.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            WorkflowGraph().validate()

    def test_externally_fed_root_is_legal(self):
        # astrophysics pattern: root PE with input ports, fed by the engine
        graph = WorkflowGraph()
        graph.connect(AddTen(), "output", Collector(), "input")
        graph.validate()

    def test_single_unconnected_pe_is_valid(self):
        graph = WorkflowGraph("single")
        graph.add(OneToTenProducer())
        graph.validate()


class TestRandomDags:
    """Property-style checks on randomly wired DAGs."""

    def _random_dag(self, rng, n_nodes):
        graph = WorkflowGraph("random")
        nodes = []
        for i in range(n_nodes):
            pe = GenericPE(name=f"N{i}")
            pe._add_input("input")
            pe._add_output("output")
            nodes.append(pe)
            graph.add(pe)
        # only forward edges -> guaranteed acyclic
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.3:
                    graph.connect(nodes[i], "output", nodes[j], "input")
        return graph

    def test_topological_order_valid_on_random_dags(self):
        import random

        for seed in range(10):
            rng = random.Random(seed)
            graph = self._random_dag(rng, rng.randint(2, 12))
            order = graph.topological_order()
            assert len(order) == len(graph)
            position = {id(pe): i for i, pe in enumerate(order)}
            for conn in graph.get_connections():
                assert position[id(conn.source)] < position[id(conn.dest)]

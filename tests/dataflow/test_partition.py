"""Tests for abstract -> concrete workflow expansion (Figure 1)."""

import pytest

from repro.dataflow.partition import (
    Router,
    build_concrete_workflow,
    distribute_processes,
)
from repro.dataflow.core import PEOutput
from repro.errors import MappingError
from repro.workflows.isprime import build_isprime_graph
from tests.helpers import build_diamond_graph, build_pipeline_graph


class TestDistribution:
    def test_figure_1_allocation(self):
        """Five processes over the 3-PE IsPrime graph -> 1/2/2."""
        graph = build_isprime_graph()
        counts = distribute_processes(graph, 5)
        assert counts == [1, 2, 2]

    def test_budget_smaller_than_pes_gives_one_each(self):
        graph = build_isprime_graph()
        assert distribute_processes(graph, 1) == [1, 1, 1]

    def test_none_uses_numprocesses_attribute(self):
        graph = build_isprime_graph()
        graph.get_pes()[1].numprocesses = 4
        counts = distribute_processes(graph, None)
        assert counts == [1, 4, 1]

    def test_weighted_hints_shift_allocation(self):
        graph = build_isprime_graph()
        # hint the middle PE as the bottleneck
        for pe in graph.get_pes():
            if type(pe).__name__ == "IsPrime":
                pe.numprocesses = 3
        counts = distribute_processes(graph, 5)
        # 4 processes over weights [3, 1] -> 3/1
        assert counts == [1, 3, 1]

    def test_invalid_nprocs_rejected(self):
        with pytest.raises(MappingError, match=">= 1"):
            distribute_processes(build_isprime_graph(), 0)

    def test_total_matches_budget_when_feasible(self):
        graph = build_isprime_graph()
        for nprocs in (3, 5, 9, 12):
            assert sum(distribute_processes(graph, nprocs)) == nprocs


class TestConcreteWorkflow:
    def test_instances_enumerated_in_topo_order(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        assert workflow.total_instances == 5
        names = [info.pe_name for info in workflow.instances]
        assert names == [
            "NumberProducer", "IsPrime", "IsPrime", "PrintPrime", "PrintPrime",
        ]
        assert [info.local_index for info in workflow.instances] == [0, 0, 1, 0, 1]

    def test_routes_resolve_dest_instances(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        [target] = workflow.routes[(0, "output")]
        assert target.dest_port == "input"
        assert target.dest_gids == (1, 2)

    def test_expected_eos_counts_upstream_instances(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        # producers expect none; each IsPrime instance expects 1 (one
        # producer instance); each PrintPrime expects 2 (two IsPrime)
        assert workflow.expected_eos[0] == 0
        assert workflow.expected_eos[1] == workflow.expected_eos[2] == 1
        assert workflow.expected_eos[3] == workflow.expected_eos[4] == 2

    def test_result_ports_are_unconnected_outputs(self):
        workflow = build_concrete_workflow(build_pipeline_graph(), None)
        collector_index = workflow.pe_names.index("Collector")
        assert (collector_index, "output") in workflow.result_ports

    def test_make_instance_is_independent(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        a = workflow.make_instance(1)
        b = workflow.make_instance(2)
        assert a is not b
        assert a.instance_id == 0 and b.instance_id == 1

    def test_root_pe_indices(self):
        workflow = build_concrete_workflow(build_diamond_graph(), 4)
        roots = workflow.root_pe_indices()
        assert [workflow.pe_names[i] for i in roots] == ["OneToTenProducer"]


class TestRouter:
    def test_shuffle_round_robin_over_instances(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        router = Router(workflow, 0)  # the producer
        first = router.route(PEOutput("output", "a"))
        second = router.route(PEOutput("output", "b"))
        assert [m[0] for m in first] == [1]
        assert [m[0] for m in second] == [2]

    def test_result_port_writes_not_routed(self):
        workflow = build_concrete_workflow(build_pipeline_graph(), None)
        collector_index = workflow.pe_names.index("Collector")
        router = Router(workflow, collector_index)
        assert router.is_result_port("output")
        assert router.route(PEOutput("output", [1])) == []

    def test_eos_broadcast_to_all_dest_instances(self):
        workflow = build_concrete_workflow(build_isprime_graph(), 5)
        router = Router(workflow, 0)
        assert sorted(router.eos_targets()) == [(1, "input"), (2, "input")]

    def test_fan_out_duplicates_to_both_branches(self):
        workflow = build_concrete_workflow(build_diamond_graph(), None)
        router = Router(workflow, workflow.pe_names.index("OneToTenProducer"))
        messages = router.route(PEOutput("output", 7))
        assert len(messages) == 2  # one per outgoing connection
        assert all(value == 7 for _gid, _port, value in messages)

"""Tests for the serverless Execution Engine (§3.3)."""

import pytest

from repro.engine import ExecutionEngine, ExecutionRequest, SimulatedCondaEnvironment
from repro.errors import ExecutionError, ValidationError
from repro.serialization import pack_resources, serialize_object
from tests.helpers import (
    AddTen,
    Collector,
    FileLineReader,
    build_pipeline_graph,
)
from repro.dataflow.graph import WorkflowGraph


@pytest.fixture()
def engine():
    return ExecutionEngine(SimulatedCondaEnvironment())


def request_for(graph, **kw):
    return ExecutionRequest(
        workflow_code=serialize_object(graph),
        workflow_name=kw.pop("name", "test-workflow"),
        **kw,
    )


class TestExecution:
    def test_simple_run(self, engine):
        outcome = engine.execute(request_for(build_pipeline_graph(), input=3))
        assert outcome.status == "ok"
        assert outcome.results["Collector.output"] == [[11, 12, 13]]
        assert outcome.mapping == "simple"

    def test_parallel_run(self, engine):
        outcome = engine.execute(
            request_for(build_pipeline_graph(), input=4, mapping="multi", nprocs=3)
        )
        assert outcome.status == "ok"
        assert outcome.nprocs == 3

    def test_root_detection_reported(self, engine):
        outcome = engine.execute(request_for(build_pipeline_graph(), input=1))
        assert outcome.root_pes == ["OneToTenProducer"]

    def test_timings_breakdown_present(self, engine):
        outcome = engine.execute(request_for(build_pipeline_graph(), input=1))
        for key in ("deserialize_s", "install_s", "resources_s", "execute_s", "total_s"):
            assert key in outcome.timings
        assert outcome.timings["total_s"] >= outcome.timings["execute_s"]

    def test_invocation_counter(self, engine):
        engine.execute(request_for(build_pipeline_graph(), input=1))
        engine.execute(request_for(build_pipeline_graph(), input=1))
        assert engine.invocations == 2


class TestPayloadShapes:
    def test_single_pe_class_faas_style(self, engine):
        # FaaS-style: a lone PE invoked with data items, like a function
        request = ExecutionRequest(
            workflow_code=serialize_object(AddTen),
            workflow_name="addten",
            input=[{"input": 5}, {"input": 7}],
        )
        outcome = engine.execute(request)
        assert outcome.status == "ok"
        assert outcome.root_pes == ["AddTen"]
        assert sorted(outcome.results["AddTen.output"]) == [15, 17]

    def test_builder_callable(self, engine):
        request = ExecutionRequest(
            workflow_code=serialize_object(build_pipeline_graph),
            input=2,
        )
        outcome = engine.execute(request)
        assert outcome.results["Collector.output"] == [[11, 12]]

    def test_garbage_payload_raises_execution_error(self, engine):
        request = ExecutionRequest(workflow_code=serialize_object(42))
        with pytest.raises(ExecutionError, match="unsupported type"):
            engine.execute(request)

    def test_corrupt_code_raises(self, engine):
        request = ExecutionRequest(workflow_code="@@@not-base64@@@")
        with pytest.raises(ExecutionError, match="cannot deserialize"):
            engine.execute(request)

    def test_from_json_requires_workflow_code(self):
        with pytest.raises(ValidationError, match="workflowCode"):
            ExecutionRequest.from_json({"input": 3})

    def test_request_from_json(self):
        request = request_for(build_pipeline_graph())
        restored = ExecutionRequest.from_json(
            {"workflowCode": request.workflow_code, "input": 5, "mapping": "multi"}
        )
        assert restored.mapping == "multi"
        assert restored.input == 5


class TestAutoInstall:
    def test_declared_imports_installed(self):
        env = SimulatedCondaEnvironment()
        engine = ExecutionEngine(env)
        outcome = engine.execute(
            request_for(build_pipeline_graph(), input=1, imports=["astropy"])
        )
        assert outcome.installed_packages == ["astropy"]
        assert "astropy" in env.installed

    def test_second_run_already_installed(self):
        engine = ExecutionEngine(SimulatedCondaEnvironment())
        engine.execute(request_for(build_pipeline_graph(), input=1, imports=["astropy"]))
        outcome = engine.execute(
            request_for(build_pipeline_graph(), input=1, imports=["astropy"])
        )
        assert outcome.installed_packages == []


class TestResources:
    def _file_graph(self):
        graph = WorkflowGraph("files")
        graph.connect(FileLineReader(), "output", Collector(), "input")
        return graph

    def test_resources_staged_into_workdir(self, engine, tmp_path):
        resources = tmp_path / "resources"
        resources.mkdir()
        (resources / "coordinates.txt").write_text("one\ntwo\n")
        outcome = engine.execute(
            request_for(
                self._file_graph(),
                input=[{"input": "resources/coordinates.txt"}],
                resources_payload=pack_resources(resources),
            )
        )
        assert outcome.results["Collector.output"] == [["one", "two"]]

    def test_workdir_is_ephemeral(self, engine, tmp_path):
        import glob

        resources = tmp_path / "resources"
        resources.mkdir()
        (resources / "x.txt").write_text("x\n")
        engine.execute(
            request_for(
                self._file_graph(),
                input=[{"input": "resources/x.txt"}],
                resources_payload=pack_resources(resources),
            )
        )
        leftovers = glob.glob("/tmp/laminar-exec-*")
        assert leftovers == []


class TestOutcomeSerialization:
    def test_outcome_json_round_trip(self, engine):
        outcome = engine.execute(request_for(build_pipeline_graph(), input=2))
        restored = type(outcome).from_json(outcome.to_json())
        assert restored.status == "ok"
        assert restored.results == {
            "Collector.output": [[11, 12]]
        }

    def test_summary_mentions_workflow_and_results(self, engine):
        outcome = engine.execute(request_for(build_pipeline_graph(), input=2))
        text = outcome.summary()
        assert "test-workflow" in text
        assert "Collector.output" in text

"""Tests for the multiple-Execution-Engine extension (§3.3/§8)."""

import pytest

from repro.engine import EnginePool, ExecutionEngine, ExecutionRequest
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.net.latency import LatencyModel
from repro.serialization import serialize_object
from tests.helpers import build_pipeline_graph


def request_for(graph, **kw):
    return ExecutionRequest(workflow_code=serialize_object(graph), **kw)


class TestPoolManagement:
    def test_default_local_engine_present(self):
        pool = EnginePool()
        assert [entry["name"] for entry in pool.stats()] == ["local"]

    def test_register_and_get(self):
        pool = EnginePool()
        pool.register("gpu-cluster", ExecutionEngine(name="gpu-cluster"))
        assert pool.get("gpu-cluster").name == "gpu-cluster"

    def test_duplicate_name_rejected(self):
        pool = EnginePool()
        with pytest.raises(DuplicateError):
            pool.register("local", ExecutionEngine())

    def test_empty_name_rejected(self):
        pool = EnginePool()
        with pytest.raises(ValidationError):
            pool.register("  ", ExecutionEngine())

    def test_create_from_config(self):
        pool = EnginePool()
        entry = pool.create(
            "azure", install_scale=0.0, latency_preset="azure-wan",
            description="cloud engine",
        )
        assert entry.latency is not None
        assert entry.stats()["latency"] == "azure-wan"

    def test_unknown_engine_rejected(self):
        with pytest.raises(NotFoundError, match="not registered"):
            EnginePool().get("missing")

    def test_remove_engine(self):
        pool = EnginePool()
        pool.create("temp")
        pool.remove("temp")
        with pytest.raises(NotFoundError):
            pool.get("temp")

    def test_default_engine_not_removable(self):
        with pytest.raises(ValidationError, match="cannot be removed"):
            EnginePool().remove("local")


class TestDispatch:
    def test_pinned_execution(self):
        pool = EnginePool()
        pool.create("second")
        outcome = pool.execute(
            request_for(build_pipeline_graph(), input=2), engine_name="second"
        )
        assert outcome.status == "ok"
        assert outcome.engine_name == "second"

    def test_least_load_balancing(self):
        pool = EnginePool()
        pool.create("second")
        names = [
            pool.execute(request_for(build_pipeline_graph(), input=1)).engine_name
            for _ in range(4)
        ]
        # alternates: each run goes to the currently least-used engine
        assert names.count("local") == 2 and names.count("second") == 2

    def test_latency_charged_per_execution(self):
        pool = EnginePool()
        latency = LatencyModel(name="wan", rtt_s=0.01, sleep=False)
        pool.register("remote", ExecutionEngine(name="remote"), latency=latency)
        pool.execute(
            request_for(build_pipeline_graph(), input=1), engine_name="remote"
        )
        assert latency.accounted_s > 0.0

    def test_stats_shape(self):
        pool = EnginePool()
        pool.create("extra", description="spare capacity")
        stats = pool.stats()
        assert [s["name"] for s in stats] == ["extra", "local"]
        assert stats[0]["description"] == "spare capacity"


class TestThroughTheStack:
    def test_client_engine_functions(self, stack_client):
        client = stack_client
        body = client.register_Engine(
            "remote", latency="azure-wan", description="cloud"
        )
        assert body["name"] == "remote"
        engines = client.get_Engines()
        assert {e["name"] for e in engines} == {"local", "remote"}

        outcome = client.run(
            build_pipeline_graph(), input=2, register=False, engine="remote"
        )
        assert outcome.engine_name == "remote"
        assert client.remove_Engine("remote") is True
        assert {e["name"] for e in client.get_Engines()} == {"local"}

    def test_duplicate_engine_via_client(self, stack_client):
        stack_client.register_Engine("dup")
        with pytest.raises(DuplicateError):
            stack_client.register_Engine("dup")

    def test_unknown_engine_via_client(self, stack_client):
        with pytest.raises(NotFoundError):
            stack_client.run(
                build_pipeline_graph(), input=1, register=False, engine="mars"
            )

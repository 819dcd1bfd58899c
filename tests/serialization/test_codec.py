"""Tests for the cloudpickle+base64 codec and source extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.serialization.codec import (
    deserialize_object,
    extract_source,
    serialize_object,
    serialize_with,
    source_or_empty,
)
from tests.helpers import AddTen, OneToTenProducer, build_pipeline_graph

json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


class TestRoundTrip:
    @given(json_like)
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_data_round_trips(self, value):
        assert deserialize_object(serialize_object(value)) == value

    def test_payload_is_ascii_base64(self):
        payload = serialize_object({"key": "value"})
        assert isinstance(payload, str)
        payload.encode("ascii")  # must not raise

    def test_pe_class_round_trips(self):
        cls = deserialize_object(serialize_object(AddTen))
        pe = cls()
        assert pe.process({"input": 5})[0].value == 15

    def test_pe_instance_with_state_round_trips(self):
        producer = OneToTenProducer()
        producer.process({})
        clone = deserialize_object(serialize_object(producer))
        assert clone.counter == producer.counter

    def test_workflow_graph_round_trips(self):
        graph = build_pipeline_graph()
        restored = deserialize_object(serialize_object(graph))
        assert len(restored) == len(graph)
        assert [type(pe).__name__ for pe in restored.get_pes()] == [
            type(pe).__name__ for pe in graph.get_pes()
        ]

    def test_interactively_defined_class_round_trips(self):
        # the reason the paper chose cloudpickle over stdlib pickle
        namespace = {}
        exec(
            "from repro.dataflow.core import IterativePE\n"
            "class Dyn(IterativePE):\n"
            "    def _process(self, x):\n"
            "        return x * 3\n",
            namespace,
        )
        cls = deserialize_object(serialize_object(namespace["Dyn"]))
        assert cls().process({"input": 2})[0].value == 6


class TestErrors:
    def test_bad_base64_rejected(self):
        with pytest.raises(SerializationError, match="base64"):
            deserialize_object("not base64 at all!!!")

    def test_valid_base64_bad_pickle_rejected(self):
        import base64

        payload = base64.b64encode(b"garbage bytes").decode()
        with pytest.raises(SerializationError, match="pickle"):
            deserialize_object(payload)

    def test_unpicklable_object_rejected(self):
        import threading

        with pytest.raises(SerializationError, match="cannot cloudpickle"):
            serialize_object(threading.Lock())


class TestCodecSelection:
    def test_cloudpickle_codec(self):
        assert deserialize_object(serialize_with([1, 2], "cloudpickle")) == [1, 2]

    def test_pickle_codec(self):
        assert deserialize_object(serialize_with([1, 2], "pickle")) == [1, 2]

    def test_source_codec_returns_text(self):
        text = serialize_with(AddTen, "source")
        assert "class AddTen" in text

    def test_unknown_codec_rejected(self):
        with pytest.raises(SerializationError, match="unknown codec"):
            serialize_with(1, "dill")

    def test_pickle_fails_on_dynamic_class(self):
        namespace = {}
        exec(
            "from repro.dataflow.core import IterativePE\n"
            "class Dyn2(IterativePE):\n"
            "    def _process(self, x):\n"
            "        return x\n",
            namespace,
        )
        with pytest.raises(SerializationError):
            serialize_with(namespace["Dyn2"], "pickle")


class TestSourceExtraction:
    def test_extract_from_class(self):
        source = extract_source(AddTen)
        assert "def _process" in source
        assert "num + 10" in source

    def test_extract_from_instance_falls_back_to_class(self):
        assert "class AddTen" in extract_source(AddTen())

    def test_dunder_source_attribute_wins(self):
        class Carrier:
            __source__ = "def fake(): pass\n"

        assert extract_source(Carrier) == "def fake(): pass\n"

    def test_missing_source_raises(self):
        namespace = {}
        exec("class NoSource:\n    pass\n", namespace)
        with pytest.raises(SerializationError, match="cannot locate source"):
            extract_source(namespace["NoSource"])

    def test_source_or_empty_swallows(self):
        namespace = {}
        exec("class NoSource2:\n    pass\n", namespace)
        assert source_or_empty(namespace["NoSource2"]) == ""

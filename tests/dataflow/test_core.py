"""Unit tests for PE base classes and port mechanics."""

import pytest

from repro.dataflow.core import (
    ConsumerPE,
    GenericPE,
    IterativePE,
    PEOutput,
    ProducerPE,
    make_iterative_pe,
)
from repro.errors import GraphError
from tests.helpers import Collector, OneToTenProducer


class TestPortDeclaration:
    def test_producer_has_single_output(self):
        pe = ProducerPE()
        assert list(pe.outputconnections) == ["output"]
        assert list(pe.inputconnections) == []

    def test_iterative_has_input_and_output(self):
        pe = IterativePE()
        assert list(pe.inputconnections) == ["input"]
        assert list(pe.outputconnections) == ["output"]

    def test_consumer_has_single_input(self):
        pe = ConsumerPE()
        assert list(pe.inputconnections) == ["input"]
        assert list(pe.outputconnections) == []

    def test_generic_custom_ports(self):
        pe = GenericPE()
        pe._add_input("left", grouping=[0])
        pe._add_input("right")
        pe._add_output("merged")
        assert set(pe.inputconnections) == {"left", "right"}
        assert set(pe.outputconnections) == {"merged"}
        assert pe.inputconnections["left"].grouping == [0]

    def test_duplicate_input_port_rejected(self):
        pe = GenericPE()
        pe._add_input("input")
        with pytest.raises(GraphError, match="duplicate input port"):
            pe._add_input("input")

    def test_duplicate_output_port_rejected(self):
        pe = GenericPE()
        pe._add_output("out")
        with pytest.raises(GraphError, match="duplicate output port"):
            pe._add_output("out")


class TestProcessSemantics:
    def test_return_value_routed_to_default_output(self):
        class Doubler(IterativePE):
            def _process(self, data):
                return data * 2

        outputs = Doubler().process({"input": 21})
        assert outputs == [PEOutput("output", 42)]

    def test_write_and_return_combine(self):
        class Both(IterativePE):
            def _process(self, data):
                self.write("output", "written")
                return "returned"

        outputs = Both().process({"input": None})
        assert [(o.port, o.value) for o in outputs] == [
            ("output", "written"),
            ("output", "returned"),
        ]

    def test_multiple_writes_per_call(self):
        class Fan(IterativePE):
            def _process(self, data):
                for i in range(3):
                    self.write("output", i)

        outputs = Fan().process({"input": "x"})
        assert [o.value for o in outputs] == [0, 1, 2]

    def test_none_return_emits_nothing(self):
        class Silent(IterativePE):
            def _process(self, data):
                return None

        assert Silent().process({"input": 1}) == []

    def test_write_to_unknown_port_rejected(self):
        class Bad(IterativePE):
            def _process(self, data):
                self.write("nope", data)

        with pytest.raises(GraphError, match="no output port"):
            Bad().process({"input": 1})

    def test_consumer_return_value_rejected(self):
        class BadConsumer(ConsumerPE):
            def _process(self, data):
                return data

        with pytest.raises(GraphError, match="no output port"):
            BadConsumer().process({"input": 1})

    def test_producer_process_takes_no_data(self):
        class Five(ProducerPE):
            def _process(self):
                return 5

        assert Five().process({})[0].value == 5

    def test_generic_default_output_single_port(self):
        class One(GenericPE):
            def __init__(self):
                GenericPE.__init__(self)
                self._add_input("input")
                self._add_output("only")

            def _process(self, inputs):
                return inputs["input"]

        outputs = One().process({"input": 9})
        assert outputs == [PEOutput("only", 9)]

    def test_return_with_no_output_port_rejected(self):
        class NoPort(GenericPE):
            def __init__(self):
                GenericPE.__init__(self)
                self._add_input("input")

            def _process(self, inputs):
                return 1

        with pytest.raises(GraphError, match="declares no output port"):
            NoPort().process({"input": 1})

    def test_return_ambiguous_output_rejected(self):
        class TwoPorts(GenericPE):
            def __init__(self):
                GenericPE.__init__(self)
                self._add_input("input")
                self._add_output("a")
                self._add_output("b")

            def _process(self, inputs):
                return 1

        with pytest.raises(GraphError, match="declares no output port"):
            TwoPorts().process({"input": 1})


class TestLifecycle:
    def test_postprocess_collects_writes(self):
        collector = Collector()
        collector.process({"input": 2})
        collector.process({"input": 1})
        outputs = collector.postprocess()
        assert outputs == [PEOutput("output", [1, 2])]

    def test_stateful_counter_keeps_state(self):
        producer = OneToTenProducer()
        values = [producer.process({})[0].value for _ in range(4)]
        assert values == [1, 2, 3, 4]

    def test_clone_creates_independent_state(self):
        producer = OneToTenProducer()
        producer.process({})
        clone = producer.clone()
        assert clone.counter == producer.counter
        clone.process({})
        assert clone.counter == producer.counter + 1

    def test_clone_assigns_instance_id_independently(self):
        pe = OneToTenProducer()
        clone = pe.clone()
        clone.instance_id = 3
        assert pe.instance_id is None


class TestFunctionLifting:
    def test_make_iterative_pe_wraps_function(self):
        pe = make_iterative_pe(lambda x: x + 1, name="inc")
        assert pe.name == "inc"
        assert pe.process({"input": 41})[0].value == 42

    def test_make_iterative_pe_uses_function_name(self):
        def triple(x):
            return 3 * x

        pe = make_iterative_pe(triple)
        assert pe.name == "triple"
        assert pe.process({"input": 2})[0].value == 6

"""Tests for per-instance counters and aggregation."""

from repro.dataflow.monitoring import InstanceCounters, merge_counters


class TestCounters:
    def test_defaults(self):
        counters = InstanceCounters(pe_name="X", instance=0)
        assert counters.consumed == 0
        assert counters.produced == 0
        assert counters.process_seconds == 0.0


class TestMerge:
    def test_merge_by_pe_name(self):
        items = [
            InstanceCounters(pe_name="A", instance=0, consumed=2, produced=1),
            InstanceCounters(pe_name="A", instance=1, consumed=3, produced=2),
            InstanceCounters(pe_name="B", instance=0, consumed=5, produced=5),
        ]
        merged = merge_counters(items)
        assert merged["A"]["consumed"] == 5
        assert merged["A"]["produced"] == 3
        assert merged["A"]["instances"] == 2
        assert merged["B"]["instances"] == 1

    def test_merge_sums_process_seconds(self):
        items = [
            InstanceCounters(pe_name="A", instance=0, process_seconds=0.25),
            InstanceCounters(pe_name="A", instance=1, process_seconds=0.5),
        ]
        assert merge_counters(items)["A"]["process_seconds"] == 0.75

    def test_merge_empty(self):
        assert merge_counters([]) == {}

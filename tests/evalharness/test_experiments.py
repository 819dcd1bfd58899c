"""Integration tests for the table-reproduction drivers.

These run the real experiment code at reduced scale and assert the
paper's qualitative shape — the same checks the benchmarks record into
EXPERIMENTS.md.
"""

import pytest

from repro.evalharness.experiments import (
    Table5Config,
    run_table5,
    run_table6,
    run_table7,
)
from repro.evalharness.reporting import environment_header, format_table


@pytest.fixture(scope="module")
def table6():
    return run_table6()


@pytest.fixture(scope="module")
def table7():
    return run_table7()


class TestTable6:
    def test_all_shape_checks_pass(self, table6):
        assert all(table6["checks"].values()), table6["checks"]

    def test_mrr_levels_plausible(self, table6):
        scores = table6["scores"]
        assert 0.2 < scores["unixcoder-base"]["cosqa_mrr"] < 0.7
        assert 0.3 < scores["unixcoder-code-search"]["cosqa_mrr"] < 0.85
        assert scores["unixcoder-code-search"]["csn_mrr"] > 0.6

    def test_table_renders(self, table6):
        assert "unixcoder-base" in table6["table"]
        assert "CSN-like" in table6["table"]


class TestTable7:
    def test_all_shape_checks_pass(self, table7):
        assert all(table7["checks"].values()), table7["checks"]

    def test_covers_all_seven_paper_models(self, table7):
        labels = {row[0] for row in table7["rows"]}
        assert labels == {
            "CodeBERT",
            "GraphCodeBERT",
            "ReACC-retriever-py",
            "thenlper/gte-large",
            "BAAI/bge-large-en",
            "unixcoder-clone-detection",
            "unixcoder-code-search",
        }

    def test_reacc_p1_margin_substantial(self, table7):
        scores = table7["scores"]
        reacc = scores["ReACC-retriever-py"].p_at_1
        runner_up = max(
            s.p_at_1 for label, s in scores.items() if label != "ReACC-retriever-py"
        )
        assert reacc > runner_up


@pytest.fixture(scope="module")
def table5():
    # structure only: the wall-clock orderings (original < local <
    # remote, Multi < Simple) are reproduced at full scale under the
    # `slow` marker by benchmarks/test_table5_latency.py — asserted
    # here they made tier-1 depend on the runner's load
    return run_table5(
        Table5Config(
            n_galaxies=16,
            votable_latency_s=0.006,
            nprocs=5,
            install_scale=0.01,
        )
    )


class TestTable5:
    def test_small_config_shape(self, table5):
        methods = [
            "original dispel4py",
            "Local Execution (with Laminar)",
            "Remote Execution (with Laminar)",
        ]
        assert list(table5["times"]) == methods
        for times in table5["times"].values():
            assert set(times) == {"simple", "multi"}
        assert [row[0] for row in table5["rows"]] == methods
        assert all(len(row) == 3 for row in table5["rows"])
        assert len(table5["checks"]) == 4
        assert all(isinstance(ok, bool) for ok in table5["checks"].values())
        assert "Simple" in table5["table"] and "Multi" in table5["table"]

    def test_times_positive_and_ordered(self, table5):
        for method in table5["times"].values():
            for value in method.values():
                assert value > 0


class TestReporting:
    def test_format_table(self):
        text = format_table("Title", ["a", "bb"], [["1", "22"], ["333", "4"]])
        assert text.splitlines()[0] == "Title"
        assert "333" in text

    def test_environment_header_mentions_python(self):
        assert "Python" in environment_header()

"""The arithmetic of ``benchmarks/ab.py`` (its runs are not tier-1)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

RUN_OUTPUT = """\
environment {"commit": "abc"}
set-ups 1.79 1.67 1.62 s;  window 8.38 s, in which the server wrote 4488168 bytes
  setup_s                                              1.6653 s
  io_write_mb                                          4.4882 MB
  client.calib_ms                                      0.1737 ms
  client.ops_attempted                              3450.0000 count
  FAILED something odd
{"correct": true, "attempted": 4055, "failed": 0, "metrics": {"setup_s": {"value": 1.665343854, "unit": "s"}, "io_write_mb": {"value": 4.488168, "unit": "MB"}}}
"""


def test_parse_run_prefers_the_result_objects_full_precision():
    run = ab.parse_run(RUN_OUTPUT)
    assert run["correct"] and run["failed"] == 0
    assert run["metrics"] == {
        "setup_s": 1.665343854,
        "io_write_mb": 4.488168,
        "client.calib_ms": 0.1737,
        "client.ops_attempted": 3450.0,
    }


def test_sign_test_is_the_two_sided_binomial():
    assert ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(10, 0) == pytest.approx(2 / 2 ** 10)
    assert ab.sign_test(9, 1) == pytest.approx(2 * 11 / 2 ** 10)
    assert ab.sign_test(1, 9) == ab.sign_test(9, 1)


class TestVerdict:
    PARENT = [2.40, 2.35, 2.45, 2.38, 2.41, 2.36, 2.44, 2.39, 2.42, 2.37]

    def test_nine_wins_and_a_shift_beyond_the_parents_iqr_is_better(self):
        change = [p - 0.5 for p in self.PARENT[:9]] + [self.PARENT[9] + 0.01]
        row = ab.compare(self.PARENT, change, lower_is_better=True)
        assert (row["wins"], row["losses"]) == (9, 1)
        assert row["verdict"] == "better"
        # the same numbers for a higher-is-better metric are a loss
        assert ab.compare(self.PARENT, change, False)["verdict"] == "worse"

    def test_eight_wins_is_unresolved(self):
        change = [p - 0.5 for p in self.PARENT[:8]] + [
            p + 0.01 for p in self.PARENT[8:]]
        assert ab.compare(self.PARENT, change, True)["verdict"] == "unresolved"

    def test_a_shift_inside_the_parents_own_spread_is_unresolved(self):
        change = [p - 0.01 for p in self.PARENT]
        row = ab.compare(self.PARENT, change, True)
        assert row["wins"] == 10
        assert row["verdict"] == "unresolved"

    def test_equal_to_the_byte_is_identical(self):
        exact = [4.488168] * 10
        assert ab.compare(exact, exact, True)["verdict"] == "identical"

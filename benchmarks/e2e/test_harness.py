"""Unit tests of the benchmark's own machinery, and the ``--smoke`` run.

Slow-marked like everything under ``benchmarks/`` (see
``benchmarks/conftest.py``): ``python -m pytest benchmarks/e2e -m slow``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from . import corpus, stats, trace
from .client import check_reply

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


# -- stats -------------------------------------------------------------------
def test_percentile_refuses_a_tail_with_under_ten_samples_beyond_it():
    assert stats.percentile(list(range(20)), 50) == 9.5
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        stats.percentile(list(range(1000)), 100)


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = [float(v) for v in range(1000, 0, -1)]
    assert stats.percentile(samples, 99) == 990.0
    assert stats.percentile(samples, 5) == 50.0


def test_tail_and_median_or_zero_report_zero_instead_of_raising():
    assert stats.tail([1.0] * 50, 99) == 0.0
    assert stats.tail([1.0] * 1000, 99) == 1.0
    assert stats.median_or_zero([]) == 0.0
    assert stats.median_or_zero([3.0, 1.0, 2.0]) == 2.0


def test_ops_per_second_is_the_median_slice_not_ops_over_wall():
    # ten ops in each of seconds 0, 1, 3, 4; second 2 stalls completely
    completions = [s + i / 10 for s in (0, 1, 3, 4) for i in range(10)]
    assert stats.ops_per_second(completions, 0.0, 5.0) == 10.0
    assert len(completions) / 5.0 == 8.0  # what ops / wall would have said
    # a trailing partial slice is dropped
    assert stats.ops_per_second(completions + [5.2], 0.0, 5.5) == 10.0


# -- corpus ------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    a = corpus.build_plan("mixed_rw", 7, 15, scale=0.05)
    b = corpus.build_plan("mixed_rw", 7, 15, scale=0.05)
    c = corpus.build_plan("mixed_rw", 8, 15, scale=0.05)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    # what differs between seeds is content, not the order of op kinds
    assert [op.cls for op in a.window] == [op.cls for op in c.window]
    assert [op.path for op in a.window] != [op.path for op in c.window]


def test_schedule_has_the_exact_mix_and_every_core_class():
    for name, spec in corpus.SPECS.items():
        plan = corpus.build_plan(name, 1, 15)
        assert abs(sum(spec.mix.values()) - 1.0) < 1e-9
        counts: dict[str, int] = {}
        for op in plan.window:
            counts[op.cls] = counts.get(op.cls, 0) + 1
        for cls in corpus.CORE_CLASSES:
            assert counts[cls] >= 150, (name, cls, counts)
        assert len(plan.window) == int(spec.ops_per_second * 15)


def test_generated_trees_chunk_into_exactly_their_functions():
    pytest.importorskip("repro")
    from repro.ingest.chunker import chunk_file

    plan = corpus.build_plan("ingest_live", 3, 15, scale=0.05)
    for tree in (plan.main_tree, plan.foreign_tree, plan.ingest_tree):
        names = [chunk.name for path, text in sorted(tree.files.items())
                 for chunk in chunk_file(path, text)]
        assert names == [func.name for func in tree.funcs]
    assert plan.main_tree.needles and all(
        query.split()[0] not in corpus.VOCAB
        for query, _ in plan.main_tree.needles)


def test_read_your_writes_expectations_follow_the_schedule():
    plan = corpus.build_plan("mixed_rw", 5, 15)
    revision: dict[str, int] = {}
    gone: set[str] = set()
    for op in plan.warmup + plan.window:
        if op.cls == "bulk":
            for item in op.body["items"]:
                revision[item["peName"]] = 1
        elif op.cls == "write" and op.method == "PUT":
            name = op.expect["name"]
            revision[name] = revision.get(name, 0) + 1
            assert op.expect["revision"] == revision[name]
            assert op.expect["status"] == (201 if revision[name] == 1 else 200)
        elif op.cls == "write":  # DELETE
            name = next(n for n in revision
                        if corpus.record_path(n) == op.path)
            gone.add(name)
            del revision[name]
        elif op.cls == "fetch" and op.expect["status"] == 404:
            assert any(op.path == corpus.record_path(n) for n in gone)
        elif op.cls == "fetch" and "revision" in op.expect:
            assert op.expect["revision"] == revision[op.expect["name"]]
    assert gone, "the schedule must exercise 404-after-DELETE"
    counts = plan.expected_counts()
    assert counts[corpus.MAIN_USER] == (
        len(plan.main_tree.funcs) + len(revision))


def test_ingest_live_reads_the_ingesting_tenant_and_writes_the_other():
    plan = corpus.build_plan("ingest_live", 2, 15, scale=0.05)
    writes = [op for op in plan.window if op.cls == "write"]
    assert writes and all(
        op.user == corpus.FOREIGN_USER
        and op.path.startswith(f"/v1/registry/{corpus.FOREIGN_USER}/")
        for op in writes)
    assert all(op.user == corpus.MAIN_USER
               for op in plan.window if op.cls != "write")
    written = sum(op.cls == "write" for op in plan.warmup + plan.window)
    assert plan.expected_counts() == {
        corpus.MAIN_USER: len(plan.main_tree.funcs)
        + len(plan.ingest_tree.funcs),
        corpus.FOREIGN_USER: len(plan.foreign_tree.funcs) + written,
    }


# -- client checks -------------------------------------------------------------
def test_check_reply_names_what_is_wrong():
    needle = corpus.search_op("semantic", "a b c", hit1="x::f")
    good = {"count": 10, "hits": [{"peName": "x::f"}] + [{}] * 9}
    assert check_reply(needle, 200, good) is None
    assert "status" in check_reply(needle, 500, {})
    assert "count" in check_reply(needle, 200, {**good, "count": 9})
    assert "needle" in check_reply(
        needle, 200, {**good, "hits": [{"peName": "y::g"}]})
    text = corpus.search_op("text", "a b c")
    assert check_reply(text, 200, {"count": 3, "hits": [{}] * 3}) is None
    assert "count" in check_reply(text, 200, {"count": 0, "hits": []})
    func = corpus.Func("m.py::f", "def f(): pass", "")
    put = corpus.put_revise_op(func, "new words", 3)
    assert check_reply(
        put, 200, {"items": [{"peName": "m.py::f", "revision": 3}]}) is None
    assert "read-your-writes" in check_reply(
        put, 200, {"items": [{"peName": "m.py::f", "revision": 2}]})
    gone = corpus.fetch_op("m.py::f", gone=True)
    assert check_reply(gone, 404, {"error": "NotFoundError"}) is None
    assert "delete" in check_reply(
        corpus.delete_op("m.py::f"), 200, {"removed": False})


# -- trace -------------------------------------------------------------------
def test_every_trace_target_resolves_and_uninstall_restores_it():
    pytest.importorskip("repro")
    import importlib

    def resolve(module: str, path: str):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [resolve(m, p) for _, m, p in trace.TARGETS]
    tracer = trace.Tracer()
    tracer.install()
    try:
        during = [resolve(m, p) for _, m, p in trace.TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    assert [resolve(m, p) for _, m, p in trace.TARGETS] == before


def test_a_stale_trace_target_is_an_error(monkeypatch):
    pytest.importorskip("repro")
    monkeypatch.setattr(trace, "TARGETS", trace.TARGETS + (
        ("x", "repro.server.app", "LaminarServer.no_such_method"),))
    tracer = trace.Tracer()
    with pytest.raises((AttributeError, KeyError)):
        tracer.install()
    tracer.uninstall()


def test_in_process_loop_runs_solo_ops_alone_and_every_op_once():
    """More threads than cores and a short switch interval: a lost update
    or a solo op overlapping anything breaks one of the asserts."""

    class FakeServer:
        def __init__(self):
            self.lock = threading.Lock()
            self.inflight = 0
            self.seen: list[str] = []
            self.overlapped_solo = 0

        def request(self, method, path, body=None, token=None):
            with self.lock:
                self.inflight += 1
                busy = self.inflight
            time.sleep(0.0005)
            with self.lock:
                if method == "GET" and (busy > 1 or self.inflight > 1):
                    self.overlapped_solo += 1
                self.inflight -= 1
                self.seen.append(path)
            return 200, {}, b""

    ops = [corpus.Op("fetch" if i % 3 == 0 else "semantic",
                     "GET" if i % 3 == 0 else "POST", f"/op/{i}", None,
                     {"status": 200}) for i in range(600)]
    fake, result = FakeServer(), trace.Replay()
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        trace._closed_loop(fake, None, ops, {corpus.MAIN_USER: "t"}, 4,
                           frozenset({"fetch"}), result)
    finally:
        sys.setswitchinterval(before)
    assert fake.overlapped_solo == 0
    assert sorted(fake.seen) == sorted(op.path for op in ops)
    assert result.attempted == 600 and result.failed == 0
    assert len(result.latencies["fetch"]) == 200


def test_self_time_is_duration_minus_children_and_generators_span_items():
    tracer = trace.Tracer()
    tracer.phase = "window"

    def leaf():
        return 1

    def items():
        yield leaf_traced()
        yield leaf_traced()

    leaf_traced = tracer.wrap("leaf", leaf)
    items_traced = tracer.wrap("walk", items)

    def root():
        return list(items_traced())

    tracer.tag_next_root("fetch")
    assert tracer.wrap(trace.ROOT, root)() == [1, 1]
    table = trace.SpanTable(tracer.spans)
    by_name: dict[str, list[trace.Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["walk"]) == 2 and len(by_name["leaf"]) == 2
    (top,) = by_name[trace.ROOT]
    assert top.tag == "fetch" and top.parent is None
    assert all(s.request == top.span_id for s in tracer.spans)
    assert all(s.parent == w.span_id
               for s, w in zip(by_name["leaf"], by_name["walk"]))
    children = sum(s.seconds for s in by_name["walk"])
    assert table.self_seconds[top.span_id] == pytest.approx(
        top.seconds - children)
    assert 0.0 <= table.unattributed_share() <= 1.0


# -- the whole thing, small ---------------------------------------------------
def test_smoke_prints_exactly_the_names_benchmark_json_declares():
    schema = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "smoke ok" in done.stdout
    printed = {line.split()[0] for line in done.stdout.splitlines()
               if line.startswith("  ") and not line.startswith("  FAILED")}
    declared = {m["name"] for m in schema["end_to_end"] + schema["per_layer"]}
    assert printed == declared

"""Command line of the end-to-end benchmark.

``--workload NAME --seed S --seconds T --trace 0`` reports the
end-to-end metrics, ``--trace 1`` every per-layer metric; the last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  ``--smoke`` runs all three workloads at a twentieth of their
size in both modes and checks the names against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from . import corpus, env, harness, metrics, trace
from .server import cpu_plan, running_on

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_SCALE = 0.05
#: seconds of the calibration kernel before and after the window
CALIB_SECONDS = 0.5
SETUPS = 3
RESTARTS = 5


def load_schema() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def check_names(values: dict[str, float], declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` — or an error if the names computed
    and the names ``BENCHMARK.json`` declares differ in either direction."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, undeclared "
            f"{sorted(set(values) - set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def _workdir(workload: str, seed: int) -> Path:
    path = REPO_ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _seconds(values: list[float]) -> str:
    return " ".join(f"{value:.2f}" for value in values) + " s"


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0) -> dict:
    """One run; returns the result object (without printing it)."""
    schema = load_schema()
    smoke = scale < 1.0
    plan = corpus.build_plan(workload, seed, seconds, scale)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(traced)}  scale {scale:g}")
    print(f"inputs sha256 {plan.digest()}  (trees + schedule: "
          f"{len(plan.warmup)} warm-up + {len(plan.window)} measured ops)")
    workdir = _workdir(workload, seed)
    try:
        trees = plan.write_trees(workdir / "trees")
        sub = harness.run(
            plan, REPO_ROOT, workdir, trees,
            setups=1 if (traced or smoke) else SETUPS,
            restarts=1 if smoke else RESTARTS,
            calib_seconds=0.1 if smoke else CALIB_SECONDS,
        )
        failures = sub.window.failures + sub.check_failures
        attempted = (sub.window.attempted
                     + len(plan.warmup) * len(sub.setup_seconds)
                     + sub.checks)
        failed = (sub.window.failed + sub.warmup_failed
                  + len(sub.check_failures))
        client = metrics.client_layer(sub, enforce_samples=not smoke)
        if not traced:
            named = check_names(metrics.end_to_end(sub), schema["end_to_end"])
        else:
            tracer = trace.Tracer()
            # the in-process server shares one CPU with its driver, as the
            # subprocess server has one CPU
            with running_on(cpu_plan()[1]):
                untraced = trace.replay(plan, trees, workdir / "plain.db", None)
                replayed = trace.replay(plan, trees, workdir / "traced.db",
                                        tracer)
            print(f"traced run: {len(tracer.spans)} spans over "
                  f"{replayed.attempted} in-process ops")
            for result in (untraced, replayed):
                attempted += result.attempted
                failed += result.failed
                failures += result.failures
            values = dict(client)
            values["client.ops_failed"] = failed
            values.update(metrics.traced_layers(
                trace.SpanTable(tracer.spans), replayed, untraced,
                client["client.fetch_p50_ms"]))
            named = check_names(values, schema["per_layer"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"set-ups {_seconds(sub.setup_seconds)};  window "
          f"{sub.window.finished - sub.window.started:.2f} s, in which the "
          f"server wrote {sub.io_delta['wchar']} bytes;  restarts "
          f"{_seconds(sub.restart_seconds)}")
    for name, metric in named.items():
        print(f"  {name:<42} {metric['value']:>16.4f} {metric['unit']}")
    if not traced:
        # not part of the result, but free: the same window's client view
        units = {m["name"]: m["unit"] for m in schema["per_layer"]}
        for name, value in client.items():
            print(f"  {name:<42} {value:>16.4f} {units[name]}")
    for failure in failures:
        print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": named}


def smoke(seed: int) -> int:
    """Every workload, both modes, at SMOKE_SCALE: every declared name is
    printed, nothing undeclared is, and no op fails."""
    schema = load_schema()
    failed = 0
    with running_on(cpu_plan()[0]):
        for workload in (entry["name"] for entry in schema["workloads"]):
            for traced in (False, True):
                result = run_workload(workload, seed, schema["run_seconds"],
                                      traced, scale=SMOKE_SCALE)
                failed += result["failed"]
    print("smoke ok" if not failed else f"smoke: {failed} ops failed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    schema = load_schema()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in schema["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=schema["run_seconds"],
                        help="length the measured window is sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    print("environment " + json.dumps(env.environment(REPO_ROOT)))
    with running_on(cpu_plan()[0]):
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

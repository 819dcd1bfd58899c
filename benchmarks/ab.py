"""Alternating parent/change runs of the repo benchmark, compared in pairs.

    python3 benchmarks/ab.py --workload read_static --pairs 10
    python3 benchmarks/ab.py --workload mixed_rw --parent HEAD~1 --seed 7

The *change* is this working tree as it stands; the *parent* is
``--parent`` (default ``HEAD``) exported with ``git archive`` into a
scratch directory that is removed afterwards — the committed files only,
which is also what the driver measures, and nothing is registered in
``.git``.  Each side runs its **own** ``benchmarks/e2e/run.py`` at
``--trace 0`` with the same workload, seed and seconds, in the order
parent, change, change, parent, … so neither side always runs first.

For every metric both sides print: the paired differences (change −
parent), wins and losses in the metric's declared direction with a
two-sided sign test, and each side's median and quartiles.  A pair whose
two ``client.calib_ms`` readings (the benchmark's fixed numpy + sqlite +
json kernel, timed around the window) differ by more than 15 % ran on a
machine that changed under it: it is listed, and counts for neither
side.  The verdict follows the metrics guide: *better* / *worse* only
when one side wins at least nine tenths of the counted pairs and the
medians differ by more than the parent's own interquartile range;
otherwise *unresolved*.  A timing claim in a PR description is this
output, pasted.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
CALIB = "client.calib_ms"
CALIB_DRIFT = 0.15
#: "  name   value unit" — how run.py prints a metric
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?\d+(?:\.\d+)?)\s+\S+\s*$")


def parse_run(stdout: str) -> dict:
    """``{"correct", "failed", "metrics": {name: value}}`` of one run:
    every metric line plus the closing result object."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {m.group(1): float(m.group(2))
               for m in map(METRIC_LINE.match, lines) if m}
    metrics.update({name: entry["value"]
                    for name, entry in result["metrics"].items()})
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": metrics}


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact p-value of ``wins`` against ``losses`` under a
    fair coin (ties already dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], lower_is_better: bool
            ) -> dict:
    """Paired comparison of one metric over the counted pairs."""
    diffs = [c - p for p, c in zip(parent, change)]
    gains = [-d if lower_is_better else d for d in diffs]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p_q = quartiles(parent)
    c_q = quartiles(change)
    shift = c_q[1] - p_q[1]
    clear = abs(shift) > p_q[2] - p_q[0]
    counted = wins + losses
    if counted and wins >= 0.9 * counted and clear:
        verdict = "better"
    elif counted and losses >= 0.9 * counted and clear:
        verdict = "worse"
    else:
        verdict = "unresolved" if any(diffs) else "identical"
    return {"diffs": diffs, "wins": wins, "losses": losses,
            "p": sign_test(wins, losses), "parent": p_q, "change": c_q,
            "shift": shift, "verdict": verdict}


def directions() -> dict[str, bool]:
    """``{metric name: lower is better}`` from ``BENCHMARK.json``."""
    schema = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower"
            for m in schema["end_to_end"] + schema["per_layer"]}


def export_parent(rev: str, into: Path) -> Path:
    sha = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", rev],
        check=True, capture_output=True, text=True).stdout.strip()
    tree = into / f"parent-{sha}"
    tree.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", sha],
        check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def report(pairs: list[tuple[dict, dict]], wanted: list[str]) -> None:
    lower = directions()
    drifted = [
        i for i, (p, c) in enumerate(pairs)
        if abs(c["metrics"][CALIB] - p["metrics"][CALIB])
        > CALIB_DRIFT * min(c["metrics"][CALIB], p["metrics"][CALIB])
    ]
    counted = [pair for i, pair in enumerate(pairs) if i not in drifted]
    print(f"\n{len(pairs)} pairs, {len(counted)} counted"
          + (f"; no verdict from pair(s) {[i + 1 for i in drifted]}: "
             f"{CALIB} differs by more than {CALIB_DRIFT:.0%}"
             if drifted else ""))
    failed = [sum(run["failed"] for run in side) for side in zip(*pairs)]
    print(f"failed ops: parent {failed[0]}, change {failed[1]}")
    if not counted:
        return
    names = wanted or sorted(
        set(counted[0][0]["metrics"]) & set(counted[0][1]["metrics"])
        & set(lower))
    print(f"\n{'metric':<36}{'parent q1/med/q3':>28}{'change q1/med/q3':>28}"
          f"{'shift':>9}{'w/l':>7}{'p':>7}  verdict")
    for name in names:
        row = compare([p["metrics"][name] for p, _c in counted],
                      [c["metrics"][name] for _p, c in counted], lower[name])
        base = row["parent"][1]
        share = f"{row['shift'] / base:+.1%}" if base else "n/a"
        print(f"{name:<36}"
              f"{'/'.join(f'{v:.4g}' for v in row['parent']):>28}"
              f"{'/'.join(f'{v:.4g}' for v in row['change']):>28}"
              f"{share:>9}{row['wins']:>4}/{row['losses']:<2}"
              f"{row['p']:>7.3f}  {row['verdict']}")
        if wanted:
            print("    change - parent, per counted pair: "
                  + " ".join(f"{d:+.4g}" for d in row["diffs"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD", help="git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--metric", action="append", default=[],
                        help="report only these (repeatable), with each "
                             "pair's difference; default: every metric")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    try:
        trees = {"parent": export_parent(args.parent, scratch),
                 "change": REPO_ROOT}
        print(f"parent {trees['parent'].name}  change {REPO_ROOT} (working "
              f"tree)  {args.workload} seed {args.seed} seconds "
              f"{args.seconds:g}")
        pairs = []
        for number in range(args.pairs):
            order = ("parent", "change") if number % 2 == 0 else (
                "change", "parent")
            runs = {}
            for side in order:
                runs[side] = run = run_once(trees[side], args)
                print(f"pair {number + 1:>2} {side:<6} "
                      f"setup_s {run['metrics']['setup_s']:.3f}  "
                      f"io_write_mb {run['metrics']['io_write_mb']:.6f}  "
                      f"{CALIB} {run['metrics'][CALIB]:.4f}  "
                      f"failed {run['failed']}", flush=True)
            pairs.append((runs["parent"], runs["change"]))
        report(pairs, args.metric)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

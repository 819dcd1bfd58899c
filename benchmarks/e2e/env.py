"""What the run ran on, and how disturbed the machine was.

Recorded beside the metrics so a run made under a neighbour's burst is
recognisable afterwards; nothing here is ever used to normalise a metric.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .server import SERVER_ENV, cpu_plan


def _git_commit(repo_root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(repo_root: Path) -> dict:
    return {
        "commit": _git_commit(repo_root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "serverEnv": {key: SERVER_ENV[key] for key in sorted(SERVER_ENV)},
        "nproc": os.cpu_count(),
        "cpus": {"loadGenerator": sorted(cpu_plan()[0]),
                 "server": sorted(cpu_plan()[1])},
        "cpu": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def calibrate(seconds: float) -> float:
    """p50 (ms) of a fixed numpy + sqlite + json kernel repeated for
    ``seconds``: the three things the server's time goes into."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((512, 512), dtype=np.float32)
    vector = rng.standard_normal(512, dtype=np.float32)
    document = {"items": [{"id": i, "name": f"record-{i}", "score": i / 7.0}
                          for i in range(64)]}
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
    samples = []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(samples) < 20:
            start = time.perf_counter()
            np.argpartition(matrix @ vector, -10)
            text = json.dumps(document)
            with conn:
                conn.execute("DELETE FROM t")
                conn.executemany("INSERT INTO t (body) VALUES (?)",
                                 [(text,)] * 8)
            json.loads(conn.execute(
                "SELECT body FROM t ORDER BY id DESC LIMIT 1").fetchone()[0])
            samples.append(time.perf_counter() - start)
    finally:
        conn.close()
    return statistics.median(samples) * 1000.0

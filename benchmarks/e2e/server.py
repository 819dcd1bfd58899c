"""The program under test as a subprocess: ``python -m repro serve``.

The server is always a separate process, so its resident set, its
``/proc/<pid>/io`` byte counters and a ``SIGKILL`` are the real thing.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: one BLAS thread and a fixed hash seed: two runs of one schedule then
#: execute the same instructions, and only timing varies.  Nothing else
#: is set, so the allocator and everything else is what a user of
#: ``python -m repro serve`` runs.
SERVER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
}
START_TIMEOUT_S = 60.0
_URL = re.compile(r"http://([^:\s]+):(\d+)")


def cpu_plan() -> tuple[set[int], set[int]]:
    """``(load generator's CPUs, server's CPU)``.

    The server gets one CPU to itself and the load generator the rest.
    Left to the kernel, the server's threads land on one CPU in some runs
    and on two in others, and with a background job holding the
    interpreter lock that choice alone moves foreground latency five-fold
    (fetch p50 1.3 ms against 14 ms measured on this machine) — the largest
    source of run-to-run spread there was.  With a single CPU available
    both sets are that CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return set(allowed[:-1]), {allowed[-1]}


@contextlib.contextmanager
def running_on(cpus: set[int]):
    """Run the body (and start its threads and child processes, which
    inherit the mask) on ``cpus``; restores the caller's mask after."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class ServerProcess:
    """One ``repro serve --db … --no-fit`` process on an ephemeral port."""

    def __init__(self, repo_root: Path, db_path: Path) -> None:
        self.repo_root = repo_root
        self.db_path = db_path
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        """Spawn and wait until the server prints its listening URL."""
        env = dict(os.environ, **SERVER_ENV)
        env["PYTHONPATH"] = str(self.repo_root / "src")
        with open(self.db_path.with_suffix(".log"), "ab") as log, \
                running_on(cpu_plan()[1]):
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", self.host,
                 "--port", "0", "--db", str(self.db_path), "--no-fit"],
                env=env, cwd=self.db_path.parent, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = self.process.stdout.readline()
            match = _URL.search(line)
            if match:
                self.port = int(match.group(2))
                return
            if not line:  # EOF: the server died before listening
                break
        self.kill()
        raise RuntimeError(
            f"server did not start; see {self.db_path.with_suffix('.log')}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        """``SIGKILL`` and reap: nothing is flushed on the way out, so what
        a restart finds is what the server had made durable."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()
        self.process = None

    def io_bytes(self) -> dict[str, int]:
        """``rchar``/``wchar`` of the server: bytes through read- and
        write-like syscalls (storage and socket alike)."""
        counters = {}
        for line in Path(f"/proc/{self.pid}/io").read_text().splitlines():
            name, _, value = line.partition(":")
            counters[name] = int(value)
        return counters

    def rss_peak_mb(self) -> float:
        """``VmHWM``: the largest resident set the server has had."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def db_mb(self) -> float:
        """Registry file plus its write-ahead log."""
        total = 0
        for suffix in ("", "-wal"):
            path = Path(str(self.db_path) + suffix)
            if path.exists():
                total += path.stat().st_size
        return total / 1e6

"""Shared benchmark fixtures and result recording.

Every benchmark writes its paper-style table into ``benchmarks/out/`` so
EXPERIMENTS.md can cite concrete transcripts, and prints it so the
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` run keeps
a full record.

For performance, ``BENCHMARK.json`` and ``benchmarks/e2e/README.md`` are
canonical; the ``benchmarks/out/BENCH_*`` transcripts of the scripts here
are historical, and no new ones should be added.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"
_BENCH_DIR = str(Path(__file__).parent.resolve())


def pytest_collection_modifyitems(config, items):
    """Every test under benchmarks/ is ``slow``.

    The tier-1 suite (`pytest` with the repo default ``-m "not slow"``,
    see pytest.ini) then deselects the benchmarks; run them explicitly
    with ``pytest benchmarks/ -m slow``.
    """
    for item in items:
        if str(item.path).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def record(out_dir):
    """record(name, text): persist and echo one benchmark transcript."""

    def _record(name: str, text: str) -> None:
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record

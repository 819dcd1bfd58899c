"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Runs from any checkout without ``PYTHONPATH``: it puts the repository root
(for ``benchmarks.e2e``) and ``src`` (for ``repro``) on the path itself.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # this process also hosts the traced in-process run: pin BLAS to one
    # thread before numpy loads, as the server subprocess is pinned
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    # the script's own directory would shadow stdlib modules (trace, stats)
    sys.path[:] = [str(root), str(root / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here]

    from benchmarks.e2e.benchmark import main

    sys.exit(main())

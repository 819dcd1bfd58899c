"""``PYTHONPATH=src python -m benchmarks.e2e`` from the repository root."""

import sys

from .benchmark import main

sys.exit(main())

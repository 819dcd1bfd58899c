"""The repo benchmark: three seeded HTTP workloads against ``repro serve``.

Run ``python3 benchmarks/e2e/run.py --workload NAME --seed S`` (the command
``BENCHMARK.json`` names) or ``PYTHONPATH=src python -m benchmarks.e2e``;
see README.md beside this file for the metrics, the layers and the
baseline.
"""

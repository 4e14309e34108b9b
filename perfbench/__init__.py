"""End-to-end benchmark of the reproduction: three workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh interpreters and prints its metrics as one JSON
line; see ``perfbench/README.md`` for the workloads and the metric
definitions, and ``BENCHMARK.json`` at the repository root for the bounds.
"""

"""The repository's layered wall-clock benchmark (see README.md here).

Run from the repository root::

    python3 -m benchmarks.perf [--workload W] [--seed N] [--seconds S]
                               [--trace [0|1]] [--check-repeat] [--smoke]

``BENCHMARK.json`` at the root names the command, the workloads and the
metrics; everything else the benchmark needs lives in this directory.
"""

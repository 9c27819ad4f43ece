"""The benchmark's import-and-run surface is part of tier-1.

``benchmarks/perf`` calls into ``repro`` by name (store API, chunk
store, legacy vid maps, crash injector hooks).  A refactor that renames
or deletes one of those breaks the benchmark, not a unit test — unless
this test runs it: one scaled-down traced workload, which alone crosses
every workload's code and every per-layer probe.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_traced_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # sys.executable, not the declared "python3": the interpreter that
    # has pytest is the one known to have numpy.
    cmd = [sys.executable] + spec["command"][1:] + [
        "--smoke", "--trace", "1", "--workload", "lifecycle_async",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    return spec, proc


def test_benchmark_runs_against_this_tree():
    spec, proc = _run_traced_smoke()
    if proc.returncode != 0 and "Traceback" not in proc.stderr:
        # The async workload kills the job two blocks into the drain;
        # at smoke sizes the drain sometimes finishes first (1 of 41
        # runs alone, 2 of 40 while tier-1 ran beside it) and the
        # workload reports "restored generation 4".  A broken import
        # or a changed value fails every time, so one retry keeps the
        # guard and drops the flake.
        spec, proc = _run_traced_smoke()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    emitted = set(result["metrics"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer <= emitted, sorted(per_layer - emitted)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert emitted - end_to_end == per_layer, sorted(
        emitted - end_to_end - per_layer
    )

"""Schema and smoke checks of the benchmark itself.

Run with ``python3 -m pytest benchmarks/perf`` from the repository root
(outside tier-1's ``testpaths``; about half a minute).  Nothing here
asserts a timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

DEFN = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in DEFN["workloads"]]
END_TO_END = [m["name"] for m in DEFN["end_to_end"]]
PER_LAYER = [m["name"] for m in DEFN["per_layer"]]


def run_smoke(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1])


def test_definition_has_exactly_the_contract_keys():
    assert set(DEFN) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert DEFN["paths"] == ["benchmarks/perf"]
    assert isinstance(DEFN["run_seconds"], int)
    assert 1 <= DEFN["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    for w in DEFN["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DEFN["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DEFN["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in DEFN["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DEFN["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    names = WORKLOADS + END_TO_END + PER_LAYER
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    for m in DEFN["end_to_end"] + DEFN["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m


def test_every_layer_metric_names_what_it_moves_and_what_it_does_not():
    assert [row["name"] for row in LAYERS] == PER_LAYER
    for row in LAYERS:
        assert row["layer"], row
        assert row["moves"]["metric"] in END_TO_END, row
        assert row["moves"]["workload"] in WORKLOADS, row
        assert row["no_change"] in WORKLOADS, row
        assert row["no_change"] != row["moves"]["workload"], row


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_its_metrics_for_two_seeds(workload):
    results = [run_smoke(workload, seed) for seed in (1, 2)]
    for code, result in results:
        assert code == 0, result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == END_TO_END
        for name, mv in result["metrics"].items():
            assert set(mv) == {"value", "unit"}
            assert mv["value"] > 0, name
    # Another seed changes the inputs, not what is checked.
    assert results[0][1]["attempted"] == results[1][1]["attempted"]


def test_another_seed_changes_the_payload_bytes():
    from benchmarks.perf import app

    specs = [app.make_spec(2, 4, seed, rank_bytes=65536,
                           mutate_fraction=0.01, burn_elems=0)
             for seed in (1, 2)]
    first, second = (app.initial_state(s) for s in specs)
    assert first.shape == second.shape and (first != second).any()
    assert app.reference(specs[0]).digest != app.reference(specs[1]).digest
    assert app.reference(specs[0]) == app.reference(specs[0])


def test_traced_run_emits_every_layer_metric_and_the_span_file():
    code, result = run_smoke("lifecycle_async", 1, trace=1)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == PER_LAYER
    spans = json.loads(
        (ROOT / ".bench_out" / "spans-lifecycle_async-1.json").read_text()
    )
    assert {"name", "start", "end", "parent", "rep"} <= set(spans["spans"][0])
    assert not (ROOT / ".bench_tmp").exists()


def test_no_program_no_result(tmp_path):
    """Where only the benchmark is checked out there is nothing to
    measure: non-zero exit, no result line."""
    import shutil

    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

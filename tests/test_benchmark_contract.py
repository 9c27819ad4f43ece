"""The benchmark's import-and-run surface is part of tier-1.

``benchmarks/perf`` calls into ``repro`` by name (store API, chunk
store, legacy vid maps, crash injector hooks).  A refactor that renames
or deletes one of those breaks the benchmark, not a unit test — unless
this test runs it: one scaled-down traced workload, which alone crosses
every workload's code and every per-layer probe.  The store names are
also checked statically, call shape by call shape, so a dropped or
re-signed one fails by name without waiting for the smoke run.
"""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

from repro.faults.crashpoints import CrashPointInjector
from repro.mana import storeio
from repro.mana.fsck import FsckReport
from repro.mana.journal import Journal

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


#: How ``benchmarks/perf`` calls the checkpoint store, the job
#: configuration and the fabric: (module, name, positional argument
#: count, keyword names).  A method counts ``self``.
CALLS = [
    ("repro.mana.checkpoint", "save_chunked_image", 3, ()),
    ("repro.mana.checkpoint", "save_image", 2, ()),
    ("repro.mana.checkpoint", "write_manifest", 2,
     ("nranks", "impl", "kind", "cold_restartable", "loop_target")),
    ("repro.mana.checkpoint", "prune_generations", 2, ()),
    ("repro.mana.checkpoint", "load_image", 1, ()),
    ("repro.mana.checkpoint", "verify_image", 1, ()),
    ("repro.mana.checkpoint", "verify_image", 1, ("deep",)),
    ("repro.mana.checkpoint", "validate_generation", 2, ()),
    ("repro.mana.checkpoint", "read_manifest", 2, ()),
    ("repro.mana.checkpoint", "rank_image_path", 3, ()),
    ("repro.mana.checkpoint", "image_chunk_refs", 1, ()),
    ("repro.mana.checkpoint", "referenced_chunks", 1, ()),
    ("repro.mana.checkpoint", "latest_restorable_generation", 1, ()),
    ("repro.mana.storeio", "tmp_name", 1, ()),
    ("repro.mana.storeio", "write_file", 2, ("site",)),
    ("repro.mana.storeio", "rename", 2, ("site",)),
    ("repro.mana.storeio", "get_durability", 0, ()),
    ("repro.mana.storeio", "set_durability", 1, ()),
    ("repro.mana.storeio", "get_injector", 0, ()),
    ("repro.mana.storeio", "set_injector", 1, ()),
    ("repro.mana.chunkstore", "ChunkStore", 1, ()),
    ("repro.mana.chunkstore", "ChunkStore.put_known", 3, ()),
    ("repro.mana.chunkstore", "ChunkStore.get", 2, ()),
    ("repro.mana.chunkstore", "chunk_spans", 1, ()),
    ("repro.mana.chunkstore", "digest_spans", 2, ()),
    ("repro.mana.journal", "Journal", 1, ()),
    ("repro.mana.journal", "Journal.begin", 2, ("generation",)),
    ("repro.mana.journal", "Journal.retire", 2, ()),
    ("repro.mana.journal", "Journal.pending", 1, ()),
    ("repro.mana.fsck", "fsck", 1, ("repair",)),
    ("repro.mana.fsck", "auto_repair", 1, ()),
    ("repro.runtime", "JobConfig", 0,
     ("nranks", "impl", "mana", "seed", "ckpt_dir", "loop_lag_window",
      "deadline", "faults", "ckpt_format", "ckpt_keep_generations",
      "ckpt_async", "ckpt_save_workers")),
    ("repro.fabric.network", "Fabric", 2, ()),
    ("repro.fabric.network", "Fabric.post_send", 7, ()),
    ("repro.fabric.network", "Fabric.try_match", 5, ()),
]


def test_benchmark_call_surface_accepts_its_calls():
    broken = []
    for module, name, nargs, keywords in CALLS:
        obj = importlib.import_module(module)
        try:
            for attr in name.split("."):
                obj = getattr(obj, attr)
            inspect.signature(obj).bind(
                *range(nargs), **{k: None for k in keywords}
            )
        except (AttributeError, TypeError) as exc:
            broken.append(f"{module}.{name}: {exc}")
    assert not broken, broken


def test_benchmark_reads_fsck_report_fields_and_journal_points(tmp_path):
    fields = {f.name for f in dataclasses.fields(FsckReport)}
    assert {"dirty", "rolled_back_generations", "orphan_chunks_removed",
            "restorable_generations"} <= fields
    assert storeio.TMP_SUFFIX == ".tmp"
    # The store counters count journal records by their crash points.
    inj = CrashPointInjector()
    storeio.set_injector(inj)
    try:
        Journal(str(tmp_path)).begin("probe", generation=1)
    finally:
        storeio.set_injector(None)
    assert "save.journal.probe.write.before" in inj.points

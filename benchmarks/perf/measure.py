"""Run one workload in this process and report it.

The process is the isolation unit: module-level caches of the program, its
``store_for`` registry, the ``storeio`` durability mode and ``ru_maxrss``
all start clean because nothing else ran here first.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

from . import probes
from . import workloads as W
from .runner import (OUT_DIRNAME, REFERENCE_SEED, ROOT, TMP_DIRNAME,
                     definition, environment, load_expected)
from .trace import Tracer

#: Set-ups per run; ``setup_s`` is imports plus their median.
SETUP_REPEATS = 3
#: Timed repetitions a run makes at the least.
MIN_REPS = 2


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        import_s: float, compare_expected: bool = True) -> Tuple[Dict, Dict]:
    """Run workload ``name``; returns ``(result, detail)``.

    ``result`` is the object printed as the last line of output;
    ``detail`` carries what the report and ``--check-repeat`` need on top.
    ``import_s`` is what importing this module (and with it the program)
    cost; it is part of ``setup_s``.  ``compare_expected`` is off only
    while ``expected.json`` is being rewritten.
    """
    tmp_root = ROOT / TMP_DIRNAME / f"{name}-{os.getpid()}"
    tmp_root.mkdir(parents=True)
    previous_tempdir = tempfile.tempdir
    # Jobs that are given no checkpoint dir make one with mkdtemp; keep
    # those inside the benchmark's root too.
    tempfile.tempdir = str(tmp_root)
    checks = W.Checks()
    detail: Dict = {"workload": name, "seed": seed,
                    "sizes": "smoke" if smoke else "full",
                    "samples": {}, "extras": {}, "span_file": None}
    try:
        workload = W.WORKLOADS[name](W.SMOKE if smoke else W.FULL, seed,
                                     str(tmp_root))
        setups = []
        for _ in range(1 if (smoke or trace) else SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup(checks)
            setups.append(perf_counter() - t0)

        reps: List[W.Rep] = []
        clocks: List[W.RepClock] = []
        begin = perf_counter()
        while True:
            clock = W.RepClock()
            with clock:
                reps.append(workload.repetition(clock, Tracer(False), checks))
            clocks.append(clock)
            elapsed = perf_counter() - begin
            if trace or (len(reps) >= MIN_REPS
                         and elapsed + elapsed / len(reps) > seconds):
                break

        if trace:
            metrics, detail["span_file"], traced_rep = _traced(
                workload, clocks[0], checks
            )
            reps.append(traced_rep)
        else:
            samples = {"setup_s": setups,
                       "wall_s": [c.wall for c in clocks],
                       "cpu_s": [c.cpu for c in clocks]}
            for key in ("op_s", "ckpt_stall_s", "recover_s", "copy_s"):
                samples[key] = [v for r in reps
                                for v in r.samples.get(key, [])]
            medians = {k: median(v) for k, v in samples.items() if v}
            detail["samples"] = {k: len(v) for k, v in samples.items() if v}
            metrics = {k: medians.pop(k)
                       for k in ("setup_s", "wall_s", "cpu_s", "op_s")}
            metrics["setup_s"] += import_s
            detail["extras"] = medians
            for key in ("write_amp", "space_amp"):
                if key in reps[0].exact:
                    detail["extras"][key] = reps[0].exact[key]

        detail["repeats"] = _check_repeats(
            checks, name, reps,
            compare_expected and not smoke and seed == REFERENCE_SEED,
        )
        if not trace:
            # Read last: the high-water mark of everything above.
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(tmp_root, ignore_errors=True)
        if tmp_root.exists():
            # Something wrote while the tree was going; now it must go.
            shutil.rmtree(tmp_root)
        with_siblings = ROOT / TMP_DIRNAME
        if with_siblings.is_dir() and not any(with_siblings.iterdir()):
            with_siblings.rmdir()

    units = {m["name"]: m["unit"]
             for m in definition()["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    checks.op(not missing, f"metrics not produced: {missing}")
    detail["failures"] = checks.failures
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    return result, detail


def _check_repeats(checks: W.Checks, name: str, reps: List[W.Rep],
                   compare_expected: bool) -> Dict[str, Dict]:
    """Every value that must repeat does so in every repetition — exactly,
    or within ``NEAR_REL`` for the virtual runtimes of restarted jobs — and,
    with ``compare_expected`` in the reference environment, equals the
    recorded one."""
    def near(a: float, b: float) -> bool:
        return abs(a - b) <= W.NEAR_REL * abs(b)

    exact, close = dict(reps[0].exact), dict(reps[0].near)
    for key, value in exact.items():
        others = [r.exact.get(key) for r in reps[1:]]
        checks.op(all(o == value for o in others),
                  f"{key} varies between repetitions: {value!r} vs {others!r}")
    for key, value in close.items():
        others = [r.near[key] for r in reps[1:]]
        checks.op(all(near(o, value) for o in others),
                  f"{key} varies between repetitions: {value!r} vs {others!r}")
    expected = load_expected()
    if compare_expected and expected["environment"] == environment():
        want = expected["workloads"].get(name, {"exact": {}, "near": {}})
        for key, value in want["exact"].items():
            checks.op(exact.get(key) == value,
                      f"{key} is {exact.get(key)!r}, expected.json records "
                      f"{value!r}")
        for key, value in want["near"].items():
            checks.op(key in close and near(close[key], value),
                      f"{key} is {close.get(key)!r}, expected.json records "
                      f"{value!r}")
    return {"exact": exact, "near": close}


def _traced(workload: W.Workload, untraced_clock: W.RepClock,
            checks: W.Checks) -> Tuple[Dict[str, float], str, W.Rep]:
    """One traced repetition of ``workload`` for its own layers, a
    scaled-down pass of every other workload for the layers it bypasses,
    then the probes.  Returns ``(per-layer values, span file path, the
    traced repetition)``."""
    tracer = Tracer(True)
    tracer.rep = 1
    clock = W.RepClock()
    with clock, tracer.span(f"{workload.name}.repetition"):
        own = workload.repetition(clock, tracer, checks)
    layers = dict(own.layers)
    layers["bench.trace_overhead_frac"] = clock.wall / untraced_clock.wall - 1
    ran = {workload.name: workload}
    for family, cls in W.WORKLOADS.items():
        if family in ran:
            continue
        other = cls(W.SMOKE, workload.seed, workload.tmp_root)
        other.setup(checks)
        tracer.rep += 1
        companion = W.RepClock()
        with companion, tracer.span(f"{family}.companion"):
            rep = other.repetition(companion, tracer, checks)
        for key, value in rep.layers.items():
            layers.setdefault(key, value)
        ran[family] = other

    sync, recover = ran["lifecycle_sync"], ran["recover"]
    layers["storeio.strict_ckpt_stall_s"] = _strict_stall(sync, checks)
    layers.update(probes.run_all(
        workload.tmp_root, workload.seed, sync.last_ckpt_dir,
        recover.last_ckpt_dir, recover.sizes.rec_shrink_to,
    ))

    out_dir = ROOT / OUT_DIRNAME
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload.name}-{workload.seed}.json"
    tracer.write(str(span_file))
    return layers, str(span_file.relative_to(ROOT)), own


def _strict_stall(sync: W.Lifecycle, checks: W.Checks) -> float:
    """Warm-round stall of one lifecycle_sync repetition with real fsyncs
    (``storeio`` strict mode, restored by the repetition)."""
    sync.durability = "strict"
    try:
        clock = W.RepClock()
        with clock:
            rep = sync.repetition(clock, Tracer(False), checks)
    finally:
        sync.durability = "fast"
    return rep.samples["op_s"][0]

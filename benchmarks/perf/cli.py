"""Command line of the benchmark.

``--workload W`` runs one workload in this process (what the driver of
``BENCHMARK.json`` calls).  Without it, every workload runs in a fresh
subprocess of its own, one after the other, and a report is printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from . import runner

#: What a workload reports beside the end-to-end set, with units.  The
#: timings take ``op_s``'s bound in ``--check-repeat``; the amplification
#: ratios must repeat exactly; the store copy is reported only.
EXTRA_UNITS = {"ckpt_stall_s": "s", "recover_s": "s", "copy_s": "s",
               "write_amp": "ratio", "space_amp": "ratio"}
EXACT_EXTRAS = ("write_amp", "space_amp")


def _parser(defn: Dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in defn["workloads"]]
    p = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", choices=names,
                   help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=runner.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=defn["run_seconds"],
                   help="how long each workload measures")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: the traced run, reporting per-layer metrics")
    p.add_argument("--check-repeat", action="store_true",
                   help="run the end-to-end set twice and compare")
    p.add_argument("--smoke", action="store_true",
                   help="scaled-down sizes, two repetitions, no timing "
                        "claims")
    p.add_argument("--write-expected", action="store_true",
                   help="record this run's repeating values in expected.json "
                        "instead of comparing with it")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    defn = runner.definition()
    args = _parser(defn).parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.write_expected and (args.smoke or args.trace
                                or args.seed != runner.REFERENCE_SEED):
        print("--write-expected records a full-size, untraced run of every "
              f"workload at seed {runner.REFERENCE_SEED}", file=sys.stderr)
        return 2
    if args.workload:
        return _one(args)
    names = [w["name"] for w in defn["workloads"]]
    first = _all(names, args)
    if first is None:
        return 1
    _report(defn, first, traced=bool(args.trace))
    ok = all(res["correct"] for res, _detail in first.values())
    if args.write_expected and ok:
        _write_expected(first)
    if args.check_repeat:
        second = _all(names, args)
        if second is None:
            return 1
        ok = ok and all(res["correct"] for res, _detail in second.values())
        ok = _compare(defn, first, second) and ok
    return 0 if ok else 1


def _one(args) -> int:
    try:
        measure, import_s = runner.load_measure()
    except runner.NoProgram as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 2
    result, detail = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        import_s, compare_expected=not args.write_expected,
    )
    for line in detail["failures"]:
        print(f"FAILED {args.workload}: {line}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _all(names: List[str], args) -> Optional[Dict[str, Tuple[Dict, Dict]]]:
    """Each workload in a subprocess of its own, run to its end before
    the next starts."""
    out = {}
    for name in names:
        cmd = [sys.executable, "-m", "benchmarks.perf", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.write_expected:
            cmd.append("--write-expected")
        proc = subprocess.run(cmd, cwd=runner.ROOT, capture_output=True,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        if len(lines) < 2 or not lines[-2].startswith("detail "):
            print(f"{name}: no result (exit code {proc.returncode})")
            sys.stderr.write(proc.stderr)
            return None
        out[name] = (json.loads(lines[-1]),
                     json.loads(lines[-2][len("detail "):]))
    return out


def _report(defn: Dict, runs: Dict[str, Tuple[Dict, Dict]],
            traced: bool) -> None:
    bounds = {m["name"]: m["bound"] for m in defn["end_to_end"]}
    for name, (result, detail) in runs.items():
        print(f"== {name} (seed {detail['seed']}, {detail['sizes']} sizes): "
              f"{result['attempted']} operations attempted, "
              f"{result['failed']} failed")
        for metric, mv in result["metrics"].items():
            row = f"  {metric:34s} {mv['value']:>14.6g} {mv['unit']:8s}"
            if not traced:
                row += (f" n={detail['samples'].get(metric, 1):<4d}"
                        f" bound {bounds[metric]:.0%}")
            print(row)
        for metric, value in detail["extras"].items():
            note = " exact" if metric in EXACT_EXTRAS else ""
            print(f"  {metric:34s} {value:>14.6g} {EXTRA_UNITS[metric]:8s}"
                  f" n={detail['samples'].get(metric, 1):<4d}{note}")
        if detail["span_file"]:
            print(f"  spans written to {detail['span_file']}")


def _compare(defn: Dict, first, second) -> bool:
    """Two runs of the same code: every metric of every workload within
    its bound, exact values exactly equal."""
    bounds = {m["name"]: m["bound"] for m in defn["end_to_end"]}
    ok = True
    print("== check-repeat: first, second, relative difference, bound")
    for name in first:
        pairs = [(k, first[name][0]["metrics"][k]["value"],
                  second[name][0]["metrics"][k]["value"], bounds[k])
                 for k in first[name][0]["metrics"]]
        pairs += [(k, v, second[name][1]["extras"][k],
                   0.0 if k in EXACT_EXTRAS else bounds["op_s"])
                  for k, v in first[name][1]["extras"].items()
                  if k != "copy_s"]
        for metric, a, b, bound in pairs:
            diff = abs(b - a) / abs(a)
            good = diff <= bound
            ok = ok and good
            print(f"  {name:16s} {metric:14s} {a:>12.6g} {b:>12.6g} "
                  f"{diff:>8.2%} {bound:>6.0%} {'ok' if good else 'DISAGREE'}")
        same = (first[name][1]["repeats"]["exact"]
                == second[name][1]["repeats"]["exact"])
        ok = ok and same
        print(f"  {name:16s} exact values   "
              f"{'identical' if same else 'DIFFER'}")
    return ok


def _write_expected(runs: Dict[str, Tuple[Dict, Dict]]) -> None:
    doc = {
        "seed": runner.REFERENCE_SEED,
        "environment": runner.environment(),
        "workloads": {name: detail["repeats"]
                      for name, (_res, detail) in runs.items()},
    }
    with open(runner.HERE / "expected.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"expected.json rewritten for seed {runner.REFERENCE_SEED}")

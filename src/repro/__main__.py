"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        run a proxy application (optionally under MANA, optionally
           preempting it at an iteration)
restart    cold-restart a job from a checkpoint directory, optionally
           under a different MPI implementation and/or onto a different
           rank count (``--ranks N`` repartitions N-rank images
           elastically)
report     regenerate one (or all) of the paper's tables/figures
           (``--jobs N`` fans independent cases across N workers)
faults     seeded fault-injection scenario sweep (crash / corruption /
           chunk rot / disk-full / coordinator stall -> supervised
           self-healing)
smoke      the CI gate, one section or all four in this order:
           ``fault`` (acceptance scenario twice: self-heals, recovery
           trace deterministic), ``elastic`` (shrink 8->4, grow 4->8 and
           cross-impl restores, each bit-identical to a cold run at the
           post-restore size), ``crash`` (kill the checkpoint store at a
           deterministic subset of syscall-boundary crash points; every
           kill leaves it restorable or fsck-repairable, nothing
           leaked), ``perf`` (BENCHMARK.json's command with --smoke)
fsck       check (and with --repair, fix) a checkpoint directory after
           a dirty shutdown: journal replay, stray-tmp sweep, chunk
           quarantine, orphan reclamation
apps       list the available proxy applications
impls      list the simulated MPI implementations and their properties
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

from repro.apps import APP_CLASSES
from repro.impls import IMPLS

# ``report``'s experiments (repro.harness.experiments), in ``all`` order,
# each with how it is called: "fixed" takes no arguments, "scaled" takes
# (scale, ranks_cap), "cached" adds the shared CaseCache and "figure"
# also fans its cases across ``--jobs`` workers.
EXPERIMENTS = {
    "table1": "fixed", "table2": "fixed", "figure2": "figure",
    "figure3": "figure", "figure4": "figure", "section63": "cached",
    "table3": "scaled", "cross_impl_restart": "fixed",
    "restart_analysis": "fixed", "overhead_breakdown": "fixed",
    "ablation_ggid": "fixed", "ablation_vid_lookup": "fixed",
}


def _cmd_run(args) -> int:
    from repro import JobConfig, Launcher

    cls = APP_CLASSES[args.app]
    spec = cls.paper_config(args.platform)
    if args.ranks:
        spec = replace(spec, nranks=args.ranks)
    if args.blocks:
        spec = replace(spec, blocks=args.blocks)
    cfg = JobConfig(
        nranks=spec.nranks,
        impl=args.impl,
        platform=args.platform,
        mana=args.mana or args.preempt_at is not None,
        vid_design=args.vid_design,
        ckpt_dir=args.ckpt_dir,
        ckpt_interval=args.ckpt_interval,
        loop_lag_window=args.lag_window,
    )
    job = Launcher(cfg).launch(lambda r: cls(spec))
    ticket = None
    if args.preempt_at is not None:
        ticket = job.checkpoint_at_iteration(
            "main", args.preempt_at, kind="loop", mode="exit"
        )
    job.start()
    if ticket is not None:
        info = ticket.wait()
        print(f"checkpoint generation {info['generation']}: "
              f"{info['mean_bytes_per_rank'] / 1e6:.1f} MB/rank, "
              f"{info['ckpt_time']:.1f} s -> {cfg.ckpt_dir}")
    res = job.wait()
    print(f"status   : {res.status}")
    if res.status == "failed":
        print(res.first_error())
        return 1
    print(f"runtime  : {res.runtime:.2f} virtual s "
          f"({res.config.impl}, mana={cfg.mana})")
    if cfg.mana:
        print(f"crossings: {res.total_cs:,} "
              f"({res.cs_per_second / 1e6:.2f}M CS/s)")
    if cfg.ckpt_dir:
        print(f"ckpt dir : {cfg.ckpt_dir}")
    return 0


def _cmd_restart(args) -> int:
    from repro import JobConfig, Launcher
    from repro.util.errors import RestartError

    cfg = JobConfig(nranks=1, impl="mpich", mana=True,
                    loop_lag_window=args.lag_window)
    launcher = Launcher(cfg)
    try:
        if args.ranks is not None:
            job = launcher.elastic_restart(
                args.ckpt_dir, new_nranks=args.ranks,
                generation=args.generation, impl_override=args.impl,
            )
        else:
            job = launcher.restart(
                args.ckpt_dir, generation=args.generation,
                impl_override=args.impl,
            )
    except RestartError as exc:
        print(f"restart: {exc}")
        return 1
    res = job.run()
    print(f"status : {res.status}")
    if res.status == "failed":
        print(res.first_error())
        return 1
    print(f"runtime: {res.runtime:.2f} virtual s "
          f"(restarted under {job.config.impl} "
          f"on {job.config.nranks} ranks)")
    return 0


def _cmd_report(args) -> int:
    from repro.harness import experiments as E
    from repro.harness.runner import CaseCache

    names = list(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    jobs = args.jobs
    if jobs == 0:
        from repro.harness.parallel import default_jobs

        jobs = default_jobs()
    cache = CaseCache()
    for name in names:
        fn, style = getattr(E, name), EXPERIMENTS[name]
        scaled = (args.scale, args.ranks_cap or None)
        if style == "fixed":
            out = fn()
        elif style == "scaled":
            out = fn(*scaled)
        elif style == "cached":
            out = fn(*scaled, cache)
        else:
            out = fn(*scaled, cache, jobs=jobs)
        print(out["text"])
        print()
    return 0


def _cmd_faults(args) -> int:
    from repro.faults.scenarios import SCENARIOS, run_scenario

    if args.scenario not in ("all", *SCENARIOS):
        args.error(f"argument scenario: invalid choice: {args.scenario!r} "
                   f"(choose from 'all', "
                   f"{', '.join(map(repr, sorted(SCENARIOS)))})")
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    failed = 0
    for name in names:
        out = run_scenario(name, seed=args.seed)
        mark = "ok " if out["ok"] else "FAIL"
        restored = [e["generation"] for e in out.get("events", [])
                    if e.get("event") == "restart"]
        print(f"[{mark}] {name}: status={out['status']} "
              f"restarts={out['restarts']} restored_gens={restored} "
              f"faults_fired={len(out['faults_fired'])}")
        for gen, d in sorted(out.get("dedup", {}).items()):
            print(f"       gen {gen}: {d['chunks_written']} chunks "
                  f"written, {d['chunks_reused']} reused, "
                  f"{d['bytes_written']:,} bytes to disk")
        if args.verbose:
            for ev in out.get("events", []):
                print(f"       event: {ev}")
            for ev in out["faults_fired"]:
                print(f"       fault: {ev['what']}")
            print(f"       checksums: {out['checksums']}")
        if not out["ok"]:
            failed += 1
            print(f"       checksums: {out['checksums']}")
            print(f"       baseline : {out['baseline']['checksums']}")
    if failed:
        print(f"faults: {failed}/{len(names)} scenario(s) FAILED")
        return 1
    print(f"faults: all {len(names)} scenario(s) self-healed "
          f"(seed {args.seed})")
    return 0


def _smoke_fault(args) -> int:
    from repro.faults.scenarios import fault_smoke

    out = fault_smoke(seed=args.seed)
    run = out["run"]
    restored = [e["generation"] for e in run["events"]
                if e["event"] == "restart"]
    print(f"self-heal    : {'ok' if out['self_heal_ok'] else 'FAIL'} "
          f"(status={run['status']}, restarts={run['restarts']}, "
          f"restored_gens={restored})")
    print(f"checksums    : "
          f"{'match fault-free run' if run['matches_baseline'] else 'MISMATCH'}")
    print(f"deterministic: {'ok' if out['deterministic'] else 'FAIL'} "
          f"(recovery trace identical across two seeded runs)")
    if not out["ok"]:
        print("fault-smoke: FAILED")
        return 1
    print("fault-smoke: seeded crash + corruption recovered "
          "deterministically")
    return 0


def _smoke_elastic(args) -> int:
    from repro.faults.scenarios import elastic_smoke

    out = elastic_smoke(seed=args.seed)
    for key, label in (("shrink", "shrink 8->4"),
                       ("grow", "grow 4->8"),
                       ("migrate", "openmpi 8 -> mpich 4")):
        run = out[key]
        match = run["matches_baseline"]
        print(f"{label:22}: {'ok' if run['ok'] else 'FAIL'} "
              f"(status={run['status']}, restarts={run['restarts']}, "
              f"{run['from_nranks']}->{run['to_nranks']} ranks, "
              f"{'bit-identical to cold run' if match else 'MISMATCH'})")
    print(f"{'deterministic':22}: "
          f"{'ok' if out['deterministic'] else 'FAIL'} "
          f"(recovery trace identical across two seeded shrinks)")
    if not out["ok"]:
        print("elastic-smoke: FAILED")
        return 1
    print("elastic-smoke: N->M restores reproduce cold M-rank runs "
          "bit-identically")
    return 0


def _cmd_fsck(args) -> int:
    import os

    from repro.mana.fsck import fsck

    if not os.path.isdir(args.ckpt_dir):
        print(f"fsck: no such directory: {args.ckpt_dir}")
        return 2
    report = fsck(args.ckpt_dir, repair=args.repair)
    print(report.summary())
    if args.verbose or not args.repair:
        for rec in report.pending_records:
            print(f"  pending journal record: {rec}")
        for gen, problems in sorted(report.skipped_generations.items()):
            for p in problems:
                print(f"  generation {gen} not restorable: {p}")
        for digest in report.quarantined_chunks:
            print(f"  quarantined chunk {digest[:12]}…")
        for digest in report.missing_chunks:
            print(f"  missing chunk {digest[:12]}…")
    if not args.repair and report.dirty:
        print("fsck: directory is dirty (run with --repair to fix)")
        return 1
    return 0


def _smoke_crash(args) -> int:
    import tempfile

    from repro.faults.crashsweep import run_sweep

    # Determinism: the sweep's per-point verdicts must be bit-identical
    # across two runs (fresh directories each time).
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(
            prefix="repro-crash-smoke-", ignore_cleanup_errors=True
        ) as workdir:
            runs.append(run_sweep(workdir, limit=args.points))
    out = runs[0]
    deterministic = out["results"] == runs[1]["results"]
    contexts = ", ".join(out["contexts"])
    print(f"crash points : {out['points_total']} enumerated across "
          f"contexts [{contexts}]; {out['points_checked']} killed")
    for r in out["failures"]:
        print(f"[FAIL] {r['point']}: {'; '.join(r['problems'])}")
    print(f"restore/repair: "
          f"{'ok' if out['ok'] else 'FAIL'} (every kill left the store "
          f"restorable or fsck-repairable, zero leaks)")
    print(f"deterministic : {'ok' if deterministic else 'FAIL'} "
          f"(verdicts identical across two runs)")
    if not out["ok"] or not deterministic:
        print("crash-smoke: FAILED")
        return 1
    print("crash-smoke: store survives syscall-boundary kills")
    return 0


def _smoke_perf(_args) -> Optional[int]:
    """The repo's benchmark, scaled down to its correctness checks.  It
    lives in the source checkout, not in the package: None (skipped)
    when this module was not loaded from one."""
    import json
    import os
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            command = json.load(f)["command"]
    except FileNotFoundError:
        print(f"perf-smoke: skipped (no BENCHMARK.json in {root}: "
              f"not a source checkout)")
        return None
    sys.stdout.flush()
    rc = subprocess.run(command + ["--smoke"], cwd=root).returncode
    print("perf-smoke: FAILED" if rc else
          "perf-smoke: benchmark workloads pass their checks")
    return rc


_SMOKES = {"fault": _smoke_fault, "elastic": _smoke_elastic,
           "crash": _smoke_crash, "perf": _smoke_perf}


def _cmd_smoke(args) -> int:
    if args.section is not None:
        return _SMOKES[args.section](args) or 0
    verdicts = {name: fn(args) for name, fn in _SMOKES.items()}
    words = {0: "ok", None: "skipped"}
    print("smoke: " + ", ".join(f"{name} {words.get(rc, 'FAILED')}"
                                for name, rc in verdicts.items()))
    return 1 if any(verdicts.values()) else 0


def _cmd_apps(_args) -> int:
    from repro.apps import EXAMPI_COMPATIBLE

    print(f"{'app':10} {'ranks':>5} {'input':30} {'exampi?':>8}")
    for name, cls in sorted(APP_CLASSES.items()):
        spec = cls.paper_config()
        ok = "yes" if name in EXAMPI_COMPATIBLE else "no"
        print(f"{name:10} {spec.nranks:5} {spec.input_label:30} {ok:>8}")
    return 0


def _cmd_impls(_args) -> int:
    from repro.fabric.network import Fabric
    from repro.simtime.clock import VirtualClock
    from repro.simtime.cost import CostModel

    print(f"{'impl':10} {'handle bits':>11} {'unsupported fns':>16}")
    for name, cls in sorted(IMPLS.items()):
        lib = cls(Fabric(1, CostModel.discovery()), 0, VirtualClock(),
                  CostModel.discovery())
        print(f"{name:10} {lib.handles.handle_bits:11} "
              f"{len(cls.UNSUPPORTED):16}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a proxy application")
    p.add_argument("app", choices=list(APP_CLASSES))
    p.add_argument("--impl", default="mpich", choices=list(IMPLS))
    p.add_argument("--platform", default="discovery",
                   choices=["discovery", "perlmutter"])
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--mana", action="store_true")
    p.add_argument("--vid-design", default="new", choices=["new", "legacy"])
    p.add_argument("--ckpt-dir", default=None)
    p.add_argument("--ckpt-interval", type=float, default=None,
                   help="periodic checkpoints every N virtual seconds")
    p.add_argument("--preempt-at", type=int, default=None,
                   help="checkpoint+exit when the main loop reaches this "
                        "iteration (implies --mana)")
    p.add_argument("--lag-window", type=int, default=4)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("restart", help="cold-restart from a checkpoint dir")
    p.add_argument("ckpt_dir")
    p.add_argument("--generation", type=int, default=None)
    p.add_argument("--impl", default=None, choices=list(IMPLS),
                   help="restart under a different MPI implementation")
    p.add_argument("--ranks", type=int, default=None,
                   help="elastic restart: repartition the checkpointed "
                        "upper halves onto this many ranks")
    p.add_argument("--lag-window", type=int, default=4)
    p.set_defaults(fn=_cmd_restart)

    p = sub.add_parser("report", help="regenerate paper tables/figures")
    p.add_argument("experiment", nargs="?", default="all",
                   choices=["all", *EXPERIMENTS])
    p.add_argument("--scale", type=float, default=0.12)
    p.add_argument("--ranks-cap", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1,
                   help="run independent figure cases across N worker "
                        "processes (0 = all available CPUs)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "faults",
        help="seeded fault-injection sweep with supervised self-healing",
    )
    p.add_argument("scenario", nargs="?", default="all",
                   help="one scenario of repro.faults.scenarios.SCENARIOS "
                        "(default: all)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_faults, error=p.error)

    p = sub.add_parser(
        "smoke",
        help="CI gate: fault, elastic, crash and perf smokes (default: all)",
    )
    p.add_argument("section", nargs="?", default=None, choices=list(_SMOKES))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--points", type=int, default=24,
                   help="number of crash points to kill (deterministic "
                        "subset; 0 = exhaustive)")
    p.set_defaults(fn=_cmd_smoke)

    p = sub.add_parser(
        "fsck",
        help="check/repair a checkpoint directory after a dirty shutdown",
    )
    p.add_argument("ckpt_dir")
    p.add_argument("--repair", action="store_true",
                   help="fix what the check finds (default: report only, "
                        "exit 1 if dirty)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_fsck)

    p = sub.add_parser("apps", help="list proxy applications")
    p.set_defaults(fn=_cmd_apps)

    p = sub.add_parser("impls", help="list MPI implementations")
    p.set_defaults(fn=_cmd_impls)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

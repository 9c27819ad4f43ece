"""One function per paper experiment (DESIGN.md §3 index), and
``EXPERIMENTS``, the one registry ``python -m repro report`` and the
tier-1 shape tests (``tests/test_paper_shapes.py``) both run them through.

Each returns a dict with ``"data"`` (structured results, consumed by the
shape tests) and ``"text"`` (the rendered table/figure).  Paper
reference values are carried alongside so EXPERIMENTS.md and the report
output can show paper-vs-measured in one place.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, Optional

import numpy as np

from repro.apps import APP_CLASSES
from repro.harness.report import render_bar_figure, render_table
from repro.harness.runner import CaseCache, scaled_spec
from repro.runtime import JobConfig, Launcher
from repro.util.errors import IncompatibleHandleError, ReproError

FIG2_APPS = ("comd", "hpcg", "lammps", "lulesh", "sw4")
# The paper's Figure 3 subset (of its five benchmark applications).
FIG3_APPS = ("comd", "lammps", "lulesh")
FIG4_APPS = ("comd", "lammps", "sw4")

#: §6.3 measured context switches per second (job aggregate) and ranks.
PAPER_CS_RATES = {
    "comd": (3.7e6, 27),
    "hpcg": (4.7e6, 56),
    "lammps": (22.9e6, 56),
    "lulesh": (1.3e6, 27),
    "sw4": (12.5e6, 56),
}

#: Table 3 (Discovery, NFSv3).
PAPER_TABLE3 = {
    "comd": (32, 8.9, 3.6),
    "lammps": (42, 12.8, 3.3),
    "sw4": (49, 12.3, 4.0),
    "lulesh": (207, 16.3, 12.7),
    "hpcg": (934, 72.9, 12.8),
}


# ----------------------------------------------------------------------
# input tables
# ----------------------------------------------------------------------

def _input_table(platform: str, apps, title: str) -> Dict:
    rows = []
    for name in apps:
        spec = APP_CLASSES[name].paper_config(platform)
        rows.append((name.upper() if name != "comd" else "CoMD",
                     spec.nranks, spec.input_label))
    text = render_table(title, ("App.", "Ranks", "Input"), rows)
    return {"data": rows, "text": text}


def table1() -> Dict:
    """Table 1: input for each application on a single node (Discovery)."""
    return _input_table(
        "discovery", FIG2_APPS,
        "Table 1 — Input for each application on a single node (Discovery)",
    )


def table2() -> Dict:
    """Table 2: input for each application on Perlmutter."""
    return _input_table(
        "perlmutter", FIG4_APPS,
        "Table 2 — Input for each application on Perlmutter",
    )


# ----------------------------------------------------------------------
# figures 2-4: runtimes
# ----------------------------------------------------------------------

def _runtime_figure(
    apps,
    cases,
    platform: str,
    scale: float,
    ranks_cap: Optional[int],
    cache: Optional[CaseCache],
    title: str,
    note: str,
    jobs: Optional[int] = None,
) -> Dict:
    # One trial per bar (the noise seed is fixed, so the value is exact);
    # the paper's medians of 10 / 25 trials are run_case(trials=N).
    cache = cache or CaseCache()
    if jobs is not None and jobs > 1:
        # Fill the cache for the whole sweep in parallel; the rendering
        # loop below then sees pure (ordered, deterministic) cache hits.
        cache.prefetch(
            [
                dict(
                    app_name=app, impl=impl, mana=mana, vid_design=vid,
                    platform=platform, scale=scale, ranks_cap=ranks_cap,
                )
                for app in apps
                for (impl, mana, vid) in cases
            ],
            jobs=jobs,
        )
    values: Dict[str, Dict[str, Optional[float]]] = {}
    results: Dict[str, Dict[str, Optional[object]]] = {}
    for app in apps:
        values[app] = {}
        results[app] = {}
        for (impl, mana, vid) in cases:
            label = _case_label(impl, mana, vid)
            try:
                r = cache.get(
                    app_name=app, impl=impl, mana=mana, vid_design=vid,
                    platform=platform, scale=scale, ranks_cap=ranks_cap,
                )
                values[app][label] = r.runtime
                results[app][label] = r
            except IncompatibleHandleError:
                # The legacy design cannot run on pointer-handle MPIs —
                # the paper's motivating failure, kept visible.
                values[app][label] = None
                results[app][label] = None
    series = [_case_label(*c) for c in cases]
    text = render_bar_figure(
        title,
        groups=list(apps),
        series=series,
        values=values,
        unit="s",
        normalize_to=series[0],
        note=note,
    )
    return {"data": results, "values": values, "series": series,
            "text": text}


def _case_label(impl: str, mana: bool, vid: str) -> str:
    """A case's series name; also names the cases that raised."""
    if not mana:
        return f"native/{impl}"
    return f"{'mana+vid' if vid == 'new' else 'mana'}/{impl}"


def figure2(scale: float = 0.2, ranks_cap: Optional[int] = 16,
            cache: Optional[CaseCache] = None,
            jobs: Optional[int] = None) -> Dict:
    """Figure 2: five cases on MPICH and Open MPI (Discovery, prctl)."""
    cases = [
        ("mpich", False, "new"),
        ("mpich", True, "legacy"),   # "MANA": the previous production code
        ("mpich", True, "new"),      # "MANA+virtId"
        ("openmpi", False, "new"),
        ("openmpi", True, "new"),
    ]
    out = _runtime_figure(
        FIG2_APPS, cases, "discovery", scale, ranks_cap, cache,
        "Figure 2 — Application runtimes, MPICH vs Open MPI "
        "(Discovery; no userspace FSGSBASE)",
        "Paper shape: overhead tracks MPI-call rate (LAMMPS worst: +32% "
        "MPICH / +37% OpenMPI; SW4 +15%/+18%; CoMD/HPCG/LULESH low); "
        "virtId ~= legacy MANA or slightly faster on MPICH; legacy MANA "
        "cannot run Open MPI at all.",
        jobs=jobs,
    )
    return out


def figure3(scale: float = 0.2, ranks_cap: Optional[int] = 16,
            cache: Optional[CaseCache] = None,
            jobs: Optional[int] = None) -> Dict:
    """Figure 3: ExaMPI (compatible subset) vs MPICH (Discovery)."""
    cases = [
        ("mpich", False, "new"),
        ("mpich", True, "legacy"),
        ("mpich", True, "new"),
        ("exampi", False, "new"),
        ("exampi", True, "new"),
    ]
    return _runtime_figure(
        FIG3_APPS, cases, "discovery", scale, ranks_cap, cache,
        "Figure 3 — Runtimes for ExaMPI on Discovery "
        "(ExaMPI-compatible applications)",
        "Paper shape: MANA+virtId runs ExaMPI (previously impossible); "
        "overhead comparable to MPICH, slightly higher (slower network "
        "software path lengthens MANA's polling).",
        jobs=jobs,
    )


def figure4(scale: float = 0.2, ranks_cap: Optional[int] = 16,
            cache: Optional[CaseCache] = None,
            jobs: Optional[int] = None) -> Dict:
    """Figure 4: Cray MPI on Perlmutter (userspace FSGSBASE present)."""
    cases = [
        ("craympi", False, "new"),
        ("craympi", True, "legacy"),
        ("craympi", True, "new"),
    ]
    return _runtime_figure(
        FIG4_APPS, cases, "perlmutter", scale, ranks_cap, cache,
        "Figure 4 — Runtimes for Cray MPI on Perlmutter (FSGSBASE)",
        "Paper shape: with userspace FSGSBASE the large overheads "
        "disappear (~5% or less: LAMMPS 5.4%, SW4 5.5% -> 4.2% with "
        "virtId).",
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# §6.3: context switches
# ----------------------------------------------------------------------

def section63(scale: float = 0.2, ranks_cap: Optional[int] = 16,
              cache: Optional[CaseCache] = None) -> Dict:
    """Context-switch rates per application under MANA (Discovery)."""
    cache = cache or CaseCache()
    rows = []
    data = {}
    for app in FIG2_APPS:
        r = cache.get(
            app_name=app, impl="mpich", mana=True, vid_design="new",
            platform="discovery", scale=scale, ranks_cap=ranks_cap,
        )
        paper_rate, paper_ranks = PAPER_CS_RATES[app]
        # Scale the job-aggregate paper number to the per-rank rate the
        # calibration targets; compare against measured per-rank rate.
        measured_per_rank = r.cs_per_second / r.nranks
        paper_per_rank = paper_rate / paper_ranks
        data[app] = {
            "measured_cs_per_rank_s": measured_per_rank,
            "paper_cs_per_rank_s": paper_per_rank,
            "measured_total": r.cs_per_second,
        }
        rows.append(
            (
                app,
                f"{r.cs_per_second / 1e6:.2f}M",
                f"{measured_per_rank / 1e3:.0f}k",
                f"{paper_per_rank / 1e3:.0f}k",
                f"{measured_per_rank / paper_per_rank:.2f}x",
            )
        )
    text = render_table(
        "Section 6.3 — context switches per second under MANA (Discovery)",
        ("App", "CS/s (job)", "CS/s/rank", "paper CS/s/rank", "ratio"),
        rows,
        note="Paper (job aggregate): CoMD 3.7M @27r, HPCG 4.7M @56r, "
        "LAMMPS 22.9M @56r, LULESH 1.3M @27r, SW4 12.5M @56r.",
    )
    return {"data": data, "text": text}


# ----------------------------------------------------------------------
# Table 3: checkpoint sizes/times
# ----------------------------------------------------------------------

def table3(scale: float = 0.15, ranks_cap: Optional[int] = 12) -> Dict:
    """Checkpoint image size/time/bandwidth per application (NFSv3)."""
    rows = []
    data = {}
    for app in FIG2_APPS:
        cls = APP_CLASSES[app]
        spec = scaled_spec(app, "discovery", scale, ranks_cap)
        with tempfile.TemporaryDirectory(prefix=f"t3-{app}-") as ckdir:
            cfg = JobConfig(
                nranks=spec.nranks, impl="mpich", platform="discovery",
                mana=True, ckpt_dir=ckdir,
            )
            job = Launcher(cfg).launch(lambda r: cls(spec))
            tk = job.checkpoint_at_iteration("main", max(2, spec.blocks // 2))
            job.start()
            info = tk.wait(300)
            res = job.wait(300)
        if res.status != "completed":
            raise ReproError(f"table3 {app}: {res.first_error()}")
        # Use the paper's rank count for the filesystem model, so the
        # aggregate-bandwidth contention matches Table 3's setting even
        # when the simulation runs fewer ranks.
        from repro.simtime.cost import FilesystemProfile, checkpoint_time

        paper_spec = cls.paper_config("discovery")
        fs = FilesystemProfile.discovery_nfsv3()
        size = info["mean_bytes_per_rank"]
        t = checkpoint_time(fs, paper_spec.nranks, int(size))
        mbps = size / t / 1e6
        psize, ptime, pmbps = PAPER_TABLE3[app]
        data[app] = {
            "size_mb": size / 1e6,
            "ckpt_time": t,
            "mb_per_s_per_rank": mbps,
            "paper": {"size_mb": psize, "ckpt_time": ptime, "mbps": pmbps},
        }
        rows.append(
            (
                app,
                f"{size / (1024 * 1024):.0f}MB",
                f"{t:.1f}",
                f"{mbps:.1f}",
                f"{psize}MB",
                f"{ptime}",
                f"{pmbps}",
            )
        )
    text = render_table(
        "Table 3 — Checkpoint times on Discovery (NFSv3 model)",
        ("App", "Ckpt size/rank", "Ckpt time", "MB/s/rank",
         "paper size", "paper time", "paper MB/s"),
        rows,
        note="Shape under test: MB/s/rank RISES with image size (fixed "
        "per-checkpoint overhead amortizes).",
    )
    return {"data": data, "text": text}


# ----------------------------------------------------------------------
# cross-implementation restart (§3.6 of [GPC19] + §9 future work)
# ----------------------------------------------------------------------

def cross_impl_restart(scale: float = 0.3) -> Dict:
    """Checkpoint under one MPI implementation, restart under another.

    Stage 1 (the historically demonstrated case): the GROMACS
    primitives-only proxy, MPICH -> Open MPI.
    Stage 2 (the §9 future-work case, possible with the new virtual-id
    design): CoMD — which creates communicators and datatypes — across
    MPICH -> Open MPI -> ExaMPI.
    """
    results = []
    for app_name, chain in (
        ("gromacs", ["mpich", "openmpi"]),
        ("comd", ["mpich", "openmpi", "exampi"]),
    ):
        with tempfile.TemporaryDirectory(prefix=f"cross-{app_name}-") as ckdir:
            results.append(_cross_chain(app_name, chain, scale, ckdir))
    rows = [
        (r["app"], " -> ".join(r["chain"]),
         "yes" if r["match"] else "NO",
         "yes" if r["bitwise_equal"] else "no")
        for r in results
    ]
    text = render_table(
        "Cross-implementation restart ([GPC19] §3.6 + §9 future work)",
        ("App", "Checkpoint/restart chain", "Result matches", "Bitwise"),
        rows,
        note="gromacs = primitives-only (the historically demonstrated "
        "case); comd creates communicators and derived datatypes (the "
        "full interoperability the new virtual-id design enables).",
    )
    return {"data": results, "text": text}


def _cross_chain(app_name: str, chain, scale: float, ckdir: str) -> Dict:
    """Checkpoint ``app_name`` under ``chain[0]`` in ``ckdir``, restart it
    under each later implementation in turn, and compare the final state
    with an uninterrupted run."""
    cls = APP_CLASSES[app_name]
    spec = scaled_spec(app_name, "discovery", scale, ranks_cap=8)
    # The baseline takes no checkpoint; it only needs a directory for
    # the store every MANA job opens.
    baseline = Launcher(
        JobConfig(nranks=spec.nranks, impl=chain[0], mana=True,
                  ckpt_dir=ckdir)
    ).run(lambda r: cls(spec), timeout=300)
    if baseline.status != "completed":
        raise ReproError(f"{app_name} baseline: {baseline.first_error()}")
    expect = [a.checksum for a in baseline.apps()]

    # These proxies allreduce every block, so rank skew is tiny: a
    # short lag window keeps the elected iteration inside the run.
    cfg = JobConfig(nranks=spec.nranks, impl=chain[0], mana=True,
                    ckpt_dir=ckdir, loop_lag_window=2)
    job = Launcher(cfg).launch(lambda r: cls(spec))
    tk = job.checkpoint_at_iteration(
        "main", max(1, spec.blocks // 3), kind="loop", mode="exit"
    )
    job.start()
    tk.wait(300)
    res = job.wait(300)
    if res.status != "preempted":
        raise ReproError(f"{app_name} preemption: {res.first_error()}")

    for next_impl in chain[1:]:
        job2 = Launcher(cfg).restart(ckdir, impl_override=next_impl)
        # Mid-chain hops re-checkpoint; the final hop runs to the end.
        final = next_impl == chain[-1]
        if not final:
            tk2 = job2.coordinator.checkpoint_at_iteration(
                "main", max(2, 2 * spec.blocks // 3),
                kind="loop", mode="exit",
            )
        job2.start()
        if not final:
            tk2.wait(300)
        res2 = job2.wait(300)
        want = "completed" if final else "preempted"
        if res2.status != want:
            raise ReproError(
                f"{app_name} restart under {next_impl}: "
                f"{res2.status}: {res2.first_error()}"
            )
    got = [a.checksum for a in res2.apps()]
    if not np.allclose(got, expect):
        raise ReproError(
            f"{app_name} cross-impl result mismatch: {got} != {expect}"
        )
    return {"app": app_name, "chain": list(chain),
            "bitwise_equal": got == expect, "match": True}


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------

def ablation_ggid(churn: int = 200, nranks: int = 8) -> Dict:
    """§9: eager vs lazy vs hybrid ggid policy under communicator churn.

    Some codes create and free communicators in a loop; eager ggid pays
    the membership hash at every create, lazy defers everything to
    checkpoint time, hybrid caches by membership.
    """
    from repro.runtime import MpiApplication

    class CommChurn(MpiApplication):
        name = "comm-churn"

        def __init__(self, churn: int):
            self.churn = churn
            self.created = 0

        def run(self, ctx) -> None:
            MPI = ctx.MPI
            for it in ctx.loop("main", self.churn):
                sub = MPI.comm_split(
                    MPI.COMM_WORLD, ctx.rank % 2, ctx.rank
                )
                MPI.barrier(sub)
                MPI.comm_free(sub)
                self.created += 1

    data = {}
    for policy in ("eager", "lazy", "hybrid"):
        with tempfile.TemporaryDirectory(prefix="ggid-") as ckdir:
            cfg = JobConfig(nranks=nranks, impl="mpich", mana=True,
                            ggid_policy=policy, ckpt_dir=ckdir)
            res = Launcher(cfg).run(lambda r: CommChurn(churn), timeout=300)
        if res.status != "completed":
            raise ReproError(f"ggid {policy}: {res.first_error()}")
        ggid_time = max(
            r.accounts.get("mana-ggid", 0.0) for r in res.ranks
        )
        data[policy] = {"runtime": res.runtime, "ggid_seconds": ggid_time}
    rows = [
        (p, f"{d['runtime']:.4f}", f"{d['ggid_seconds'] * 1e3:.3f}ms")
        for p, d in data.items()
    ]
    text = render_table(
        f"Ablation — ggid policy under communicator churn "
        f"({churn} create/free cycles, {nranks} ranks)",
        ("policy", "runtime (s)", "ggid hash time"),
        rows,
        note="§9: 'because some codes repeatedly create and free "
        "communicators in a loop, we are considering a lazy or hybrid "
        "policy.'  Lazy/hybrid eliminate per-create hashing.",
    )
    return {"data": data, "text": text}


def ablation_vid_lookup(n: int = 20000) -> Dict:
    """§4.1: translation cost, legacy string-maps vs new single table.

    Measures (a) real wall-clock per lookup in this implementation
    (``n`` forward and up to 2,000 reverse lookups per design) and
    (b) the modeled per-call cost difference that produces the up-to-1.6%
    LAMMPS improvement of §6.1.
    """
    from repro.mana.legacy import LegacyVirtualIdMaps
    from repro.mana.records import GroupRecord
    from repro.mana.virtid import VirtualIdTable
    from repro.mpi.api import HandleKind
    from repro.simtime.cost import ManaCostProfile

    # Each design's cost is its fastest of five timed rounds, so one
    # round the OS preempts cannot make the faster design look slower.
    rounds = 5
    lookups, reverses = n // rounds, min(n, 2000) // rounds
    data = {}
    for design, table in (
        ("new", VirtualIdTable(32)),
        ("legacy", LegacyVirtualIdMaps(32)),
    ):
        handles = [
            table.attach(HandleKind.GROUP, GroupRecord((i,)), 1000 + i)
            for i in range(64)
        ]
        per_lookup = per_reverse = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for i in range(lookups):
                table.lookup(handles[i % 64], HandleKind.GROUP)
            t1 = time.perf_counter()
            for i in range(reverses):  # reverse translation
                table.vid_of_phys(HandleKind.GROUP, 1000 + (i % 64))
            t2 = time.perf_counter()
            per_lookup = min(per_lookup, (t1 - t0) / lookups)
            per_reverse = min(per_reverse, (t2 - t1) / reverses)
        data[design] = {
            "wall_per_lookup_ns": per_lookup * 1e9,
            "wall_per_reverse_ns": per_reverse * 1e9,
        }
    prof = ManaCostProfile()
    lam_rate = PAPER_CS_RATES["lammps"][0] / PAPER_CS_RATES["lammps"][1]
    modeled_gain = (prof.vid_cost_legacy - prof.vid_cost_new) * lam_rate
    data["modeled"] = {
        "vid_cost_new_ns": prof.vid_cost_new * 1e9,
        "vid_cost_legacy_ns": prof.vid_cost_legacy * 1e9,
        "lammps_runtime_gain": modeled_gain,
    }
    rows = [
        (
            d,
            f"{data[d]['wall_per_lookup_ns']:.0f}ns",
            f"{data[d]['wall_per_reverse_ns']:.0f}ns",
        )
        for d in ("new", "legacy")
    ]
    text = render_table(
        "Ablation — virtual-id translation cost (old vs new design)",
        ("design", "lookup (measured)", "reverse (measured)"),
        rows,
        note=f"Modeled per-call gap {prof.vid_cost_legacy * 1e9:.0f}ns -> "
        f"{prof.vid_cost_new * 1e9:.0f}ns; at LAMMPS' call rate this is "
        f"a {modeled_gain * 100:.1f}% runtime improvement (paper §6.1: "
        f"'up to 1.6%').",
    )
    return {"data": data, "text": text}


def overhead_breakdown(scale: float = 0.15, ranks_cap: Optional[int] = 8) -> Dict:
    """EXTENSION: decompose each application's MANA runtime.

    Accounts per rank (max over ranks): declared compute, MPI library
    software path, communication idle (waiting on peers), and MANA's
    wrapper overhead.  This is the quantitative version of the paper's
    §6.3 argument: overhead variation across applications is explained by
    the wrapper-crossing account, which scales with MPI-call rate.
    """
    rows = []
    data = {}
    for app in FIG2_APPS:
        cls = APP_CLASSES[app]
        spec = scaled_spec(app, "discovery", scale, ranks_cap)
        with tempfile.TemporaryDirectory(prefix=f"breakdown-{app}-") as ckdir:
            cfg = JobConfig(nranks=spec.nranks, impl="mpich", mana=True,
                            ckpt_dir=ckdir)
            res = Launcher(cfg).run(lambda r: cls(spec), timeout=600)
        if res.status != "completed":
            raise ReproError(f"breakdown {app}: {res.first_error()}")
        slowest = max(res.ranks, key=lambda r: r.runtime)
        acc = slowest.accounts
        total = slowest.runtime
        breakdown = {
            "compute": acc.get("compute", 0.0),
            "mana_overhead": acc.get("mana-overhead", 0.0),
            "idle": acc.get("idle", 0.0),
            "mpi_lib": acc.get("mpi-lib", 0.0),
            "other": total - sum(
                acc.get(k, 0.0)
                for k in ("compute", "mana-overhead", "idle", "mpi-lib")
            ),
            "total": total,
        }
        data[app] = breakdown
        rows.append(
            (
                app,
                f"{total:.1f}",
                f"{breakdown['compute'] / total:.1%}",
                f"{breakdown['mana_overhead'] / total:.1%}",
                f"{breakdown['idle'] / total:.1%}",
            )
        )
    text = render_table(
        "Extension — MANA runtime decomposition (Discovery, MPICH)",
        ("App", "runtime (s)", "compute", "mana overhead", "idle"),
        rows,
        note="The mana-overhead share orders exactly like the §6.3 "
        "context-switch rates: the wrapper crossing cost IS the overhead.",
    )
    return {"data": data, "text": text}


def restart_analysis(scale: float = 0.15, ranks_cap: Optional[int] = 8) -> Dict:
    """EXTENSION (not a paper table): restart time vs image size.

    The paper reports checkpoint times (Table 3) but not restart times;
    this extension measures the symmetric quantity under the same NFSv3
    model: restart = image read (size-dependent) + object replay
    (MPI-call dependent).  Expected shape: dominated by image size, with
    the same fixed-cost amortization as Table 3.
    """
    rows = []
    data = {}
    for app in FIG2_APPS:
        cls = APP_CLASSES[app]
        spec = scaled_spec(app, "discovery", scale, ranks_cap)
        with tempfile.TemporaryDirectory(prefix=f"restart-{app}-") as ckdir:
            cfg = JobConfig(
                nranks=spec.nranks, impl="mpich", platform="discovery",
                mana=True, ckpt_dir=ckdir, loop_lag_window=2,
            )
            job = Launcher(cfg).launch(lambda r: cls(spec))
            tk = job.checkpoint_at_iteration(
                "main", max(1, spec.blocks // 2), kind="loop", mode="exit"
            )
            job.start()
            info = tk.wait(300)
            res = job.wait(300)
            if res.status != "preempted":
                raise ReproError(
                    f"restart_analysis {app}: {res.first_error()}"
                )
            res2 = Launcher(cfg).restart(ckdir).run(timeout=300)
        if res2.status != "completed":
            raise ReproError(f"restart_analysis {app}: {res2.first_error()}")
        restart_time = max(
            r.accounts.get("restart", 0.0) for r in res2.ranks
        )
        size_mb = info["mean_bytes_per_rank"] / 1e6
        data[app] = {
            "size_mb": size_mb,
            "restart_time": restart_time,
            "ckpt_time": info["ckpt_time"],
        }
        rows.append(
            (app, f"{size_mb:.0f}MB", f"{info['ckpt_time']:.1f}",
             f"{restart_time:.1f}")
        )
    rows.sort(key=lambda r: float(r[1][:-2]))
    text = render_table(
        "Extension — restart time vs image size (Discovery NFSv3 model)",
        ("App", "Image/rank", "Ckpt time (s)", "Restart time (s)"),
        rows,
        note="Not a paper table: the paper reports checkpoint times only; "
        "restart shows the same fixed-cost amortization shape.",
    )
    return {"data": data, "text": text}


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

#: ``report``'s default scale: 12 % of the paper's loop blocks, ranks
#: capped at 8.  Per-rank call rates, and so the overhead shapes, do not
#: depend on either (``repro/apps/base.py``).
SCALE, RANKS_CAP = 0.12, 8

#: Every experiment, in ``report all`` order, with how it is called:
#: "fixed" takes no arguments, "scaled" takes (scale, ranks_cap),
#: "cached" adds the shared CaseCache and "figure" also fans its cases
#: across ``jobs`` workers.
EXPERIMENTS = {
    "table1": "fixed", "table2": "fixed", "figure2": "figure",
    "figure3": "figure", "figure4": "figure", "section63": "cached",
    "table3": "scaled", "cross_impl_restart": "fixed",
    "restart_analysis": "fixed", "overhead_breakdown": "fixed",
    "ablation_ggid": "fixed", "ablation_vid_lookup": "fixed",
}


def run_experiment(name: str, scale: float = SCALE,
                   ranks_cap: Optional[int] = RANKS_CAP,
                   cache: Optional[CaseCache] = None,
                   jobs: Optional[int] = None) -> Dict:
    """Run one experiment of ``EXPERIMENTS`` the way ``report`` does
    (``ranks_cap=None`` runs the paper's rank counts).  Pass one
    ``cache`` to several calls to share the figures' cases."""
    fn, style = globals()[name], EXPERIMENTS[name]
    if style == "fixed":
        return fn()
    if style == "scaled":
        return fn(scale, ranks_cap)
    if style == "cached":
        return fn(scale, ranks_cap, cache)
    return fn(scale, ranks_cap, cache, jobs=jobs)

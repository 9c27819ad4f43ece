"""The five workloads: what one set-up and one repetition of each does.

A workload object is made once per process.  ``setup()`` may be called
several times (its cost is the ``setup_s`` metric); ``repetition()`` is the
timed unit.  A repetition returns timing samples, values that must repeat
exactly, and — for the traced run — raw per-layer measurements; it counts
every operation and correctness check it makes in a :class:`Checks`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from statistics import median
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps import APP_CLASSES
from repro.faults import CrashPointInjector, FaultInjector, FaultPlan
from repro.harness.experiments import figure2, figure3, figure4
from repro.harness.runner import CaseCache
from repro.mana import storeio
from repro.mana.checkpoint import latest_restorable_generation
from repro.mana.fsck import fsck
from repro.mana.journal import Journal
from repro.runtime import JobConfig, Launcher
from repro.util.errors import InjectedCrash, InjectedFault

from . import app as benchapp
from .trace import Tracer

LAG_WINDOW = 2
MIB = 1024 * 1024
NEAR_REL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; FULL is what the metrics are defined
    on, SMOKE is the scaled-down set of ``--smoke`` and of the companion
    passes a traced run makes for layers its own workload bypasses."""

    scale_ranks: int
    scale_blocks: int
    sweep_scale: float
    sweep_ranks_cap: int
    life_ranks: int
    life_rank_bytes: int
    life_rounds: int          # committed rounds; the next one is killed
    life_every: int           # blocks between rounds
    life_tail: int            # blocks after the killed round's iteration
    burn_elems: int
    rec_ranks: int
    rec_rank_bytes: int
    rec_rounds: int
    rec_shrink_to: int
    mutate_fraction: float = 0.0025


FULL = Sizes(
    scale_ranks=32, scale_blocks=20,
    sweep_scale=0.12, sweep_ranks_cap=8,
    life_ranks=4, life_rank_bytes=4 * MIB, life_rounds=6, life_every=8,
    life_tail=4, burn_elems=1_000_000,
    rec_ranks=8, rec_rank_bytes=MIB // 2, rec_rounds=3, rec_shrink_to=4,
)
SMOKE = Sizes(
    scale_ranks=8, scale_blocks=4,
    sweep_scale=0.03, sweep_ranks_cap=2,
    life_ranks=2, life_rank_bytes=MIB // 4, life_rounds=3, life_every=4,
    life_tail=4, burn_elems=20_000,
    rec_ranks=4, rec_rank_bytes=MIB // 4, rec_rounds=3, rec_shrink_to=2,
)


class Checks:
    """Operations attempted and failed: job runs, checkpoint rounds,
    recoveries and correctness checks all count."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


class RepClock:
    """Wall and CPU seconds of one repetition, less the stretches the
    workload marks untimed (copying a prepared store, say)."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.untimed_wall = 0.0

    def __enter__(self) -> "RepClock":
        self._w, self._c = perf_counter(), process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += perf_counter() - self._w
        self.cpu += process_time() - self._c

    @contextlib.contextmanager
    def untimed(self) -> Iterator[None]:
        w, c = perf_counter(), process_time()
        try:
            yield
        finally:
            dw, dc = perf_counter() - w, process_time() - c
            self.wall -= dw
            self.cpu -= dc
            self.untimed_wall += dw


@dataclass
class Rep:
    """What one repetition hands back."""

    #: metric -> samples taken in this repetition
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: name -> value that must be identical in every repetition
    exact: Dict[str, object] = field(default_factory=dict)
    #: name -> virtual runtime of a *restarted* job.  Those repeat to about
    #: 1e-7 only — one recovery in fifty reads ~1 us of virtual time higher,
    #: a scheduling-dependent charge on the program's restart path — so
    #: they are held to ``NEAR_REL``, not to bit equality.
    near: Dict[str, float] = field(default_factory=dict)
    #: per-layer name -> value (traced repetitions only)
    layers: Dict[str, float] = field(default_factory=dict)


def _job_ok(checks: Checks, res, want: str, what: str) -> bool:
    ok = checks.op(res.status == want, f"{what}: status {res.status}, "
                   f"wanted {want}: {res.first_error()}")
    if ok and want == "completed":
        for app in res.apps():
            problem = app.validate(None)
            checks.op(problem is None, f"{what}: validate: {problem}")
    return ok


def _disk_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name))
        for d, _dirs, names in os.walk(path) for name in names
    )


def _leftovers(ckpt_dir: str) -> List[str]:
    """Temp files and pending journal records a recovery left behind."""
    out = [
        os.path.join(d, name)
        for d, _dirs, names in os.walk(ckpt_dir) for name in names
        if name.endswith(storeio.TMP_SUFFIX)
    ]
    out += [rec["_token"] for rec in Journal(ckpt_dir).pending()]
    return out


def _check_final(checks: Checks, ref: benchapp.Reference, res, what: str,
                 same_size: bool = True) -> None:
    """The finished job's state against the uninterrupted reference."""
    apps = res.apps()
    checks.op(benchapp.global_digest(apps) == ref.digest,
              f"{what}: global state digest differs from the reference")
    checks.op(apps[0].overwritten == ref.overwritten,
              f"{what}: overwritten byte count differs")
    if same_size:
        got = tuple(a.checksum for a in apps)
        checks.op(got == ref.checksums,
                  f"{what}: per-rank checksums {got} != reference")


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, tmp_root: str):
        self.sizes = sizes
        self.seed = seed
        self.tmp_root = tmp_root

    def setup(self, checks: Checks) -> None:
        raise NotImplementedError

    def repetition(self, clock: RepClock, tracer: Tracer,
                   checks: Checks) -> Rep:
        raise NotImplementedError

    def _mkdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp_root)


# ----------------------------------------------------------------------
# scale_run
# ----------------------------------------------------------------------
_P2P = ("send", "recv", "isend", "irecv", "sendrecv", "wait", "waitall",
        "waitany", "test", "testall", "testany", "iprobe", "probe")
_COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "alltoall",
                "alltoallv", "scan", "exscan", "reduce_scatter_block",
                "gather", "gatherv", "scatter", "scatterv", "allgather",
                "allgatherv")


class ScaleRun(Workload):
    """One large MANA job, no checkpoints."""

    name = "scale_run"

    def _config(self, mana: bool) -> JobConfig:
        return JobConfig(
            nranks=self.sizes.scale_ranks, impl="mpich", mana=mana,
            seed=self.seed, ckpt_dir=os.path.join(self.tmp_root, "scale"),
        )

    def _factory(self, blocks: int):
        cls = APP_CLASSES["lammps"]
        spec = replace(
            cls.paper_config("discovery"), nranks=self.sizes.scale_ranks,
            blocks=blocks, seed=self.seed,
        )
        return lambda rank: cls(spec)

    def setup(self, checks: Checks) -> None:
        # Warm-up: thread start-up paths, cost-model memos and numpy
        # kernels are paid once per process, not per job.
        res = Launcher(self._config(True)).run(self._factory(2))
        _job_ok(checks, res, "completed", "warm-up job")

    def repetition(self, clock, tracer, checks) -> Rep:
        launcher = Launcher(self._config(True))
        factory = self._factory(self.sizes.scale_blocks)
        times0 = os.times()
        with tracer.span("launcher.launch"):
            job = launcher.launch(factory)
        with tracer.span("launcher.start"):
            t0 = perf_counter()
            job.start()
            t1 = perf_counter()
        with tracer.span("launcher.wait"):
            res = job.wait()
            t2 = perf_counter()
        times1 = os.times()
        _job_ok(checks, res, "completed", "scale job")
        rep = Rep(samples={"op_s": [t2 - t0]})
        rep.exact["virtual_runtime"] = repr(res.runtime)
        if tracer.enabled:
            calls = sum(r.wrapped_calls for r in res.ranks)
            user = times1.user - times0.user
            system = times1.system - times0.system
            counts: Counter = Counter()
            for r in res.ranks:
                counts.update(r.lib_call_counts)
            with clock.untimed(), tracer.span("launcher.native_run"):
                tn = perf_counter()
                native = Launcher(self._config(False)).run(factory)
                native_s = perf_counter() - tn
            _job_ok(checks, native, "completed", "native scale job")
            rep.layers = {
                "launcher.start_s": t1 - t0,
                "launcher.run_s": t2 - t0,
                "launcher.rank_blocks_per_s":
                    self.sizes.scale_ranks * self.sizes.scale_blocks
                    / (t2 - t0),
                "launcher.sys_cpu_frac": system / (user + system),
                "wrappers.calls": calls,
                "wrappers.crossings": res.total_cs,
                "wrappers.mana_native_ratio": (t2 - t0) / native_s,
                "wrappers.us_per_call": (t2 - t0 - native_s) * 1e6 / calls,
                "api.p2p_calls": sum(counts[k] for k in _P2P),
                "api.collective_calls":
                    sum(counts[k] for k in _COLLECTIVES),
            }
        return rep


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class _SeededTimedCache(CaseCache):
    """A CaseCache that runs every case under the benchmark's seed and
    times each one it actually has to run."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.case_times: List[Tuple[str, float]] = []   # (impl, seconds)

    def get(self, **kwargs):
        before = len(self._outcomes)
        t0 = perf_counter()
        try:
            return super().get(seed=self.seed, **kwargs)
        finally:
            if len(self._outcomes) > before:
                self.case_times.append(
                    (kwargs["impl"], perf_counter() - t0)
                )


class Sweep(Workload):
    """The paper's three runtime figures, serially, one shared cache."""

    name = "sweep"
    FIGURES = (("fig2", figure2), ("fig3", figure3), ("fig4", figure4))

    def setup(self, checks: Checks) -> None:
        # Warm-up: one native and one MANA case touch every import and
        # memo the sweep will use.
        cache = _SeededTimedCache(self.seed)
        for mana in (False, True):
            r = cache.get(app_name="comd", impl="mpich", mana=mana,
                          vid_design="new", platform="discovery",
                          scale=0.03, ranks_cap=2, trials=1)
            checks.op(r.status == "completed", "warm-up case")

    def repetition(self, clock, tracer, checks) -> Rep:
        cache = _SeededTimedCache(self.seed)
        s = self.sizes
        fig_s: Dict[str, float] = {}
        outs = {}
        for label, fn in self.FIGURES:
            with tracer.span(f"harness.{label}"):
                t0 = perf_counter()
                outs[label] = fn(s.sweep_scale, s.sweep_ranks_cap, cache)
                fig_s[label] = perf_counter() - t0
        ran = len(cache.case_times)
        checks.attempted += ran      # run_case validated every one of them
        values = {label: out["values"] for label, out in outs.items()}
        missing = [
            f"{label}/{app}/{case}"
            for label, per_app in values.items()
            for app, per_case in per_app.items()
            for case, v in per_case.items()
            if v is None and not case.startswith("mana/")
        ]
        # Only the legacy design ("mana/<impl>") may fail to run, and only
        # where the paper says it cannot.
        checks.op(not missing, f"cases without a runtime: {missing}")
        rep = Rep(samples={"op_s": [t for _impl, t in cache.case_times]})
        rep.exact["cases"] = ran
        rep.exact["fingerprint"] = hashlib.sha256(
            json.dumps(values, sort_keys=True).encode()
        ).hexdigest()
        if tracer.enabled:
            with clock.untimed(), tracer.span("harness.render"):
                t0 = perf_counter()
                for _label, fn in self.FIGURES:
                    fn(s.sweep_scale, s.sweep_ranks_cap, cache)
                render_s = perf_counter() - t0
            checks.op(len(cache.case_times) == ran,
                      "rendering from the warm cache ran a case")
            by_impl: Dict[str, List[float]] = {}
            for impl, t in cache.case_times:
                by_impl.setdefault(impl, []).append(t)
            rep.layers = {
                f"impls.{impl}.case_s": median(ts)
                for impl, ts in by_impl.items()
            }
            rep.layers.update({
                "harness.cases": ran,
                "harness.case_s": median(rep.samples["op_s"]),
                "harness.fig2_s": fig_s["fig2"],
                "harness.fig3_s": fig_s["fig3"],
                "harness.fig4_s": fig_s["fig4"],
                "harness.render_s": render_s,
            })
        return rep


# ----------------------------------------------------------------------
# lifecycle_sync / lifecycle_async
# ----------------------------------------------------------------------
def _store_counts(inj: CrashPointInjector) -> Tuple[int, int, int]:
    """(store operations, fsync points, journal records written) so far,
    from a record-mode injector's per-point hit counts."""
    ops = fsyncs = records = 0
    for name, n in list(inj.counts.items()):
        if not name.endswith(".before"):
            continue
        if ".fsync." in name or ".dirsync." in name:
            fsyncs += n
        else:
            ops += n
            if ".journal." in name and name.endswith(".write.before"):
                records += n
    return ops, fsyncs, records


class _ProcessDeath(FaultInjector):
    """A loop crash that takes the whole process with it.

    A rank killed by ``crash_at_loop`` dies alone: the job's background
    drainer lives on in this process and would finish writing the
    generation it holds.  After a real SIGKILL nothing writes any more, so
    the moment the victim dies the store-side injector is marked dead and
    every later store operation raises :class:`InjectedCrash`.
    """

    def __init__(self, plan: FaultPlan, store: CrashPointInjector):
        super().__init__(plan)
        self._store = store

    def on_loop(self, rank: int, loop: str, iteration: int,
                vtime: float) -> None:
        try:
            super().on_loop(rank, loop, iteration, vtime)
        except InjectedFault:
            self._store.crashed_at = f"death of rank {rank}"
            self._store.dead = True
            raise


@contextlib.contextmanager
def _quiet_store_death() -> Iterator[None]:
    """The drainer thread of a killed job dies of InjectedCrash, as it
    should; keep that one traceback off stderr."""
    previous = threading.excepthook

    def hook(args) -> None:
        if not issubclass(args.exc_type, InjectedCrash):
            previous(args)

    threading.excepthook = hook
    try:
        yield
    finally:
        threading.excepthook = previous


class Lifecycle(Workload):
    """run -> checkpoint rounds -> kill -> fsck -> restore -> finish."""

    async_save = False
    #: set on the instance for the one strict-durability repetition
    durability = "fast"

    def __init__(self, sizes: Sizes, seed: int, tmp_root: str):
        super().__init__(sizes, seed, tmp_root)
        s = sizes
        self.kill_gen = s.life_rounds + 1
        self.kill_iter = s.life_every * self.kill_gen
        self.spec = benchapp.make_spec(
            s.life_ranks, self.kill_iter + s.life_tail, seed,
            rank_bytes=s.life_rank_bytes,
            mutate_fraction=s.mutate_fraction, burn_elems=s.burn_elems,
        )
        self.ref: Optional[benchapp.Reference] = None
        #: checkpoint dir of the last repetition, kept for the layer probes
        self.last_ckpt_dir: Optional[str] = None

    def _config(self, ckpt_dir: str, faults: Optional[object]) -> JobConfig:
        return JobConfig(
            nranks=self.sizes.life_ranks, impl="mpich", mana=True,
            seed=self.seed, ckpt_dir=ckpt_dir, loop_lag_window=LAG_WINDOW,
            ckpt_format=5, ckpt_keep_generations=3, faults=faults,
            ckpt_async=self.async_save,
            ckpt_save_workers=2 if self.async_save else 0,
            deadline=120.0,
        )

    def setup(self, checks: Checks) -> None:
        self.ref = benchapp.reference(self.spec)
        # The uninterrupted cold run (compute burn off: it feeds nothing
        # into the state) must agree with the replayed reference.
        cold = replace(self.spec, burn_elems=0)
        res = Launcher(self._config(self._mkdir("cold-"), None)).run(
            lambda rank: benchapp.BenchStateApp(cold)
        )
        if _job_ok(checks, res, "completed", "cold reference run"):
            _check_final(checks, self.ref, res, "cold reference run")

    def repetition(self, clock, tracer, checks) -> Rep:
        s = self.sizes
        ckpt_dir = self._mkdir("life-")
        # The store-side injector: counts store operations for the traced
        # run and, in the async workload, is what dies with the process.
        counter = (CrashPointInjector()
                   if tracer.enabled or self.async_save else None)
        plan = FaultPlan(seed=self.seed)
        if self.async_save:
            # Two blocks after the round resumes: its drain is in flight.
            plan.crash_at_loop(rank=1, iteration=self.kill_iter + 2)
            faults: object = _ProcessDeath(plan, counter)
        else:
            faults = plan.crash_in_checkpoint(
                rank=1, generation=self.kill_gen, site="mid-save"
            )
        launcher = Launcher(self._config(ckpt_dir, faults))
        manifests = [
            os.path.join(ckpt_dir, f"ckpt_{g:04d}", "manifest.json")
            for g in range(1, self.kill_gen)
        ]
        log = benchapp.BlockLog(
            (lambda: (_store_counts(counter),
                      [os.path.exists(m) for m in manifests]))
            if tracer.enabled else None
        )
        previous = (storeio.get_durability(), storeio.get_injector())
        storeio.set_durability(self.durability)
        storeio.set_injector(counter)
        try:
            with benchapp.recording(log), _quiet_store_death():
                with tracer.span("launcher.launch"):
                    job = launcher.launch(
                        lambda rank: benchapp.BenchStateApp(self.spec)
                    )
                    tickets = [
                        job.checkpoint_at_iteration(
                            "main", s.life_every * k - LAG_WINDOW,
                            kind="loop",
                        )
                        for k in range(1, self.kill_gen + 1)
                    ]
                with tracer.span("launcher.run"):
                    res = job.run()
            dead = perf_counter()
            if counter is not None:
                counter.resurrect()     # the reboot before fsck
            _job_ok(checks, res, "failed", "job killed in its last round")
            with tracer.span("fsck.repair"):
                report = fsck(ckpt_dir, repair=True)
            with tracer.span("checkpoint.pick"):
                gen = latest_restorable_generation(ckpt_dir)
            log2 = benchapp.BlockLog()
            with benchapp.recording(log2):
                with tracer.span("launcher.restart"):
                    job2 = launcher.restart(ckpt_dir, gen)
                with tracer.span("launcher.run_restored"):
                    res2 = job2.run()
        finally:
            storeio.set_durability(previous[0])
            storeio.set_injector(previous[1])

        committed = tickets[:s.life_rounds]
        for k, t in enumerate(committed, 1):
            checks.op(t.error is None and "dedup" in t.result,
                      f"checkpoint round {k}: {t.error}")
        checks.op(report.dirty, "the killed job left a clean store")
        checks.op(gen == s.life_rounds, f"restored generation {gen}")
        if _job_ok(checks, res2, "completed", "restored job"):
            _check_final(checks, self.ref, res2, "restored job")
        left = _leftovers(ckpt_dir)
        checks.op(not left, f"left behind after recovery: {left}")
        final = fsck(ckpt_dir, repair=False)
        checks.op(not final.dirty, "store dirty after recovery")

        stalls = [log.gap(s.life_every * k)
                  for k in range(1, s.life_rounds + 1)]
        warm = [t.result["dedup"] for t in committed[1:]]
        payload = committed[-1].result["dedup"]["payload_bytes"]
        rep = Rep(samples={
            # What the application sees per warm round, back-pressure from
            # a still-running earlier drain included.
            "op_s": [sum(stalls[1:]) / len(stalls[1:])],
            "recover_s": [log2.first_start() - dead],
        })
        rep.samples["ckpt_stall_s"] = rep.samples["op_s"]
        rep.exact.update({
            "write_amp": sum(d["bytes_written"] for d in warm)
            / sum(d["payload_bytes"] for d in warm),
            "space_amp": _disk_bytes(ckpt_dir) / payload,
            "virtual_ckpt_s": repr([t.result["ckpt_time"]
                                    for t in committed]),
            "fsck_rolled_back": list(report.rolled_back_generations),
            "fsck_restorable": list(final.restorable_generations),
        })
        rep.near["restored.virtual_runtime"] = res2.runtime
        if tracer.enabled:
            for k in range(1, s.life_rounds + 1):
                it = s.life_every * k
                tracer.add("coordinator.round", log.end_of(it - 1),
                           log.end_of(it - 1) + stalls[k - 1],
                           parent="launcher.run")
            rep.layers = self._layers(rep, log, committed, stalls, report,
                                      tracer, job)
        if self.last_ckpt_dir is not None:
            shutil.rmtree(self.last_ckpt_dir, ignore_errors=True)
        self.last_ckpt_dir = ckpt_dir
        return rep

    def _layers(self, rep: Rep, log, committed, stalls, report, tracer,
                job) -> Dict[str, float]:
        s = self.sizes
        warm = [t.result["dedup"] for t in committed[1:]]
        written = sum(d["chunks_written"] for d in warm)
        reused = sum(d["chunks_reused"] for d in warm)
        out = {
            "ckpt_stall_s": rep.samples["op_s"][0],
            "recover_s": rep.samples["recover_s"][0],
            "write_amp": rep.exact["write_amp"],
            "space_amp": rep.exact["space_amp"],
            "coordinator.rounds": len(committed),
            "coordinator.round_retries": sum(
                1 for e in job.coordinator.round_events
                if e.get("event") == "round-abort"
            ),
            "coordinator.cold_round_s": stalls[0],
            "coordinator.virtual_ckpt_s": committed[-1].result["ckpt_time"],
            "chunkstore.chunks_written": written,
            "chunkstore.chunks_reused": reused,
            "chunkstore.dedup_hit_ratio": reused / (written + reused),
            "chunkstore.mean_chunk_bytes":
                sum(d["payload_bytes"] for d in warm)
                / sum(d["chunks_total"] for d in warm),
            "fsck.repair_dirty_s": tracer.durations("fsck.repair")[-1],
            "fsck.rolled_back": len(report.rolled_back_generations),
            "fsck.orphans_removed": report.orphan_chunks_removed,
            "launcher.restart_s": tracer.durations("launcher.restart")[-1],
        }
        last = s.life_every * s.life_rounds
        if self.async_save:
            # Block-granular: rank 0 looks for each generation's manifest
            # when it finishes a block.
            lags, overlapped = [], []
            for k in range(2, s.life_rounds + 1):
                resume = s.life_every * k
                seen = next(
                    (it for it in sorted(log.probed)
                     if it >= resume and log.probed[it][1][k - 1]), None
                )
                if seen is not None:
                    lags.append(log.stamps[(0, seen)][1]
                                - log.stamps[(0, resume)][0])
                    overlapped.append(seen - resume + 1)
            if lags:
                out["asyncsave.drain_lag_s"] = median(lags)
                out["asyncsave.blocks_during_drain"] = median(overlapped)
        else:
            # Sync rounds write while every rank is parked, so the counts
            # rank 0 read around the last warm round are that round's.
            after = log.probed[last][0]
            before = log.probed[last - 1][0]
            out["storeio.ops_per_round"] = after[0] - before[0]
            out["storeio.fsync_points_per_round"] = after[1] - before[1]
            out["journal.records_per_round"] = after[2] - before[2]
        return out


class LifecycleSync(Lifecycle):
    name = "lifecycle_sync"


class LifecycleAsync(Lifecycle):
    name = "lifecycle_async"
    async_save = True


# ----------------------------------------------------------------------
# recover
# ----------------------------------------------------------------------
class Recover(Workload):
    """Recoveries from copies of one prepared dirty store."""

    name = "recover"

    def __init__(self, sizes: Sizes, seed: int, tmp_root: str):
        super().__init__(sizes, seed, tmp_root)
        s = sizes
        self.every = 4
        self.kill_gen = s.rec_rounds + 1
        self.spec = benchapp.make_spec(
            s.rec_ranks, self.every * self.kill_gen + 4, seed,
            rank_bytes=s.rec_rank_bytes,
            mutate_fraction=s.mutate_fraction, burn_elems=0,
        )
        # (label, restart under, ranks restored onto)
        self.variants = (
            ("same", "mpich", s.rec_ranks),
            ("openmpi", "openmpi", s.rec_ranks),
            ("exampi", "exampi", s.rec_ranks),
            ("elastic", "mpich", s.rec_shrink_to),
        )
        self.ref: Optional[benchapp.Reference] = None
        self.store: Optional[str] = None
        #: a repaired copy, kept for the read-side layer probes
        self.last_ckpt_dir: Optional[str] = None

    def _config(self, ckpt_dir: str, plan: Optional[FaultPlan]) -> JobConfig:
        return JobConfig(
            nranks=self.sizes.rec_ranks, impl="mpich", mana=True,
            seed=self.seed, ckpt_dir=ckpt_dir, loop_lag_window=LAG_WINDOW,
            ckpt_format=5, faults=plan, deadline=120.0,
        )

    def setup(self, checks: Checks) -> None:
        """Build the store: ``rec_rounds`` committed generations and one
        torn by a crash in mid-save."""
        self.ref = benchapp.reference(self.spec)
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = self._mkdir("recover-store-")
        plan = FaultPlan(seed=self.seed).crash_in_checkpoint(
            rank=1, generation=self.kill_gen, site="mid-save"
        )
        job = Launcher(self._config(self.store, plan)).launch(
            lambda rank: benchapp.BenchStateApp(self.spec)
        )
        tickets = [
            job.checkpoint_at_iteration(
                "main", self.every * k - LAG_WINDOW, kind="loop"
            )
            for k in range(1, self.kill_gen + 1)
        ]
        res = job.run()
        _job_ok(checks, res, "failed", "store-building job killed mid-save")
        for k, t in enumerate(tickets[:-1], 1):
            checks.op(t.error is None, f"store round {k}: {t.error}")

    def repetition(self, clock, tracer, checks) -> Rep:
        s = self.sizes
        rep = Rep(samples={"copy_s": []})
        recoveries: List[float] = []
        timings: Dict[str, Dict[str, float]] = {}
        orphans: Dict[str, int] = {}
        for label, impl, nranks in self.variants:
            with clock.untimed():
                t0 = perf_counter()
                work = os.path.join(self._mkdir("recover-"), "ckpt")
                # Hard links: nothing in a store is ever rewritten in
                # place, only published by rename/link and unlinked.
                shutil.copytree(self.store, work, copy_function=os.link)
                rep.samples["copy_s"].append(perf_counter() - t0)
            launcher = Launcher(self._config(work, None))
            log = benchapp.BlockLog()
            dead = perf_counter()
            with tracer.span("fsck.repair"):
                report = fsck(work, repair=True)
            with tracer.span("checkpoint.pick"):
                gen = latest_restorable_generation(work)
            t_pick = perf_counter()
            with tracer.span(f"launcher.restart.{label}"):
                if nranks == s.rec_ranks:
                    job = launcher.restart(work, gen, impl_override=impl)
                else:
                    job = launcher.elastic_restart(
                        work, new_nranks=nranks, generation=gen
                    )
            t_restart = perf_counter()
            with benchapp.recording(log), \
                    tracer.span("launcher.run_restored"):
                res = job.run()
            first = log.first_start()
            recoveries.append(first - dead)
            timings[label] = {
                "fsck": t_pick - dead, "restart": t_restart - t_pick,
                "first_block": first - t_restart,
            }

            checks.op(report.dirty, f"{label}: store copy was clean")
            if _job_ok(checks, res, "completed", f"{label} recovery"):
                _check_final(checks, self.ref, res, label,
                             same_size=nranks == s.rec_ranks)
            left = _leftovers(work)
            checks.op(not left, f"{label}: left behind: {left}")
            rep.near[f"{label}.virtual_runtime"] = res.runtime
            rep.exact[f"{label}.fsck"] = [
                list(report.rolled_back_generations),
                list(report.restorable_generations), gen,
            ]
            orphans[label] = report.orphan_chunks_removed
            with clock.untimed():
                # The newest same-size copy stays for the read probes.
                doomed = work
                if label == "same":
                    doomed, self.last_ckpt_dir = self.last_ckpt_dir, work
                if doomed is not None:
                    shutil.rmtree(os.path.dirname(doomed), ignore_errors=True)
        # One sample per cycle, the mean over its variants: an elastic
        # restore costs about twice a same-size one, and a median over the
        # mixed samples would stop seeing it.
        rep.samples["op_s"] = [sum(recoveries) / len(recoveries)]
        rep.samples["recover_s"] = rep.samples["op_s"]
        if tracer.enabled:
            rep.layers = {
                "recover_s": rep.samples["op_s"][0],
                "launcher.restart_s": timings["same"]["restart"],
                "launcher.elastic_restart_s": timings["elastic"]["restart"],
                "launcher.resume_first_block_s":
                    timings["same"]["first_block"],
                "fsck.repair_dirty_s": timings["same"]["fsck"],
                "fsck.rolled_back": len(rep.exact["same.fsck"][0]),
                "fsck.orphans_removed": orphans["same"],
            }
        return rep


WORKLOADS = {
    cls.name: cls
    for cls in (ScaleRun, Sweep, LifecycleSync, LifecycleAsync, Recover)
}

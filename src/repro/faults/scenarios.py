"""End-to-end fault/survival scenarios (``python -m repro faults``).

``SCENARIOS`` is a table: each :class:`Scenario` names a seeded
:class:`FaultPlan`, how the job runs and what must hold afterwards;
:func:`run_scenario` is the one driver.  Every scenario must finish with
app state equal to a fault-free run of the same seed — a small ring
application that self-heals from the latest restorable generation, or
(PROTOCOLS.md §12) ``ElasticHaloApp`` restored onto another rank count
bit-identically to a cold run at that size.  ``fault_smoke`` and
``elastic_smoke`` are the CI entry points behind ``python -m repro
smoke``: they also run one scenario twice and assert the recovery trace
(events, fired faults, virtual times) is bit-identical across runs.

Everything here is deterministic: checkpoints are armed at fixed loop
iterations (never wall-clock), crashes fire at loop/phase coordinates,
and corruption offsets derive from the plan seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.faults.plan import (
    CORRUPT_BITFLIP,
    CORRUPT_TRUNCATE,
    SITE_MID_SAVE,
    FaultPlan,
)
from repro.mana.checkpoint import CheckpointStore, store_for
from repro.runtime import JobConfig, Launcher, MpiApplication
from repro.runtime.launcher import RestartPolicy
from repro.util.errors import RestartError

#: Iterations at which the LOOP-kind checkpoint triggers are armed.  With
#: ``loop_lag_window=2`` the ranks park at 4, 8, and 12 — generations
#: 1, 2, and 3.
TRIGGER_ITERS = (2, 6, 10)
#: Elastic scenarios arm only the first two: ElasticHaloApp runs 12
#: blocks, so the ranks park at 4 and 8 — a crash at iteration 9 falls
#: back to the generation parked at 8.
ELASTIC_TRIGGERS = TRIGGER_ITERS[:2]
NITERS = 16
NRANKS = 4
LAG_WINDOW = 2


class SurvivorApp(MpiApplication):
    """Ring exchange + allreduce with a per-rank running checksum.

    Module-level (picklable) so checkpoint images of it restore in a
    brand-new process; the checksum is a pure function of (rank, nranks,
    iterations completed), which is what lets scenarios compare a
    recovered run against a fault-free one.
    """

    name = "survivor"

    def __init__(self, niters: int = NITERS):
        self.niters = niters
        self.acc = np.zeros(1)

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        nxt = (ctx.rank + 1) % ctx.nranks
        prv = (ctx.rank - 1) % ctx.nranks
        for it in ctx.loop("main", self.niters):
            ctx.compute(0.002)
            sb = np.array([float(ctx.rank + 1) * (it + 1)])
            MPI.send(sb, 1, MPI.DOUBLE, nxt, 9, w)
            rb = np.zeros(1)
            MPI.recv(rb, 1, MPI.DOUBLE, prv, 9, w)
            out = np.zeros(1)
            MPI.allreduce(rb, out, 1, MPI.DOUBLE, MPI.SUM, w)
            self.acc[0] += out[0] * (it + 1)

    @property
    def checksum(self) -> float:
        return float(self.acc[0])


def _arm_triggers(job, iters=TRIGGER_ITERS) -> None:
    for it in iters:
        job.checkpoint_at_iteration("main", it, kind="loop")


def _config(ckpt_dir: str, seed: int,
            plan: Optional[FaultPlan], **extra) -> JobConfig:
    fields = dict(
        nranks=NRANKS, impl="mpich", mana=True, seed=seed,
        ckpt_dir=ckpt_dir, loop_lag_window=LAG_WINDOW,
        deadline=60.0, faults=plan,
    )
    fields.update(extra)
    return JobConfig(**fields)


def _app_factory(seed: int, nranks: int, elastic: bool):
    if not elastic:
        return lambda r: SurvivorApp()
    from repro.apps.elastic import ElasticHaloApp

    spec = replace(ElasticHaloApp.paper_config(), nranks=nranks, seed=seed)
    return lambda r: ElasticHaloApp(spec)


def _app_state(res) -> Dict:
    """App-level results of a run, raw floats (the oracle is
    *bit*-identity): per-rank checksums and, for ElasticHaloApp, the
    per-block global sums."""
    apps = res.apps()
    return {
        "checksums": [a.checksum if a is not None else None for a in apps],
        "history": [
            list(a.history) if hasattr(a, "history") else None for a in apps
        ],
    }


def _fault_free(seed: int, elastic: bool = False, **config) -> Dict:
    """App state of an uninterrupted run — the reference a scenario
    must reproduce: SurvivorApp with the same armed checkpoints, or a
    cold ElasticHaloApp run at the post-restore size."""
    tmp = tempfile.mkdtemp(prefix="repro-faults-base-")
    try:
        cfg = _config(tmp, seed, None, **config)
        job = Launcher(cfg).launch(_app_factory(seed, cfg.nranks, elastic))
        if not elastic:
            _arm_triggers(job)
        res = job.run(60.0)
        if res.status != "completed":
            raise RuntimeError(
                f"fault-free baseline failed: {res.first_error()}"
            )
        return _app_state(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def baseline_checksums(seed: int) -> List[float]:
    """Per-rank checksums of a fault-free SurvivorApp run (same seed,
    same armed checkpoints)."""
    return _fault_free(seed)["checksums"]


@dataclass(frozen=True)
class Scenario:
    """One survival story.  ``expect`` is checked on top of what every
    scenario requires: status "completed" and app state equal to the
    fault-free run's."""

    doc: str
    plan: Callable[[int], FaultPlan]
    expect: Callable[[Dict], bool]
    #: Run under ``Launcher.supervise`` (events = its recovery events)
    #: or as one plain job (events = the coordinator's round events).
    supervised: bool = True
    #: ``JobConfig`` fields that differ from :func:`_config`'s.
    config: Dict = field(default_factory=dict)
    #: ``RestartPolicy`` fields of an elastic recovery.  When set the
    #: job runs ElasticHaloApp and the reference is a cold run at the
    #: post-restore rank count and implementation.
    elastic: Optional[Dict] = None
    #: ``inspect(store, outcome)`` records what only the checkpoint
    #: directory (its :class:`CheckpointStore`) can tell, before the
    #: driver removes it.
    inspect: Optional[Callable[[CheckpointStore, Dict], None]] = None


def _restored(out: Dict) -> List[int]:
    return [e["generation"] for e in out["events"]
            if e["event"] == "restart"]


def _manifest_dedup(store: CheckpointStore, out: Dict) -> None:
    """Per-generation incremental-save stats from the on-disk manifests
    (chunks written / reused, bytes written) — the dedup effectiveness
    report ``python -m repro faults`` surfaces."""
    out["dedup"] = {}
    for g in store.generations():
        try:
            dd = store.read_manifest(g).get("dedup")
        except RestartError:
            continue  # incomplete generation (e.g. crashed mid-save)
        if dd is not None:
            out["dedup"][g] = {
                k: dd[k] for k in
                ("chunks_written", "chunks_reused", "bytes_written")
            }


def _inspect_disk_full(store: CheckpointStore, out: Dict) -> None:
    _manifest_dedup(store, out)
    gen2 = store.generation_dir(2)
    out["torn_files"] = (
        [n for n in os.listdir(gen2) if n.endswith(".tmp")]
        if os.path.isdir(gen2) else []
    )


def _crash_after_gen2(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed).crash_at_loop(rank=1, iteration=9)


def _resized_to(nranks: int) -> Callable[[Dict], bool]:
    def expect(out: Dict) -> bool:
        restarts = [e for e in out["events"] if e["event"] == "restart"]
        return (
            out["restarts"] == 1
            and out["to_nranks"] == nranks
            and all(e.get("elastic") and "skipped_generations" in e
                    for e in restarts)
        )
    return expect


SCENARIOS: Dict[str, Scenario] = {
    "crash-restore": Scenario(
        "A rank dies mid-loop after generation 2 exists; the supervisor "
        "restores generation 2 and the job completes.",
        plan=_crash_after_gen2,
        expect=lambda out: out["restarts"] == 1,
        inspect=_manifest_dedup,
    ),
    "self-heal": Scenario(
        "The acceptance demo: a rank is killed mid-save of generation 3 "
        "AND generation 2's rank-0 image is bit-flipped on disk — the "
        "supervisor must skip both and restore generation 1.",
        plan=lambda seed: (
            FaultPlan(seed=seed)
            .crash_in_checkpoint(rank=1, generation=3, site=SITE_MID_SAVE)
            .corrupt_image(generation=2, rank=0, mode=CORRUPT_BITFLIP)
        ),
        expect=lambda out: _restored(out) == [1],
        inspect=_manifest_dedup,
    ),
    "disk-full": Scenario(
        "ENOSPC while rank 1 saves generation 2: the save fails cleanly "
        "(no torn image or stray temp file at the final path) and the "
        "supervisor resumes from generation 1.",
        plan=lambda seed: FaultPlan(seed=seed).disk_full(rank=1,
                                                         generation=2),
        expect=lambda out: not out["torn_files"],
        inspect=_inspect_disk_full,
    ),
    "truncate-fallback": Scenario(
        "Generation 2 is truncated on disk after its round completes "
        "plus a later crash: restart must fall back to generation 1.",
        plan=lambda seed: (
            FaultPlan(seed=seed)
            .corrupt_image(generation=2, rank=1, mode=CORRUPT_TRUNCATE)
            .crash_at_loop(rank=2, iteration=9)
        ),
        expect=lambda out: _restored(out) == [1],
        inspect=_manifest_dedup,
    ),
    "chunk-corrupt": Scenario(
        "Format-5 chunk-level bit rot: a chunk newly stored by rank 0's "
        "generation-2 save is corrupted in the content store, plus a "
        "later crash.  Validation must pin the bad chunk on generation 2 "
        "(its chunks are content-shared with nothing older), and the "
        "supervisor must fall back to generation 1.",
        plan=lambda seed: (
            FaultPlan(seed=seed)
            .corrupt_chunk(generation=2, rank=0)
            .crash_at_loop(rank=2, iteration=9)
        ),
        expect=lambda out: _restored(out) == [1],
        inspect=_manifest_dedup,
    ),
    "round-abort": Scenario(
        "An injected coordinator stall aborts checkpoint round 1 on its "
        "first attempt; the bounded retry completes it and the job never "
        "fails (zero supervised restarts).",
        plan=lambda seed: FaultPlan(seed=seed).abort_round(generation=1,
                                                           attempt=1),
        expect=lambda out: any(
            e["event"] == "round-abort" and e["retrying"]
            for e in out["events"]
        ),
        supervised=False,
    ),
    "msg-delay": Scenario(
        "A delayed message slows the job in *virtual* time but never "
        "corrupts it: checksums still match the baseline.",
        plan=lambda seed: FaultPlan(seed=seed).delay_message(
            src=0, dst=1, seconds=5.0, nth=3
        ),
        expect=lambda out: len(out["faults_fired"]) == 1,
        supervised=False,
    ),
    "async-drain-fault": Scenario(
        "A fault during the *background* drain of an asynchronous round "
        "(PROTOCOLS.md §11) fails that generation and nothing else: the "
        "ranks already resumed at the snapshot barrier, so the job "
        "completes with zero restarts and correct checksums, while "
        "restartability falls back to the previous durable generation.",
        plan=lambda seed: FaultPlan(seed=seed).crash_in_checkpoint(
            rank=1, generation=2, site=SITE_MID_SAVE
        ),
        expect=lambda out: (
            any(e["event"] == "async-drain-failed" and e["generation"] == 2
                for e in out["events"])
            and 2 not in out["restorable_generations"]
            and len(out["restorable_generations"]) >= 1
        ),
        supervised=False,
        config={"ckpt_async": True},
        inspect=lambda store, out: out.update(
            restorable_generations=store.restorable()
        ),
    ),
    "elastic-shrink": Scenario(
        "Node loss: an 8-rank job crashes after generation 2; only 4 "
        "ranks remain.  The supervisor repartitions the 8-rank images "
        "onto 4 ranks and the finished state is bit-identical to a cold "
        "4-rank run.",
        plan=_crash_after_gen2,
        expect=_resized_to(4),
        config={"nranks": 8},
        elastic={"elastic": "shrink_on_node_loss", "capacity": [4]},
    ),
    "elastic-grow": Scenario(
        "Spot capacity returns: a 4-rank job crashes after generation 2 "
        "and restores onto 8 ranks, bit-identical to a cold 8-rank run.",
        plan=_crash_after_gen2,
        expect=_resized_to(8),
        config={"nranks": 4},
        elastic={"elastic": "grow_to_capacity", "capacity": [8]},
    ),
    "elastic-migrate": Scenario(
        "Cross-implementation elastic migration: checkpoint under Open "
        "MPI at 8 ranks, crash, restore under MPICH at 4 — resizing and "
        "the §9 interoperability restart composed in one recovery.",
        plan=_crash_after_gen2,
        expect=_resized_to(4),
        config={"nranks": 8, "impl": "openmpi"},
        elastic={"elastic": "shrink_on_node_loss", "capacity": [4],
                 "target_impl": "mpich"},
    ),
}


def _run(sc: Scenario, seed: int, ckpt_dir: str) -> Dict:
    """Run one scenario's job in ``ckpt_dir`` and summarize it against
    the fault-free reference."""
    elastic = sc.elastic is not None
    policy = RestartPolicy(max_restarts=2, **(sc.elastic or {}))
    iters = ELASTIC_TRIGGERS if elastic else TRIGGER_ITERS
    cfg = _config(ckpt_dir, seed, sc.plan(seed), **sc.config)
    factory = _app_factory(seed, cfg.nranks, elastic)
    if sc.supervised:
        res = Launcher(cfg, policy).supervise(
            factory, timeout=60.0,
            on_launch=lambda job: _arm_triggers(job, iters),
        )
        events = res.recovery_events
    else:
        job = Launcher(cfg).launch(factory)
        _arm_triggers(job, iters)
        res = job.run(60.0)
        events = list(job.coordinator.round_events)
    state = _app_state(res)
    baseline = _fault_free(
        seed, elastic, nranks=len(res.ranks),
        impl=policy.target_impl or cfg.impl,
    )
    return {
        "status": res.status,
        "restarts": res.restarts,
        "events": events,
        **state,
        "baseline": baseline,
        "matches_baseline": state == baseline,
        "from_nranks": cfg.nranks,
        "to_nranks": len(res.ranks),
        # Job.__init__ wrapped the plan into its injector in-place.
        "faults_fired": cfg.faults.trace(),
        "runtime": round(res.runtime, 9),
    }


def run_scenario(name: str, seed: int = 7,
                 workdir: Optional[str] = None) -> Dict:
    """Run the named scenario; the checkpoint directory is ``workdir``
    (kept) or a temporary one (removed)."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
        )
    sc = SCENARIOS[name]
    tmp = workdir or tempfile.mkdtemp(prefix="repro-faults-")
    try:
        out = _run(sc, seed, tmp)
        if sc.inspect is not None:
            sc.inspect(store_for(tmp), out)
        out["ok"] = bool(
            out["status"] == "completed"
            and out["matches_baseline"]
            and sc.expect(out)
        )
        return out
    finally:
        if workdir is None:
            shutil.rmtree(tmp, ignore_errors=True)


def recovery_fingerprint(out: Dict) -> Dict:
    """The parts of a scenario outcome that must be bit-identical across
    two runs with the same plan + seed."""
    return {k: out[k] for k in ("status", "restarts", "events",
                                "checksums", "faults_fired", "runtime")}


def fault_smoke(seed: int = 7) -> Dict:
    """CI smoke: the acceptance scenario, twice.

    Asserts (a) the job self-heals — restored from the latest valid
    generation with final checksums equal to a fault-free run — and
    (b) the recovery trace (events, fired faults, virtual times) is
    deterministic: bit-identical across both runs.
    """
    first = run_scenario("self-heal", seed)
    second = run_scenario("self-heal", seed)
    rerun = recovery_fingerprint(second)
    deterministic = recovery_fingerprint(first) == rerun
    return {
        "ok": bool(first["ok"] and second["ok"] and deterministic),
        "self_heal_ok": bool(first["ok"]),
        "deterministic": deterministic,
        "run": first,
        "rerun": rerun,
    }


def elastic_smoke(seed: int = 7) -> Dict:
    """CI smoke for elastic restart (PROTOCOLS.md §12): one shrink
    (8→4), one grow (4→8), one cross-implementation migration
    (Open MPI 8 → MPICH 4), each checked bit-identical against a cold
    run at the post-restore size; the shrink runs twice to assert the
    recovery trace is deterministic."""
    runs = {kind: run_scenario(f"elastic-{kind}", seed)
            for kind in ("shrink", "grow", "migrate")}
    rerun = recovery_fingerprint(run_scenario("elastic-shrink", seed))
    deterministic = recovery_fingerprint(runs["shrink"]) == rerun
    return {
        "ok": bool(all(r["ok"] for r in runs.values()) and deterministic),
        "deterministic": deterministic,
        **runs,
        "rerun": rerun,
    }

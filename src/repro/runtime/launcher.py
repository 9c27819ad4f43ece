"""Job launching: thread-per-rank execution of simulated MPI programs.

:class:`Launcher` plays the role of ``srun``/SBATCH: it builds the
fabric, instantiates one library (or one MANA agent) per rank, runs the
application on one thread per rank, and — for MANA jobs — wires up the
checkpoint coordinator.

Restart paths:

* :meth:`Job.request_checkpoint` + mode ``relaunch`` — in-session restart
  (lower halves replaced live, any-MPI-call granularity);
* :meth:`Launcher.restart` — cold restart: a brand-new job adopts the
  images of a previous one, optionally under a **different MPI
  implementation** (the §9 "future work" interoperability this
  simulation can actually demonstrate).
"""

from __future__ import annotations

import contextlib
import copy
import os
import pickle
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.fabric.network import Fabric
from repro.impls import make_lib
from repro.impls.facade import NativeFacade
from repro.mana.checkpoint import CheckpointImage, CheckpointStore, store_for
from repro.mana.coordinator import CheckpointCoordinator, CheckpointTicket
from repro.mana.fsck import auto_repair
from repro.mana.drain import redistribute_drain_buffers
from repro.mana.virtid import remap_world
from repro.mana.wrappers import ManaFacade, ManaRank
from repro.runtime.context import RankContext
from repro.runtime.platforms import cost_model_for
from repro.runtime.scheduler import Scheduler
from repro.simtime.clock import VirtualClock
from repro.util.errors import (
    ElasticRestartError,
    JobPreempted,
    ReproError,
    RestartError,
)


@dataclass
class JobConfig:
    """Everything needed to run one simulated job."""

    nranks: int
    impl: str = "mpich"
    platform: str = "discovery"
    mana: bool = False
    vid_design: str = "new"          # "new" | "legacy"
    ggid_policy: str = "eager"       # "eager" | "lazy" | "hybrid"
    seed: int = 12345
    ckpt_dir: Optional[str] = None   # default: fresh temp dir
    loop_lag_window: int = 8
    ckpt_interval: Optional[float] = None  # periodic ckpt, virtual seconds
    deadline: float = 300.0          # real-time safety net
    # Fault injection: a repro.faults.FaultPlan (or the FaultInjector the
    # Job wrapped it into — shared across supervised restarts so fired
    # one-shot faults never re-fire).  None keeps every hook off the
    # hot path.
    faults: Optional[object] = None
    # Checkpoint image format written: only 5 (incremental chunked,
    # deduped, compressed); format-4 images stay loadable.  A field only
    # because existing callers pass ckpt_format=5.
    ckpt_format: int = 5
    ckpt_save_workers: int = 0       # >1 pools chunk-run encodes/writes
    ckpt_keep_generations: Optional[int] = None  # prune + GC after saves
    # Asynchronous saves: ranks snapshot their pickled state at the
    # barrier and resume; a drain thread per round encodes and writes the
    # generation while the application computes (PROTOCOLS.md §11).  Virtual time is charged snapshot + any
    # drain-overrun instead of the full save cost.
    ckpt_async: bool = False

    def __post_init__(self) -> None:
        if self.ckpt_format != 5:
            raise ValueError(
                f"unknown checkpoint format {self.ckpt_format!r}; "
                "only format 5 is written"
            )

    def resolved_ckpt_dir(self) -> str:
        if self.ckpt_dir is None:
            self.ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
        return self.ckpt_dir


@dataclass
class RestartPolicy:
    """Supervised-restart policy for :meth:`Launcher.supervise`: on a
    rank failure, restore the latest restorable generation and resume,
    at most ``max_restarts`` times.

    ``elastic`` selects the restore shape:

    * ``None`` (default) — restore at the checkpointed rank count; the
      recovery trace is byte-identical to pre-elastic behaviour;
    * ``"shrink_on_node_loss"`` — restore onto
      ``min(capacity, checkpointed nranks)`` ranks (survive losing
      nodes by packing the surviving capacity);
    * ``"grow_to_capacity"`` — restore onto exactly the capacity value
      (reclaim returned/spot nodes).

    ``capacity`` gives the ranks available at each restart attempt
    (attempt ``k`` uses ``capacity[min(k-1, len-1)]``; the last entry
    repeats).  ``target_impl`` additionally migrates the restore to a
    different MPI implementation (§9 interoperability), elastic or not.
    """

    max_restarts: int = 2
    elastic: Optional[str] = None    # None | "shrink_on_node_loss" |
                                     # "grow_to_capacity"
    capacity: Optional[Sequence[int]] = None
    target_impl: Optional[str] = None

    def __post_init__(self) -> None:
        if self.elastic not in (
            None, "shrink_on_node_loss", "grow_to_capacity"
        ):
            raise ValueError(
                f"unknown elastic mode {self.elastic!r}; expected "
                "'shrink_on_node_loss' or 'grow_to_capacity'"
            )
        if self.elastic is not None and not self.capacity:
            raise ValueError(
                f"elastic={self.elastic!r} requires a capacity schedule"
            )


@dataclass
class RankOutcome:
    rank: int
    app: object = None
    runtime: float = 0.0
    accounts: Dict[str, float] = field(default_factory=dict)
    cs_count: int = 0
    wrapped_calls: int = 0
    lib_call_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: The rank failed while the job was still healthy; False when its
    #: error is only how it observed another rank's abort.
    originating: bool = False


@dataclass
class JobResult:
    """Aggregated outcome of a finished job."""

    status: str                      # "completed" | "preempted" | "failed"
    ranks: List[RankOutcome]
    config: JobConfig
    # Filled by Launcher.supervise: the recovery story of this job
    # (rank-failure / restart / recovered events) and how many
    # supervised restarts it took.
    recovery_events: List[dict] = field(default_factory=list)
    restarts: int = 0

    @property
    def runtime(self) -> float:
        """Job runtime = slowest rank's virtual clock (SBATCH semantics)."""
        return max((r.runtime for r in self.ranks), default=0.0)

    @property
    def total_cs(self) -> int:
        return sum(r.cs_count for r in self.ranks)

    @property
    def cs_per_second(self) -> float:
        rt = self.runtime
        return self.total_cs / rt if rt > 0 else 0.0

    def apps(self) -> List[object]:
        return [r.app for r in self.ranks]

    def first_error(self) -> Optional[str]:
        for r in self.ranks:
            if r.error:
                return f"rank {r.rank}: {r.error}"
        return None


class Job:
    """A running (or finished) simulated MPI job."""

    def __init__(
        self,
        config: JobConfig,
        app_factory: Optional[Callable[[int], object]] = None,
        images: Optional[List[CheckpointImage]] = None,
        scheduler: Optional[Scheduler] = None,
        store: Optional[CheckpointStore] = None,
    ):
        if (app_factory is None) == (images is None):
            raise ValueError("provide exactly one of app_factory / images")
        if images is not None:
            if len(images) != config.nranks:
                raise RestartError(
                    f"{len(images)} checkpoint images for a "
                    f"{config.nranks}-rank job; restore at the original "
                    f"rank count or use elastic restart "
                    f"(Launcher.elastic_restart / `python -m repro "
                    f"restart --ranks N`) to repartition"
                )
            for img in images:
                if img.nranks != config.nranks:
                    raise RestartError(
                        f"rank {img.rank} image was checkpointed at "
                        f"nranks={img.nranks} but the job runs "
                        f"{config.nranks} ranks; restore at the original "
                        f"rank count or use elastic restart "
                        f"(Launcher.elastic_restart / `python -m repro "
                        f"restart --ranks N`) to repartition"
                    )
        self.config = config
        self.app_factory = app_factory
        self.images = images
        #: Lower-half incarnation: one past the adopted images' (all
        #: ranks relaunch together, so they share one), 0 on a cold start.
        self.epoch = max((img.epoch for img in images or ()), default=-1) + 1
        cm0 = cost_model_for(config.platform, config.impl)
        # Run slots for the rank threads, shared by the fabric and the
        # coordinator (tests pass one with a fixed slot count).
        self.scheduler = scheduler or Scheduler(config.nranks)
        self.fabric = Fabric(config.nranks, cm0, scheduler=self.scheduler)
        # Fault injection: wrap a FaultPlan into its runtime injector
        # once, and write it back to the config so supervised restarts
        # (which reuse the config's faults) share the fired-spec set.
        self.injector = None
        if config.faults is not None:
            from repro.faults import FaultInjector, FaultPlan

            if isinstance(config.faults, FaultPlan):
                config.faults = FaultInjector(config.faults)
            self.injector = config.faults
            self.fabric.injector = self.injector
        self.coordinator: Optional[CheckpointCoordinator] = None
        # Given no ckpt_dir, a MANA job makes a temporary one; wait()
        # removes it again unless a checkpoint was written into it.
        self._own_ckpt_dir = config.mana and config.ckpt_dir is None
        #: The CheckpointStore this MANA job's rounds write into (None
        #: for a native job).
        self.store = None
        if config.mana:
            self.store = store or store_for(config.resolved_ckpt_dir())
            self.coordinator = CheckpointCoordinator(
                config.nranks,
                self.store,
                cm0.filesystem,
                loop_lag_window=config.loop_lag_window,
                save_workers=config.ckpt_save_workers,
                keep_generations=config.ckpt_keep_generations,
                async_save=config.ckpt_async,
                scheduler=self.scheduler,
            )
            self.coordinator.injector = self.injector
            if config.ckpt_interval is not None:
                self.coordinator.enable_interval_checkpoints(
                    config.ckpt_interval
                )
        self._threads: List[threading.Thread] = []
        self._outcomes: List[RankOutcome] = [
            RankOutcome(r) for r in range(config.nranks)
        ]
        self._status = "created"
        self._preempted = False
        self.manas: List[Optional[ManaRank]] = [None] * config.nranks

    # ------------------------------------------------------------------
    def start(self) -> "Job":
        if self._status != "created":
            raise ReproError(f"job already {self._status}")
        self._status = "running"
        for r in range(self.config.nranks):
            self.scheduler.admit(r)
        for r in range(self.config.nranks):
            t = threading.Thread(
                target=self._run_rank, args=(r,), name=f"rank-{r}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> JobResult:
        self._join_all(timeout or self.config.deadline)
        if any(t.is_alive() for t in self._threads):
            # The aborts unpark every rank, parked or waiting for a slot.
            self.fabric.abort(ReproError("job wait() timed out"))
            if self.coordinator:
                self.coordinator.abort()
            self._join_all(5.0)
            self._status = "failed"
        elif self._preempted:
            self._status = "preempted"
        elif any(o.error for o in self._outcomes):
            self._status = "failed"
        else:
            self._status = "completed"
        if self.coordinator is not None:
            self.coordinator.cancel_pending(f"job {self._status}")
        if self._own_ckpt_dir:
            with contextlib.suppress(OSError):  # not empty: restartable
                os.rmdir(self.config.ckpt_dir)
        return JobResult(self._status, self._outcomes, self.config)

    def _join_all(self, timeout: float) -> None:
        """Join every rank thread against one shared deadline."""
        end = time.monotonic() + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, end - time.monotonic()))

    def run(self, timeout: Optional[float] = None) -> JobResult:
        return self.start().wait(timeout)

    def request_checkpoint(self, kind: str = "in-session",
                           mode: str = "continue") -> CheckpointTicket:
        if self.coordinator is None:
            raise ReproError("checkpointing requires a MANA job (mana=True)")
        return self.coordinator.request_checkpoint(kind, mode)

    def checkpoint_at_iteration(
        self, loop_name: str, iteration: int,
        kind: str = "in-session", mode: str = "continue",
    ) -> CheckpointTicket:
        """Arm a checkpoint that fires deterministically when the named
        resumable loop reaches ``iteration`` (call before start())."""
        if self.coordinator is None:
            raise ReproError("checkpointing requires a MANA job (mana=True)")
        return self.coordinator.checkpoint_at_iteration(
            loop_name, iteration, kind, mode
        )

    # ------------------------------------------------------------------
    def _run_rank(self, rank: int) -> None:
        outcome = self._outcomes[rank]
        cfg = self.config
        cost_model = cost_model_for(cfg.platform, cfg.impl)
        clock = VirtualClock()
        mana: Optional[ManaRank] = None
        lib = None
        self.scheduler.enter(rank)
        try:
            image = self.images[rank] if self.images is not None else None
            if cfg.mana:
                mana = ManaRank(
                    self.fabric, rank, clock, cost_model, cfg.impl,
                    coordinator=self.coordinator,
                    vid_design=cfg.vid_design,
                    ggid_policy=cfg.ggid_policy,
                    seed=cfg.seed,
                    epoch=self.epoch,
                    injector=self.injector,
                )
                self.manas[rank] = mana
                mana.bootstrap()
                MPI = ManaFacade(mana)
            else:
                lib = make_lib(
                    cfg.impl, self.fabric, rank, clock, cost_model,
                    epoch=self.epoch, seed=cfg.seed,
                )
                lib.init()
                MPI = NativeFacade(lib)

            ctx = RankContext(
                rank, cfg.nranks, MPI, clock, cost_model,
                mana=mana, restarting=image is not None,
                injector=self.injector,
            )
            ctx.noise_seed = cfg.seed

            if image is not None:
                clock.set_state(image.clock_state)
                app = image.app
                ctx._loops = dict(image.loops)
                mana.attach_upper(app, ctx)
                mana.restore_from_image(image)
                # Charge restart time: reading the image back (same
                # filesystem model as Table 3) plus replay already having
                # charged its MPI-call costs above.
                from repro.simtime.cost import checkpoint_time

                extra = getattr(app, "simulated_state_bytes", 0) or 0
                clock.advance(
                    checkpoint_time(
                        cost_model.filesystem, cfg.nranks,
                        image.stored_bytes + int(extra),
                    ),
                    "restart",
                )
            else:
                app = self.app_factory(rank)
                if mana is not None:
                    mana.attach_upper(app, ctx)
                    mana.init()
                app.setup(ctx)

            app.run(ctx)

            if mana is not None:
                mana.finalize()
            else:
                lib.finalize()
            outcome.app = app
        except JobPreempted:
            self._preempted = True
            outcome.app = mana._app if mana is not None else None
        except BaseException as exc:  # noqa: BLE001 - report any rank death
            outcome.error = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            # Survivors fail only after this abort reaches them (the
            # same exception re-raised, or an "aborted during ..." error).
            outcome.originating = not self.fabric.aborted
            self.fabric.abort(exc)
            if self.coordinator is not None:
                self.coordinator.abort(exc)
        finally:
            outcome.runtime = clock.now
            outcome.accounts = clock.accounts()
            if mana is not None:
                outcome.cs_count = mana.cs_count
                outcome.wrapped_calls = mana.wrapped_calls
                if mana.lower is not None:
                    outcome.lib_call_counts = dict(mana.lower.call_counts)
            elif lib is not None:
                outcome.lib_call_counts = dict(lib.call_counts)
            self.scheduler.exit(rank)


class Launcher:
    """Builds jobs; the SBATCH of this simulation."""

    def __init__(self, config: JobConfig,
                 restart_policy: Optional[RestartPolicy] = None):
        self.config = config
        self.restart_policy = restart_policy

    def launch(self, app_factory: Callable[[int], object]) -> Job:
        return Job(self.config, app_factory=app_factory)

    def run(self, app_factory: Callable[[int], object],
            timeout: Optional[float] = None) -> JobResult:
        return self.launch(app_factory).run(timeout)

    # ------------------------------------------------------------------
    # supervised (self-healing) execution
    # ------------------------------------------------------------------
    def supervise(self, app_factory: Callable[[int], object],
                  timeout: Optional[float] = None,
                  on_launch: Optional[Callable[[Job], None]] = None,
                  ) -> JobResult:
        """Run under supervision: when the job fails (rank crash, torn
        image, deadline), restore the latest restorable checkpoint
        generation and resume, up to ``restart_policy.max_restarts``
        times.  The returned :class:`JobResult` carries the recovery
        events (rank-failure / restart / recovered) and restart count.

        ``on_launch`` is invoked with the *initial* job before it starts
        (e.g. to arm deterministic ``checkpoint_at_iteration`` triggers);
        restarted jobs resume from images and are not re-armed.
        """
        policy = self.restart_policy or RestartPolicy()
        events: List[dict] = []
        restarts = 0
        job = self.launch(app_factory)
        if on_launch is not None:
            on_launch(job)
        res = job.run(timeout)
        while res.status == "failed":
            events.append(self._failure_event(res))
            ckpt_dir = self.config.resolved_ckpt_dir()
            # Every restart below adopts this same store.
            store = job.store or store_for(ckpt_dir)
            # A failed run may have died mid-mutation (pending journal
            # records, stray temp files).  Repair before choosing a
            # restore point so the fallback never lands on a
            # half-written generation; a clean directory adds no event.
            report = auto_repair(store)
            if report is not None:
                events.append({
                    "event": "fsck",
                    "rolled_back_generations":
                        report.rolled_back_generations,
                })
            gen = store.latest_restorable()
            if gen is None:
                events.append({
                    "event": "no-restorable-generation",
                    "ckpt_dir": ckpt_dir,
                })
                break
            if restarts >= policy.max_restarts:
                events.append({
                    "event": "restart-budget-exhausted",
                    "max_restarts": policy.max_restarts,
                })
                break
            restarts += 1
            skipped = [g for g in store.generations() if g > gen]
            event = {
                "event": "restart",
                "attempt": restarts,
                "generation": gen,
                # Generations newer than the chosen one exist but were
                # not restorable (torn/incomplete); record the fallback.
                "skipped_generations": skipped,
            }
            if skipped:
                # Why each newer generation was passed over — with the
                # base dir relativized so the trace stays bit-identical
                # across runs in different temp directories.
                event["skip_reasons"] = {
                    g: [
                        p.replace(store.base_dir, "<ckpt>")
                        for p in store.validate(g)
                    ]
                    for g in skipped
                }
            if policy.elastic is None:
                events.append(event)
                res = self.restart(
                    store, gen, impl_override=policy.target_impl
                ).run(timeout)
            else:
                cap = policy.capacity[
                    min(restarts - 1, len(policy.capacity) - 1)
                ]
                old_nranks = store.read_manifest(gen)["nranks"]
                if policy.elastic == "shrink_on_node_loss":
                    target = min(cap, old_nranks)
                else:  # grow_to_capacity
                    target = cap
                event["elastic"] = policy.elastic
                event["from_nranks"] = old_nranks
                event["to_nranks"] = target
                events.append(event)
                res = self.elastic_restart(
                    store, new_nranks=target, generation=gen,
                    impl_override=policy.target_impl,
                ).run(timeout)
            if res.status in ("completed", "preempted"):
                events.append({
                    "event": "recovered",
                    "attempt": restarts,
                    "vtime": res.runtime,
                })
        res.recovery_events = events
        res.restarts = restarts
        return res

    @staticmethod
    def _failure_event(res: JobResult) -> dict:
        """Summarize a failed run into one deterministic event.

        The victim is the lowest rank that failed while the job was
        healthy (its virtual clock at the crash is seed-deterministic);
        the other ranks observe the abort at scheduling-dependent times
        — many by re-raising the victim's own exception — so neither
        their clocks nor their tracebacks may pick the victim.
        """
        failed = [r for r in res.ranks if r.error]
        victim = next((r for r in failed if r.originating),
                      failed[0] if failed else None)
        if victim is None:
            return {"event": "rank-failure", "rank": None, "vtime": 0.0,
                    "error": "job failed with no rank error recorded"}
        lines = [ln for ln in victim.error.strip().splitlines()
                 if ln.strip()]
        return {
            "event": "rank-failure",
            "rank": victim.rank,
            "vtime": victim.runtime,
            "error": lines[-1] if lines else "unknown",
        }

    # ------------------------------------------------------------------
    def restart(
        self,
        ckpt_dir,
        generation: Optional[int] = None,
        impl_override: Optional[str] = None,
    ) -> Job:
        """Cold restart from a checkpoint directory (its path or its
        :class:`CheckpointStore`).

        With ``generation=None`` the newest *restorable* generation is
        chosen: complete manifest, an integrity-verified image for every
        rank, cold-restartable kind.  An explicit ``generation`` is
        strict — it restarts that generation or raises.

        ``impl_override`` restarts the job under a different MPI
        implementation — the full-interoperability extension of §9
        (checkpoint under one MPI, restart under another).
        """
        store = store_for(ckpt_dir)
        manifest = self._resolve_manifest(store, generation)
        gen = manifest["generation"]
        nranks = manifest["nranks"]
        images = self._load_images(store, gen, nranks)
        cfg = self._restart_config(
            store, nranks, impl_override or manifest["impl"]
        )
        return self._restored_job(cfg, images, store)

    def elastic_restart(
        self,
        ckpt_dir,
        new_nranks: Optional[int] = None,
        generation: Optional[int] = None,
        impl_override: Optional[str] = None,
    ) -> Job:
        """Cold restart an N-rank checkpoint onto M ranks
        (PROTOCOLS.md §12).

        The upper halves of all N checkpointed ranks are loaded,
        repartitioned by the application's :meth:`repartition` contract,
        virtual-id tables are remapped to the M-rank world, drained
        messages are redistributed, and a fresh M-rank job adopts the
        synthetic images.  The first checkpoint the restored job writes
        is stamped with elastic provenance (from/to nranks and impl,
        source generation).

        ``new_nranks=None`` or the checkpointed count delegates to plain
        :meth:`restart` — equal-size restores keep byte-identical
        recovery traces.  ``impl_override`` composes with resizing
        (checkpoint under one MPI at N ranks, restart under another at
        M).  Raises :class:`ElasticRestartError` when the checkpointed
        state pins the old world size (sub-communicators, cartesian
        topologies, pending requests, or a non-elastic application).
        """
        store = store_for(ckpt_dir)
        manifest = self._resolve_manifest(store, generation)
        gen = manifest["generation"]
        old_nranks = manifest["nranks"]
        if new_nranks is None or new_nranks == old_nranks:
            return self.restart(
                store, generation=gen, impl_override=impl_override
            )
        if new_nranks < 1:
            raise ElasticRestartError(
                f"cannot restore onto {new_nranks} ranks"
            )
        vid_design = (manifest.get("extra") or {}).get("vid_design")
        if vid_design != "new":
            raise ElasticRestartError(
                f"generation {gen} was checkpointed with "
                f"vid_design={vid_design!r}; elastic restore requires "
                f"the 'new' (MANA) virtual-id design to remap tables"
            )
        images = self._load_images(store, gen, old_nranks)

        # Step 1: repartition application state N → M.
        app_cls = type(images[0].app)
        repartition = getattr(app_cls, "repartition", None)
        if repartition is None or not getattr(app_cls, "elastic", False):
            raise ElasticRestartError(
                f"application {app_cls.__name__} does not support "
                f"elastic repartitioning (elastic=False or no "
                f"repartition contract)"
            )
        new_apps, plan = repartition(
            [img.app for img in images], new_nranks
        )
        rank_map = plan.rank_map()

        # Step 2 + 3: remap virtual-id tables and redistribute drained
        # messages to the M-rank world.
        target_impl = impl_override or manifest["impl"]
        buffers = {img.rank: img.drain_buffer for img in images}
        new_buffers = redistribute_drain_buffers(
            buffers, rank_map, new_nranks
        )
        new_images: List[CheckpointImage] = []
        for r in range(new_nranks):
            src = plan.src_of(r)
            seed_img = images[src]
            # Deep-copy the seed table: the originals stay pristine so
            # every new rank can fold ledgers from the *unmodified*
            # tables of the old ranks it inherits (and grow clones can
            # share one seed).
            table = pickle.loads(pickle.dumps(seed_img.vid_table))
            remap_world(
                table,
                old_nranks=old_nranks,
                new_nranks=new_nranks,
                old_rank=src,
                new_rank=r,
                rank_map=rank_map,
                merge_tables=[
                    images[o].vid_table for o in plan.merged_into(r)
                ],
            )
            new_images.append(CheckpointImage(
                rank=r,
                nranks=new_nranks,
                impl=target_impl,
                kind=seed_img.kind,
                generation=gen,
                app=new_apps[r],
                loops=dict(seed_img.loops),
                vid_table=table,
                drain_buffer=new_buffers[r],
                clock_state=copy.deepcopy(seed_img.clock_state),
                rng_state=copy.deepcopy(seed_img.rng_state),
                cs_count=seed_img.cs_count,
                epoch=seed_img.epoch,
                stored_bytes=seed_img.stored_bytes,
            ))

        # Step 4: a fresh M-rank job adopts the synthetic images; its
        # first checkpoint is stamped with elastic provenance.  The job
        # derives its epoch from the seed images, which must carry the
        # old world's (all ranks share one).
        assert (max(img.epoch for img in new_images)
                == max(img.epoch for img in images)), "ranks disagree on epoch"
        cfg = self._restart_config(store, new_nranks, target_impl)
        job = self._restored_job(cfg, new_images, store)
        if job.coordinator is not None:
            job.coordinator.stamp_elastic({
                "from_nranks": old_nranks,
                "to_nranks": new_nranks,
                "from_impl": manifest["impl"],
                "to_impl": target_impl,
                "source_generation": gen,
            })
        return job

    # -- restart plumbing ----------------------------------------------
    @staticmethod
    def _resolve_manifest(store: CheckpointStore,
                          generation: Optional[int]) -> dict:
        """Resolve a restart target to its manifest.

        ``generation=None`` picks the newest restorable generation (or
        raises with per-generation diagnostics); an explicit generation
        is strict.  Either way the result must be cold-restartable.
        """
        if generation is None:
            generation = store.latest_restorable()
            if generation is None:
                gens = store.generations()
                if not gens:
                    raise RestartError(
                        f"no checkpoints under {store.base_dir}"
                    )
                problems = [
                    f"generation {g}: {p}"
                    for g in gens
                    for p in store.validate(g)
                ]
                raise RestartError(
                    "no restorable checkpoint generation under "
                    f"{store.base_dir}: " + "; ".join(problems)
                )
        manifest = store.read_manifest(generation)
        if not manifest["cold_restartable"]:
            raise RestartError(
                f"generation {manifest['generation']} was an in-session "
                f"checkpoint (kind={manifest['kind']}); only LOOP-kind "
                f"images are cold-restartable (DESIGN.md §5)"
            )
        return manifest

    @staticmethod
    def _load_images(store: CheckpointStore, gen: int,
                     nranks: int) -> List[CheckpointImage]:
        # Pin the generation while images stream in: a concurrent prune
        # (keep_generations GC racing a supervised fallback restore)
        # must not delete images under our feet.
        with store.pinned(gen):
            return [
                store.load_image(store.image_path(gen, r),
                                 expect_nranks=nranks)
                for r in range(nranks)
            ]

    def _restart_config(
        self, store: CheckpointStore, nranks: int, impl: str
    ) -> JobConfig:
        return replace(self.config, nranks=nranks, impl=impl, mana=True,
                       ckpt_dir=store.base_dir)

    @staticmethod
    def _restored_job(cfg: JobConfig, images: List[CheckpointImage],
                      store: CheckpointStore) -> Job:
        job = Job(cfg, images=images, store=store)
        # New checkpoints must not clobber generations newer than the
        # one being restored (e.g. an incomplete one we skipped).
        existing = store.generations()
        if existing:
            job.coordinator.generation = existing[-1]
        return job

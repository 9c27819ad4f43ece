"""Background drainer for asynchronous format-5 checkpoints.

The synchronous save path keeps every rank parked while its chunks are
hashed, compressed, and written.  The async path (PROTOCOLS.md §11)
splits the round at the save barrier: each rank *snapshots* — stages the
already-pickled bytes of its upper half with the coordinator — and
resumes computing; this module's single drainer thread then encodes and
writes the whole generation in the background.

Invariants the drainer maintains:

* **At most one drain in flight.**  The coordinator's save-gate action
  waits (wall-clock) for the previous drain before admitting the next
  round — natural back-pressure, and the reason the virtual-time
  *overrun* accounting needs to consider only one outstanding drain.
* **No half-visible generations.**  The generation is pinned
  (:func:`repro.mana.checkpoint.pin_generation`) before its first image
  is written and chunk digests are store-pinned while their referencing
  header is in flight, so concurrent pruning/GC cannot reclaim what the
  drain is about to reference.  The manifest — what marks a generation
  restorable — is written only after every rank image is durable.
* **Deterministic failure.**  An injected fault during the drain deletes
  the generation's partial rank images (the chunk store is
  content-addressed, so orphan chunks are harmless until GC'd), records
  an ``async-drain-failed`` round event, and fails the ticket; restarts
  fall back to the previous complete generation exactly as they would
  after a synchronous mid-save crash.
* **Tickets complete after resume.**  The ticket's ``_done`` fires only
  once the round's ranks have passed the resume gate *and* the drain has
  settled, so ``request_checkpoint``'s one-in-flight check never sees a
  done ticket whose round is still holding gates.

Nothing the drainer measures in wall-clock ever reaches a virtual
clock: time charged to the simulation is derived from byte counts by
:class:`repro.simtime.cost.CheckpointCostModel` in the coordinator.
"""

from __future__ import annotations

import glob
import os
import queue
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.mana import checkpoint as ckpt
from repro.mana import storeio
from repro.mana.journal import Journal


@dataclass
class DrainJob:
    """One staged generation: everything the drainer needs to make it
    durable without touching live rank state."""

    generation: int
    ticket: object
    #: rank -> {"path": image path, "image": CheckpointImage,
    #:          "blob": pickled upper half (the snapshot)}
    ranks: Dict[int, Dict]
    #: Rank 0's :func:`write_manifest` fields (None when another round
    #: already failed).
    manifest: Optional[Dict]
    #: Set by the coordinator once the round's ranks passed resume.
    resume_event: threading.Event
    #: Virtual time of the snapshot barrier (fault-hook timestamps).
    vtime: float
    #: Mean logical bytes per rank (drain_time modeling in the result).
    logical_mean: float


class AsyncSaveDrainer:
    """Single background thread that drains staged checkpoint
    generations for one coordinator."""

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self._q: "queue.Queue[Optional[DrainJob]]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        #: Summary of the most recently settled drain:
        #: {"generation": int, "dedup": dict-or-None (None = failed)}.
        self.last_drain: Optional[Dict] = None
        self._thread = threading.Thread(
            target=self._run, name="ckpt-drain", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, job: DrainJob) -> None:
        self._idle.clear()
        self._q.put(job)

    def wait_idle(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Block until no drain is in flight; returns the last drain's
        summary (or None if nothing ever drained)."""
        self._idle.wait(timeout)
        return self.last_drain

    def shutdown(self, timeout: float = 300.0) -> None:
        """Finish queued drains, then stop the thread."""
        self.wait_idle(timeout)
        self._q.put(None)
        self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            job = self._q.get()
            if job is None:
                return
            try:
                self._drain_one(job)
            finally:
                if self._q.empty():
                    self._idle.set()

    def _drain_one(self, job: DrainJob) -> None:
        # Everything the drainer writes is labeled with the "drain"
        # operation context, so its crash points are named drain.* and a
        # crash-injection sweep can target the async path separately
        # from the synchronous save path.
        coord = self.coordinator
        busy = max(1, coord.save_workers)   # this thread, or its pool
        with storeio.op_context("drain"), coord.scheduler.lent(busy):
            self._drain_one_inner(job)

    def _drain_one_inner(self, job: DrainJob) -> None:
        coord = self.coordinator
        base = coord.ckpt_dir
        store = coord.chunk_store
        ckpt.pin_generation(base, job.generation)
        pinned = True
        stats: Dict[int, Dict] = {}
        error: Optional[BaseException] = None
        try:
            pool = coord.save_pool()
            for rank in sorted(job.ranks):
                item = job.ranks[rank]
                stats[rank] = ckpt.save_chunked_blob(
                    item["path"], item["image"], item["blob"], store,
                    injector=coord.injector, vtime=job.vtime,
                    pool=pool, pin=True,
                )
        except BaseException as exc:  # noqa: BLE001 - fault => fail gen
            error = exc
        try:
            if error is None:
                # Journal the finalize as one unit: manifest commit plus
                # the post-commit prune.  A crash in between leaves the
                # record pending and fsck rolls forward (the manifest is
                # on disk) and finishes any half-done prune.
                fin = Journal(base).begin(
                    "drain-finalize", generation=job.generation
                )
                dedup = self._finish_generation(job, stats)
            else:
                dedup = None
                self._abandon_generation(job, error)
            # The generation is now either fully durable (manifest on
            # disk) or fully gone — safe to unpin before pruning so the
            # fresh generation counts toward keep_generations.
            ckpt.unpin_generation(base, job.generation)
            pinned = False
            if (error is None and job.manifest is not None
                    and coord.keep_generations):
                ckpt.prune_generations(base, coord.keep_generations)
            if error is None:
                Journal(base).retire(fin)
        finally:
            if pinned:
                ckpt.unpin_generation(base, job.generation)
        self.last_drain = {"generation": job.generation, "dedup": dedup}
        # Complete the ticket only after the ranks passed resume (or the
        # coordinator aborted and they never will).
        while not job.resume_event.wait(0.05):
            if coord._aborted is not None:
                break
        t = job.ticket
        if t is not None:
            t._done.set()

    # ------------------------------------------------------------------
    def _finish_generation(self, job: DrainJob,
                           stats: Dict[int, Dict]) -> Dict:
        coord = self.coordinator
        dedup = ckpt.dedup_summary(stats.values())
        coord.last_dedup = dedup
        t = job.ticket
        if t is not None:
            t.result["dedup"] = dedup
            # The modeled background cost of this drain — what the next
            # round's overrun accounting will charge if it arrives
            # before this much virtual time has passed.
            t.result["drain_time"] = coord.ckpt_cost.drain_time(
                coord.fs_profile, coord.nranks, int(job.logical_mean),
                coord._written_logical(dedup, job.logical_mean),
            )
        if job.manifest is not None:
            ckpt.write_manifest(
                coord.ckpt_dir, job.generation, dedup=dedup, **job.manifest
            )
        return dedup

    def _abandon_generation(self, job: DrainJob,
                            error: BaseException) -> None:
        """A drain fault fails the whole generation: remove its partial
        rank images so no restart can pick a half-written generation
        (orphaned chunks are reclaimed by the next GC)."""
        coord = self.coordinator
        for item in job.ranks.values():
            # Both the durable image and any torn temp file an injected
            # mid-save fault left behind (unique per-writer names plus
            # the legacy bare ``.tmp`` suffix).
            victims = [item["path"], item["path"] + ".tmp"]
            victims += glob.glob(glob.escape(item["path"]) + ".*.tmp")
            for victim in victims:
                try:
                    os.remove(victim)
                except OSError:
                    pass
        # The rollback happened in-process — the drainer survives the
        # fault — so this generation's pending image-save records must
        # be retired here, or a later fsck would mistake the *handled*
        # fault for a dirty shutdown.
        Journal(coord.ckpt_dir).retire_matching(
            op="image-save", generation=job.generation
        )
        ckpt.invalidate_checkpoint_caches(coord.ckpt_dir)
        coord.round_events.append({
            "event": "async-drain-failed",
            "generation": job.generation,
            "error": str(error),
        })
        t = job.ticket
        if t is not None and t.error is None:
            t.error = error

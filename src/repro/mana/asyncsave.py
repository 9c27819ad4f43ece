"""Background drainer for asynchronous format-5 checkpoints.

The synchronous save path keeps every rank parked while its chunks are
hashed, compressed, and written.  The async path (PROTOCOLS.md §11)
splits the round at the save barrier: each rank *snapshots* — hands the
already-pickled bytes of its upper half to the coordinator in its
``saved`` call — and resumes computing; this module's single drainer
thread then encodes and writes the whole generation in the background
and commits it with :meth:`CheckpointStore.commit` — the same call the
coordinator's save-gate action makes in a synchronous round.

Invariants the drainer maintains:

* **At most one drain in flight.**  The coordinator's save-gate action
  waits (wall-clock) for the previous drain before admitting the next
  round — natural back-pressure, and the reason the virtual-time
  *overrun* accounting (:meth:`AsyncSaveDrainer.overrun`) needs to
  consider only the previous drain.
* **No half-visible generations.**  The generation is pinned
  (:meth:`CheckpointStore.pin`) before its first image is written and
  chunk digests are chunk-store-pinned while their referencing header
  is in flight, so concurrent pruning/GC cannot reclaim what the drain
  is about to reference.  The manifest — what marks a generation
  restorable — is written only after every rank image is durable, and
  before the pin is dropped; the commit's prune runs after it, so the
  new generation counts toward ``keep_generations``.
* **Deterministic failure.**  An injected fault during the drain deletes
  the generation's partial rank images (the chunk store is
  content-addressed, so orphan chunks are harmless until GC'd), records
  an ``async-drain-failed`` round event, and fails the ticket; restarts
  fall back to the previous complete generation exactly as they would
  after a synchronous mid-save crash.
* **Tickets complete after resume.**  The drainer reports the commit
  half of the ticket (:meth:`CheckpointTicket.settle`) once the commit
  settled, done or failed; the coordinator's resume-gate action reports
  the other half.  Whichever comes last completes the ticket.

Nothing the drainer measures in wall-clock ever reaches a virtual
clock: time charged to the simulation is derived from byte counts by
:class:`repro.simtime.cost.CheckpointCostModel` in the coordinator.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.mana.checkpoint import dedup_summary


@dataclass
class DrainJob:
    """One staged generation: everything the drainer needs to make it
    durable without touching live rank state."""

    #: The round's :class:`CheckpointTicket`; its generation is drained.
    ticket: object
    #: rank -> {"image": CheckpointImage,
    #:          "blob": pickled upper half (the snapshot)}
    ranks: Dict[int, Dict]
    #: The :meth:`CheckpointStore.write_manifest` fields, less ``dedup``.
    manifest: Dict
    #: Virtual time of the snapshot barrier (fault-hook timestamps).
    vtime: float
    #: Modeled virtual time the drain starts (the snapshot's end).
    drain_start: float
    #: Mean logical bytes per rank (drain_time modeling in the result).
    logical_mean: float


class AsyncSaveDrainer:
    """Single background thread that drains staged checkpoint
    generations for one coordinator into its checkpoint store."""

    def __init__(self, coordinator, store):
        self.coordinator = coordinator
        self.store = store
        self._q: "queue.Queue[Optional[DrainJob]]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        # (ticket, drain_start) of the latest drain submitted — what the
        # next round's overrun accounting charges against.
        self._previous: Optional[Tuple[object, float]] = None
        self._thread = threading.Thread(
            target=self._run, name="ckpt-drain", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, job: DrainJob) -> None:
        self._idle.clear()
        self._previous = (job.ticket, job.drain_start)
        self._q.put(job)

    def overrun(self, vtime: float) -> float:
        """Virtual time a round snapshotting at ``vtime`` waits for the
        previous drain: that drain's modeled completion (its start +
        ``drain_time`` over its byte counts) minus ``vtime`` — analytic,
        never a wall-clock measurement, so recovery traces stay
        deterministic however fast the drainer actually ran.  Valid once
        :meth:`wait_idle` returned."""
        if self._previous is None:
            return 0.0
        prev, start = self._previous
        # No modeled drain_time: that drain failed, nothing to wait.
        if "drain_time" not in prev.result:
            return 0.0
        return max(0.0, start + prev.result["drain_time"] - vtime)

    def wait_idle(self, timeout: Optional[float] = None) -> None:
        """Block until no drain is in flight."""
        self._idle.wait(timeout)

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
        coord, store = self.coordinator, self.store
        t = job.ticket
        # Everything the drainer writes passes the "drain" operation
        # context, so its crash points are named drain.* and a
        # crash-injection sweep can target the async path separately
        # from the synchronous save path.
        busy = max(1, coord.save_workers)   # this thread, or its pool
        with coord.scheduler.lent(busy):
            store.pin(t.generation)   # dropped by the commit, or below
            try:
                pool = coord.save_pool()
                dedup = dedup_summary([
                    store.save(
                        item["image"], item["blob"],
                        injector=coord.injector, vtime=job.vtime,
                        pool=pool, pin=True, context="drain",
                    )
                    for _, item in sorted(job.ranks.items())
                ])
            except BaseException as exc:  # noqa: BLE001 - fail the gen
                t.error = t.error or exc
                store.unpin(t.generation)
                self._abandon_generation(job, exc)
            else:
                t.result["dedup"] = dedup
                # The modeled background cost of this drain — what the
                # next round's overrun accounting charges if it arrives
                # before this much virtual time has passed.
                t.result["drain_time"] = coord.ckpt_cost.drain_time(
                    coord.fs_profile, coord.nranks, int(job.logical_mean),
                    coord._written_logical(dedup, job.logical_mean),
                )
                try:
                    store.commit(t.generation, dict(job.manifest, dedup=dedup),
                                 coord.keep_generations, unpin=True,
                                 context="drain")
                except Exception as exc:  # repairing it is fsck's job
                    t.error = t.error or exc
        t.settle()

    def _abandon_generation(self, job: DrainJob,
                            error: BaseException) -> None:
        """A drain fault fails the whole generation: remove its partial
        rank images and torn temp files so no restart can pick a
        half-written generation (orphaned chunks are reclaimed by the
        next GC)."""
        coord, store = self.coordinator, self.store
        generation = job.ticket.generation
        store.remove_generation(generation, "drain")
        # The rollback happened in-process — the drainer survives the
        # fault — so this generation's pending image-save records must
        # be retired here, or a later fsck would mistake the *handled*
        # fault for a dirty shutdown.
        store.journal.retire_matching(op="image-save", generation=generation,
                                      context="drain")
        coord.round_events.append({
            "event": "async-drain-failed",
            "generation": generation,
            "error": str(error),
        })

"""Background drain for asynchronous format-5 checkpoints.

The synchronous save path keeps every rank parked while its chunks are
hashed, compressed, and written.  The async path (PROTOCOLS.md §11)
splits the round at the save barrier: each rank *snapshots* — hands the
already-pickled bytes of its upper half to the coordinator in its
``saved`` call — and resumes computing; the save-gate action then starts
one thread for the round that runs :func:`drain_generation`, which
encodes and writes the whole generation in the background and commits
it with :meth:`CheckpointStore.commit` — the same call the coordinator's
save-gate action makes in a synchronous round.

Invariants the drain maintains:

* **At most one drain in flight.**  The next round's save-gate action
  joins this round's thread (wall-clock) before it starts its own —
  natural back-pressure, and the reason the virtual-time *overrun*
  accounting (:meth:`CheckpointCoordinator._drain_overrun`) needs to
  consider only the previous drain.  Job teardown
  (:meth:`CheckpointCoordinator.cancel_pending`) joins the last one; a
  job abort does not touch it, so a drain in flight when a rank dies
  still commits its generation.
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
* **Tickets complete after resume.**  The drain reports the commit half
  of the ticket (:meth:`CheckpointTicket.settle`) in a ``finally``, so
  it is reported even when the clean-up itself raises; the coordinator's
  resume-gate action reports the other half.  Whichever comes last
  completes the ticket.

Nothing the drain measures in wall-clock ever reaches a virtual clock:
time charged to the simulation is derived from byte counts by
:class:`repro.simtime.cost.CheckpointCostModel` in the coordinator.
"""

from __future__ import annotations

from typing import Dict

from repro.mana.checkpoint import dedup_summary


def drain_generation(coord, ticket, ranks: Dict[int, Dict], manifest: Dict,
                     vtime: float, logical_mean: float) -> None:
    """Make one snapshotted generation durable and commit it.

    ``ranks`` maps rank -> ``{"image", "blob"}`` (the snapshot),
    ``manifest`` holds the :meth:`CheckpointStore.write_manifest` fields
    less ``dedup``, ``vtime`` is the snapshot barrier's virtual time
    (fault-hook timestamps) and ``logical_mean`` the mean logical bytes
    per rank (the modeled ``drain_time``)."""
    store, t = coord.store, ticket
    # Everything the drain writes passes the "drain" operation context,
    # so its crash points are named drain.* and a crash-injection sweep
    # can target the async path separately from the synchronous one.
    busy = max(1, coord.save_workers)   # this thread, or the pool
    try:
        with coord.scheduler.lent(busy):
            store.pin(t.generation)   # dropped by the commit, or below
            try:
                dedup = dedup_summary([
                    store.save(
                        item["image"], item["blob"],
                        injector=coord.injector, vtime=vtime,
                        pool=coord.save_pool, pin=True, context="drain",
                    )
                    for _, item in sorted(ranks.items())
                ])
            except BaseException as exc:  # noqa: BLE001 - fail the gen
                t.error = t.error or exc
                store.unpin(t.generation)
                _abandon_generation(coord, t.generation, exc)
                return
            t.result["dedup"] = dedup
            # The modeled background cost of this drain — what the next
            # round's overrun accounting charges if it arrives before
            # this much virtual time has passed.
            t.result["drain_time"] = coord.ckpt_cost.drain_time(
                coord.fs_profile, coord.nranks, int(logical_mean),
                coord._written_logical(dedup, logical_mean),
            )
            try:
                store.commit(t.generation, dict(manifest, dedup=dedup),
                             coord.keep_generations, unpin=True,
                             context="drain")
            except Exception as exc:  # repairing it is fsck's job
                t.error = t.error or exc
    finally:
        t.settle()


def _abandon_generation(coord, generation: int,
                        error: BaseException) -> None:
    """A drain fault fails the whole generation: remove its partial rank
    images and torn temp files so no restart can pick a half-written
    generation (orphaned chunks are reclaimed by the next GC)."""
    store = coord.store
    store.remove_generation(generation, "drain")
    # The rollback happened in-process — the job survives the fault — so
    # this generation's pending image-save records must be retired here,
    # or a later fsck would mistake the *handled* fault for a dirty
    # shutdown.
    store.journal.retire_matching(op="image-save", generation=generation,
                                  context="drain")
    coord.round_events.append({
        "event": "async-drain-failed",
        "generation": generation,
        "error": str(error),
    })

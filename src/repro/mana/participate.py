"""The rank side of a checkpoint round (PROTOCOLS.md §4): quiesce →
drain → save → resume, one coordinator phase gate after each step.

A rank drains its own messages, writes (async: snapshots) its own image
and, in a RELAUNCH round, rebuilds its own lower half.  The global
steps are the coordinator's: its save-gate action commits the
generation (:meth:`CheckpointStore.commit`, itself or in an async
round's drain thread), so no rank writes a manifest — rank 0 only hands over
the manifest fields it knows.  ``mana`` below is the rank's
:class:`repro.mana.wrappers.ManaRank`.
"""

from __future__ import annotations

from typing import Dict

from repro.mana import checkpoint as ckpt
from repro.mana import replay as replay_mod
from repro.mana.coordinator import CheckpointKind, CheckpointMode
from repro.mana.drain import run_drain
from repro.util.errors import CheckpointRoundAborted, JobPreempted


def checkpoint_participate(mana) -> None:
    """Run this rank's part of a checkpoint.  Called from any safe
    point; returns when the job resumes (or raises JobPreempted).

    An aborted round (injected coordinator stall, or a failure detected
    mid-round) surfaces as :class:`CheckpointRoundAborted` out of the
    phase calls; while the coordinator keeps the same ticket armed — it
    bounds retries — this rank simply re-enters the round."""
    coord = mana.coordinator
    while True:
        ticket = coord.intent
        if ticket is None:
            return
        try:
            _participate_once(mana, ticket)
            return
        except CheckpointRoundAborted:
            # Re-read the intent: the coordinator either re-armed the
            # same ticket (retry the round) or failed it (return to the
            # application).
            continue


def _participate_once(mana, ticket) -> None:
    """One attempt at the quiesce → drain → save → resume round."""
    coord = mana.coordinator
    attempt = coord.begin_participation(mana.rank)

    coord.quiesce(mana.rank, mana.clock.now, attempt)
    if mana.injector is not None:
        mana.injector.crash_point(
            "pre-drain", mana.rank, ticket.generation, mana.clock.now
        )
    # From here until resume, every lower-half call is MANA-internal
    # (the app is parked); record the delta to audit the paper's
    # Section 5 required-subset claim.
    calls_before = dict(mana.lower.call_counts)
    run_drain(mana)
    if mana.injector is not None:
        mana.injector.crash_point(
            "post-drain", mana.rank, ticket.generation, mana.clock.now
        )
    coord.drained(mana.rank, attempt)

    nbytes, stats, snapshot = _write_image(mana, ticket)
    coord.saved(
        mana.rank, nbytes, attempt, stats=stats, snapshot=snapshot,
        manifest=_rank0_manifest(mana, ticket) if mana.rank == 0 else None,
    )

    # Charge the checkpoint's cost to virtual time (Table 3 model).
    mana.clock.merge(attempt.start)
    mana.clock.advance(attempt.duration, "checkpoint")

    if ticket.mode == CheckpointMode.RELAUNCH:
        _relaunch_lower(mana)
        # Replay ran against a brand-new library: audit it all.
        mana.last_internal_calls = dict(mana.lower.call_counts)
    else:
        mana.last_internal_calls = {
            name: n - calls_before.get(name, 0)
            for name, n in mana.lower.call_counts.items()
            if n > calls_before.get(name, 0)
        }

    coord.resumed(mana.rank, attempt)

    if ticket.mode == CheckpointMode.EXIT:
        raise JobPreempted(ticket.generation)


def _rank0_manifest(mana, ticket) -> Dict:
    """The :meth:`CheckpointStore.write_manifest` fields a rank knows;
    rank 0 hands them to the coordinator at the save gate, which adds
    the loop target and the round's dedup summary and commits."""
    coord = mana.coordinator
    # Key order is part of the manifest's bytes.
    extra = {"vid_design": mana.vids.design_name}
    if coord.async_save:
        extra["async"] = True
    if coord.elastic_provenance is not None:
        extra["elastic"] = dict(coord.elastic_provenance)
    return {
        "nranks": mana.fabric.nranks,
        "impl": mana.impl_name,
        "kind": ticket.kind,
        "cold_restartable": ticket.kind == CheckpointKind.LOOP,
        "extra": extra,
    }


def _write_image(mana, ticket):
    """Serialize this rank's image and persist it into the coordinator's
    checkpoint store — or, in an async round, snapshot it; returns
    ``(logical_bytes, savestats, snapshot)``, one of the last two None.

    The image goes through the incremental path (chunked, deduped,
    compressed) on the coordinator's save worker pool.
    ``logical_bytes`` is always the logical upper-half size — the
    quantity Table 3's filesystem model is calibrated against — never
    the post-dedup physical bytes.
    """
    loops = dict(mana._ctx._loops) if mana._ctx is not None else {}
    image = ckpt.CheckpointImage(
        rank=mana.rank,
        nranks=mana.fabric.nranks,
        impl=mana.impl_name,
        kind=ticket.kind,
        generation=ticket.generation,
        app=mana._app,
        loops=loops,
        vid_table=mana.vids,
        drain_buffer=mana.drain_buffer,
        clock_state=mana.clock.get_state(),
        rng_state=None,
        cs_count=mana.cs_count,
        epoch=mana.epoch,
    )
    coord = mana.coordinator
    savestats = snapshot = None
    if coord.async_save:
        # Async save: the pickle below IS the snapshot — a cheap,
        # consistent copy taken while every rank is parked.  The
        # encode+write moves to the round's background drain thread;
        # this rank resumes computing after the barrier.
        blob = ckpt.pickle_upper_half(image)
        snapshot = {"image": image, "blob": blob}
        nbytes = len(blob)
    else:
        # Synchronous save: compression, hashing and file writes
        # release the interpreter lock, so the rank gives its run slot
        # up while it is in them.
        with mana.fabric.scheduler.released(mana.rank):
            # The writer fans ~256 KiB chunk runs into the shared pool,
            # so chunks of every rank interleave; faults still surface
            # in this rank's thread.
            savestats = coord.store.save(
                image, injector=mana.injector, vtime=mana.clock.now,
                pool=coord.save_pool,
            )
        nbytes = savestats["payload_bytes"] + savestats["file_bytes"]
    # Proxy applications hold a scaled-down working set; they declare
    # the full-size resident bytes the real application would have
    # checkpointed (Table 3 image sizes).  Accounting — not storage.
    extra = getattr(mana._app, "simulated_state_bytes", 0) or 0
    return nbytes + int(extra), savestats, snapshot


def _relaunch_lower(mana) -> None:
    """Discard the lower half and rebuild it — the restart path of
    Figure 1, exercised without killing the process."""
    mana.lower.shutdown()
    mana.epoch += 1
    mana._launch_lower()
    # Invalidate every physical binding, then replay.
    for entry in list(mana.vids.entries()):
        if entry.phys is not None:
            mana.vids.set_phys(mana.vids.embed(entry.vid), None)
    replay_mod.replay_all(mana)

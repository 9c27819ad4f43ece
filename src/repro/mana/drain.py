"""Checkpoint-time quiesce and point-to-point drain (paper Section 5).

MANA cannot touch the network below MPI, so the drain uses only the
paper's category-1 functions: ``MPI_Iprobe`` to detect pending messages,
``MPI_Recv`` to pull them out, ``MPI_Test`` to complete pending
nonblocking receives, plus ``MPI_Alltoall`` to exchange send counts.

Protocol (all ranks are parked at safe points; no new user sends can be
posted):

1. finalize any deferred communicator ggids (lazy/hybrid policy) and
   decode any not-yet-decoded datatypes while the lower half is alive;
2. complete every pending nonblocking receive whose message has already
   arrived (``MPI_Test``);
3. exchange cumulative per-destination send counts with ``MPI_Alltoall``
   on MPI_COMM_WORLD: afterwards each rank knows exactly how many user
   messages were ever sent to it by each peer;
4. while any peer's received-count lags its sent-count: ``MPI_Test`` the
   pending receives again, then ``MPI_Iprobe``/``MPI_Recv`` each live
   communicator and stash the raw bytes in the drain buffer;
5. when all counters match, the network holds no user point-to-point
   traffic — checkpointing the upper half alone is now sound.

Messages pulled in step 4 are replayed transparently: the receive-side
wrappers consult the drain buffer before the (possibly brand-new) lower
half, preserving MPI's non-overtaking order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mana.records import RequestRecord
from repro.mpi import constants as C
from repro.mpi.api import HandleKind
from repro.util.errors import CheckpointError


@dataclass
class DrainedMessage:
    """One user message pulled from the network at checkpoint time."""

    comm_vid: int      # virtual id of the communicator (stable forever)
    src_world: int     # world rank of the sender
    src_comm_rank: int
    tag: int
    payload: bytes

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class DrainBuffer:
    """FIFO of drained messages, matched like the fabric matches.

    Part of the upper-half state: pickled into the checkpoint image and
    consumed by post-restart receives.
    """

    def __init__(self) -> None:
        self._messages: List[DrainedMessage] = []

    def add(self, msg: DrainedMessage) -> None:
        self._messages.append(msg)

    def match(
        self, comm_vid: int, src_world: int, tag: int, *, remove: bool = True
    ) -> Optional[DrainedMessage]:
        """Oldest message matching (comm, source, tag); wildcards allowed.

        ``src_world`` may be ``ANY_SOURCE`` and ``tag`` may be ``ANY_TAG``.
        """
        for i, m in enumerate(self._messages):
            if m.comm_vid != comm_vid:
                continue
            if src_world != C.ANY_SOURCE and m.src_world != src_world:
                continue
            if tag != C.ANY_TAG and m.tag != tag:
                continue
            return self._messages.pop(i) if remove else m
        return None

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self):
        return iter(self._messages)


def redistribute_drain_buffers(
    buffers: dict, rank_map: dict, new_nranks: int
) -> List[DrainBuffer]:
    """Reroute checkpointed drain buffers to a new world size
    (PROTOCOLS.md §12, step 3).

    ``buffers`` maps old rank → its checkpointed :class:`DrainBuffer`;
    ``rank_map`` is the repartition plan's old rank → unique-inheritor
    map.  A message drained by old rank ``o`` was addressed to ``o``'s
    identity, so it moves to ``rank_map[o]``; its sender coordinates are
    rewritten the same way.  ``src_comm_rank`` equals ``src_world`` on
    world-sized communicators (comm rank == world rank) and is rewritten
    with it; on a self communicator it is 0 and stays 0.  Old ranks are
    visited in ascending order and each buffer in FIFO order, so the
    non-overtaking order *per sender* survives the merge.
    """
    out = [DrainBuffer() for _ in range(new_nranks)]
    for old_rank in sorted(buffers):
        for msg in buffers[old_rank]:
            new_src = rank_map[msg.src_world]
            out[rank_map[old_rank]].add(
                DrainedMessage(
                    comm_vid=msg.comm_vid,
                    src_world=new_src,
                    src_comm_rank=(
                        new_src
                        if msg.src_comm_rank == msg.src_world
                        else msg.src_comm_rank
                    ),
                    tag=msg.tag,
                    payload=msg.payload,
                )
            )
    return out


def run_drain(mana) -> int:
    """Execute the drain on one rank; returns messages drained.

    ``mana`` is the rank's :class:`repro.mana.wrappers.ManaRank`; every
    MPI operation below goes through its *lower half* library directly
    (MANA-internal traffic is not wrapped and not counted).
    """
    lib = mana.lower
    nranks = lib.nranks
    world_phys = lib.constant("MPI_COMM_WORLD")
    byte_phys = lib.constant("MPI_BYTE")
    int64_phys = lib.constant("MPI_INT64_T")

    # Step 1: deferred ggids and datatype decoding.
    mana.vids.finalize_ggids()
    mana.ensure_datatypes_decoded()

    # Step 2/precount: complete matchable pending receives.
    _test_pending_recvs(mana)

    # Step 3: exchange cumulative send counts.
    sent = np.zeros(nranks, dtype=np.int64)
    for entry in mana.vids.entries(HandleKind.COMM):
        for dst_world, n in entry.record.sent_to.items():
            sent[dst_world] += n
    expected = np.zeros(nranks, dtype=np.int64)
    lib.alltoall(sent, 1, int64_phys, expected, 1, int64_phys, world_phys)

    # Step 4: drain until counters match.
    drained = 0
    while True:
        received = _received_counts(mana, nranks)
        lagging = np.nonzero(received < expected)[0]
        if lagging.size == 0:
            break
        progressed = _test_pending_recvs(mana)
        for entry in list(mana.vids.entries(HandleKind.COMM)):
            rec = entry.record
            if entry.phys is None:
                continue
            while True:
                flag, st = lib.iprobe(C.ANY_SOURCE, C.ANY_TAG, entry.phys)
                if not flag:
                    break
                buf = np.empty(max(st.count_bytes, 1), dtype=np.uint8)
                st2 = lib.recv(
                    buf, st.count_bytes, byte_phys, st.source, st.tag,
                    entry.phys,
                )
                src_world = rec.world_ranks[st2.source]
                mana.drain_buffer.add(
                    DrainedMessage(
                        comm_vid=entry.vid,
                        src_world=src_world,
                        src_comm_rank=st2.source,
                        tag=st2.tag,
                        payload=buf[: st2.count_bytes].tobytes(),
                    )
                )
                rec.received_from[src_world] = (
                    rec.received_from.get(src_world, 0) + 1
                )
                drained += 1
                progressed = True
        if not progressed:
            received = _received_counts(mana, nranks)
            still = np.nonzero(received < expected)[0]
            if still.size:
                raise CheckpointError(
                    f"rank {lib.world_rank}: drain stalled; peers "
                    f"{still.tolist()} sent more messages than can be "
                    f"found (expected={expected.tolist()}, "
                    f"received={received.tolist()})"
                )

    # Invariant: nothing addressed to this rank remains in the fabric on
    # any *user* context.  (Collective contexts are empty by the
    # all-returned invariant; MANA-internal traffic is consumed inline.)
    return drained


def _received_counts(mana, nranks: int) -> np.ndarray:
    received = np.zeros(nranks, dtype=np.int64)
    for entry in mana.vids.entries(HandleKind.COMM):
        for src_world, n in entry.record.received_from.items():
            received[src_world] += n
    return received


def _test_pending_recvs(mana) -> bool:
    """MPI_Test every pending nonblocking receive; completed ones write
    into their (upper-half) buffers and bump the drain counters."""
    lib = mana.lower
    progressed = False
    for entry in list(mana.vids.entries(HandleKind.REQUEST)):
        rec = entry.record
        if not isinstance(rec, RequestRecord):
            continue
        if rec.completed or rec.kind != "recv":
            continue
        if rec.inactive:
            continue  # nothing outstanding
        if entry.phys is None:
            continue  # not posted in this lower half (will re-post at restart)
        flag, st = lib.test(entry.phys)
        if flag:
            rec.completed = True
            rec.status = st
            if not rec.persistent:
                # The lib request is retired; persistent ones stay bound
                # (the lib object merely went inactive).
                mana.vids.set_phys(mana.vids.embed(entry.vid), None)
            mana._count_recv(mana._comm_of(rec), st.source)
            progressed = True
    return progressed

"""Reconstruction records — the MANA-internal structure behind each vid.

Section 4.2: "Each virtual id in the new design is represented by a
structure that corresponds to an MPI communicator, group, request,
operation, or datatype.  This structure contains additional MANA-specific
information associated with that MPI object ... used to correctly save
the state of MPI objects created by the lower-half MPI library."

Records hold everything needed to re-create a *semantically equivalent*
MPI object in a fresh lower half.  They are implementation-oblivious by
construction: world-rank memberships, datatype descriptor trees, registry
names — never physical handles of any particular implementation.

All records are picklable; they are saved verbatim inside the upper-half
checkpoint image ("MANA does not require a special data structure in the
checkpoint image to identify these structures" — they are just part of
upper-half memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import TypeDescriptor
from repro.mpi.group import ggid_of
from repro.mpi.objects import Status


@dataclass
class ConstantRecord:
    """A predefined MPI object (MPI_COMM_WORLD, MPI_INT, MPI_SUM, ...).

    Reconstruction = asking the new lower half for the constant again.
    Stable across restarts and across *implementations* — the key to the
    cross-implementation restart experiment.
    """

    name: str


@dataclass
class CommRecord:
    """A user-created communicator.

    ``world_ranks`` is the membership in MPI_COMM_WORLD rank order —
    sufficient to reconstruct the communicator via MPI_Comm_split on
    MPI_COMM_WORLD at restart (the standard-calls-only replay of §5).

    ``ggid`` is the paper's global group id; ``dup_seq`` disambiguates
    communicators with identical membership (e.g. MPI_Comm_dup results):
    because communicator creation is collective, every member rank
    observes the same creation order and thus computes the same dup_seq.

    ``cart`` stores cartesian topology so MANA can answer topology
    queries from its own records (and restore topology after restart,
    where the comm is rebuilt by comm_split and would otherwise lose it).

    ``sent_to``/``received_from`` are the per-peer message counters the
    drain protocol exchanges at checkpoint time — an example of the
    "additional MANA-internal information" §4.2 says lives in the
    virtual-id structure.
    """

    world_ranks: Tuple[int, ...]
    ggid: Optional[int]
    dup_seq: int
    name: str = ""
    cart: Optional[Tuple[Tuple[int, ...], Tuple[bool, ...]]] = None
    # drain bookkeeping: world rank -> wrapper-level user message count
    sent_to: Dict[int, int] = field(default_factory=dict)
    received_from: Dict[int, int] = field(default_factory=dict)
    # wrapper-level collective sequence number (trivial-barrier key)
    coll_seq: int = 0
    # Cached communicator attributes (MPI_Comm_set_attr): because they
    # live in the MANA record, they ride inside the checkpoint image and
    # survive restarts without any replay — another use of §4.2's
    # "additional MANA-specific information".
    attributes: Dict[int, object] = field(default_factory=dict)

    def key(self) -> Tuple[int, int]:
        """Globally agreed identity of this communicator."""
        g = self.ggid if self.ggid is not None else ggid_of(self.world_ranks)
        return (g, self.dup_seq)


@dataclass
class GroupRecord:
    """A user-created group: world-rank membership in group-rank order."""

    world_ranks: Tuple[int, ...]


@dataclass
class DatatypeRecord:
    """A user-created datatype.

    ``descriptor`` is the full structural tree, obtained at commit time
    by decoding the lower-half object with MPI_Type_get_envelope /
    MPI_Type_get_contents (paper §5, category 2) — NOT by trusting
    MANA's own bookkeeping, so the record provably contains only what
    any standards-compliant implementation can report.
    """

    descriptor: TypeDescriptor
    committed: bool = False


@dataclass
class OpRecord:
    """A reduction op: a predefined name, or a registered user function."""

    predefined_name: Optional[str] = None
    registry_name: Optional[str] = None
    commute: bool = True

    def __post_init__(self):
        if self.predefined_name is None and self.registry_name is None:
            raise ValueError(
                "user MPI_Op functions must be registered with "
                "repro.util.registry.user_op before use, or they cannot "
                "be reconstructed at restart"
            )


@dataclass
class RequestRecord:
    """A nonblocking operation.

    Only *pending receives* survive a checkpoint (the eager fabric
    completes sends at post time, and MANA forces completion of anything
    completable during the drain).  ``buf`` is the application's receive
    buffer: because the image is one pickle, the array here and the same
    array inside the application state remain one object after restore.
    """

    kind: str                      # "send" | "recv"
    comm_vid: int
    peer: int                      # comm rank or ANY_SOURCE
    tag: int
    count: int
    datatype_vid: int
    buf: Optional[np.ndarray] = None
    completed: bool = False
    status: Optional[Status] = None
    # Persistent requests (MPI_Send_init/Recv_init): the record outlives
    # completion; ``active`` marks an outstanding started cycle.  At
    # restart, persistent requests are re-created with *_init and, if a
    # cycle was outstanding, re-started.
    persistent: bool = False
    active: bool = False


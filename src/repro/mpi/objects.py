"""Internal structs that physical MPI handles point to.

These are the moral equivalents of MPICH's ``MPID_Comm`` /
``ompi_communicator_t`` etc.  A handle (whatever its representation)
resolves to one of these; MANA never sees them directly — it only sees
handles, which is what keeps MANA implementation-oblivious.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import TypeDescriptor
from repro.mpi.group import GroupData
from repro.util.errors import MpiError


@dataclass
class Status:
    """MPI_Status: returned by value, never a handle."""

    source: int = -1
    tag: int = -1
    error: int = 0
    count_bytes: int = 0
    cancelled: bool = False


@dataclass
class CartInfo:
    """Cartesian topology attached to a communicator."""

    dims: Tuple[int, ...]
    periods: Tuple[bool, ...]

    def coords_of(self, rank: int) -> Tuple[int, ...]:
        coords = []
        for extent in reversed(self.dims):
            coords.append(rank % extent)
            rank //= extent
        return tuple(reversed(coords))

    def rank_of(self, coords: Tuple[int, ...]) -> int:
        rank = 0
        for extent, c in zip(self.dims, coords):
            rank = rank * extent + (c % extent)
        return rank

    def shift(self, rank: int, direction: int, disp: int) -> Tuple[int, int]:
        """MPI_Cart_shift: (source, dest) ranks, PROC_NULL at open edges."""
        from repro.mpi.constants import PROC_NULL

        coords = list(self.coords_of(rank))

        def neighbor(delta: int) -> int:
            c = coords[direction] + delta
            if self.periods[direction]:
                c %= self.dims[direction]
            elif not 0 <= c < self.dims[direction]:
                return PROC_NULL
            nc = list(coords)
            nc[direction] = c
            return self.rank_of(tuple(nc))

        return neighbor(-disp), neighbor(+disp)


@dataclass
class CommObject:
    """A communicator: a group plus a communication context."""

    group: GroupData
    context_id: int
    my_world_rank: int
    name: str = ""
    topo: Optional[CartInfo] = None
    freed: bool = False
    # Cached communicator attributes (MPI_Comm_set_attr): keyval -> value.
    attributes: Dict[int, object] = field(default_factory=dict)
    # Monotonic per-communicator counter of collective operations; used by
    # the library to derive deterministic child context ids without a
    # global allocator (DESIGN.md §4).
    coll_seq: int = 0

    @property
    def rank(self) -> int:
        return self.group.rank_of(self.my_world_rank)

    @property
    def size(self) -> int:
        return self.group.size

    def check_live(self) -> None:
        if self.freed:
            raise MpiError(
                f"communicator {self.name or self.context_id} already freed",
                "MPI_ERR_COMM",
            )

    def world_rank_of(self, comm_rank: int) -> int:
        return self.group.world_rank(comm_rank)


@dataclass
class GroupObject:
    data: GroupData
    freed: bool = False

    def check_live(self) -> None:
        if self.freed:
            raise MpiError("group already freed", "MPI_ERR_GROUP")


@dataclass
class DatatypeObject:
    descriptor: TypeDescriptor
    committed: bool
    predefined_name: Optional[str] = None  # set for named types
    freed: bool = False

    def check_live(self) -> None:
        if self.freed:
            raise MpiError("datatype already freed", "MPI_ERR_TYPE")

    def check_committed(self) -> None:
        self.check_live()
        if not self.committed:
            raise MpiError(
                "datatype used in communication before MPI_Type_commit",
                "MPI_ERR_TYPE",
            )


@dataclass
class OpObject:
    """A reduction operation.

    ``fn(invec, inoutvec)`` reduces elementwise into ``inoutvec``.
    ``registry_name`` is set for user ops created from a registered
    function, which is what makes the op reconstructible at restart.
    """

    fn: Callable[[np.ndarray, np.ndarray], None]
    commute: bool
    predefined_name: Optional[str] = None
    registry_name: Optional[str] = None
    freed: bool = False

    def check_live(self) -> None:
        if self.freed:
            raise MpiError("op already freed", "MPI_ERR_OP")


class RequestObject:
    """A nonblocking operation in flight (send or receive).

    Persistent requests (MPI_Send_init/MPI_Recv_init) reuse one object
    across many MPI_Start cycles: ``persistent`` marks them, ``active``
    tracks whether a started operation is outstanding.
    """

    SEND = "send"
    RECV = "recv"

    def __init__(
        self,
        kind: str,
        comm: CommObject,
        tag: int,
        peer: int,  # comm rank of the remote side (or ANY_SOURCE)
        buf: Optional[np.ndarray],
        count: int,
        datatype: DatatypeObject,
    ):
        self.kind = kind
        self.comm = comm
        self.tag = tag
        self.peer = peer
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.complete = False
        self.status = Status()
        self.freed = False
        self.persistent = False
        self.active = False
        self._lock = threading.Lock()

    @property
    def inactive(self) -> bool:
        """A persistent request with no started cycle outstanding."""
        return self.persistent and not self.active

    def mark_complete(self, status: Status) -> None:
        with self._lock:
            self.complete = True
            self.status = status

    def check_live(self) -> None:
        if self.freed:
            raise MpiError("request already freed", "MPI_ERR_REQUEST")

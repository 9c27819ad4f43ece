""":class:`BaseMpiLib` — the shared semantics of all simulated MPI libraries.

A concrete implementation (``repro.impls.*``) subclasses this and supplies
only the things the paper's Section 3 says differ between MPI
implementations:

* a :class:`HandleSpace` — how handles represent internal objects
  (32-bit two-level-table ids for the MPICH family; 64-bit pointers for
  Open MPI; enum + lazy pointers for ExaMPI);
* constant resolution (fixed integers vs init-time functions vs lazy
  shared pointers);
* the supported function subset.

Everything here operates on *handles* at the public surface — the same
opaque values a compiled application would hold — which is what MANA's
wrappers interpose on.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.network import Fabric, Message
from repro.mpi import constants as C
from repro.mpi import datatypes as dt
from repro.mpi.group import EMPTY_GROUP, GroupData
from repro.mpi.objects import (
    CartInfo,
    CommObject,
    DatatypeObject,
    GroupObject,
    OpObject,
    RequestObject,
    Status,
)
from repro.simtime.clock import VirtualClock
from repro.simtime.cost import CostModel
from repro.util.errors import (
    InvalidHandleError,
    MpiAbort,
    MpiError,
    UnsupportedFunctionError,
)
from repro.util.rng import DeterministicRng, _stable_hash


class HandleKind:
    """The five MPI object kinds MANA virtualizes (paper §1.2, point 3)."""

    COMM = "comm"
    GROUP = "group"
    DATATYPE = "datatype"
    OP = "op"
    REQUEST = "request"

    ALL = (COMM, GROUP, DATATYPE, OP, REQUEST)


class HandleSpace:
    """Implementation-specific mapping handle <-> internal object.

    Subclasses define the *representation*; this base class defines the
    contract.  ``handle_bits`` is the declared width of MPI object types
    in the implementation's ``mpi.h`` (32 for the MPICH family, 64 for
    pointer-based implementations).
    """

    handle_bits: int = 32

    def insert(self, kind: str, obj, builtin_name: Optional[str] = None) -> int:
        raise NotImplementedError

    def resolve(self, kind: str, handle: int):
        raise NotImplementedError

    def remove(self, kind: str, handle: int) -> None:
        raise NotImplementedError

    def null_handle(self, kind: str) -> int:
        raise NotImplementedError

    def is_null(self, kind: str, handle: int) -> bool:
        return handle == self.null_handle(kind)


def mpi_call(fn: Callable) -> Callable:
    """Decorator for every public MPI function.

    Enforces initialization and the implementation's declared subset,
    charges the library software cost, and counts the call (the counts
    feed the Section 6.3 context-switch analysis).
    """

    name = fn.__name__

    def wrapper(self: "BaseMpiLib", *args, **kwargs):
        if not self._initialized and name not in ("init", "initialized"):
            raise MpiError(
                f"{name} called before MPI_Init", "MPI_ERR_OTHER"
            )
        if self._finalized and name not in ("initialized", "finalized"):
            raise MpiError(
                f"{name} called after MPI_Finalize", "MPI_ERR_OTHER"
            )
        if name in self.UNSUPPORTED:
            raise UnsupportedFunctionError(self.name, name)
        self.call_counts[name] = self.call_counts.get(name, 0) + 1
        self.clock.advance(self.cost_model.library_call_cost(), "mpi-lib")
        return fn(self, *args, **kwargs)

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


class BaseMpiLib:
    """One rank's instance of a simulated MPI library (a "lower half")."""

    #: implementation name, e.g. "mpich"
    name: str = "base"
    #: function names this implementation does NOT provide (subset impls)
    UNSUPPORTED: frozenset = frozenset()

    def __init__(
        self,
        fabric: Fabric,
        world_rank: int,
        clock: VirtualClock,
        cost_model: CostModel,
        epoch: int = 0,
        seed: int = 0,
    ):
        self.fabric = fabric
        self.world_rank = world_rank
        self.nranks = fabric.nranks
        self.clock = clock
        self.cost_model = cost_model
        # The epoch salts physical ids so restarts produce *different*
        # physical handles/contexts — the hazard virtual ids must absorb.
        self.epoch = epoch
        self.rng = DeterministicRng(seed, f"{self.name}/rank{world_rank}/e{epoch}")
        self.handles: HandleSpace = self._make_handle_space()
        self.call_counts: Dict[str, int] = {}
        self._initialized = False
        self._finalized = False
        self._constants: Dict[str, int] = {}
        self._predefined_types = dt.make_predefined_types()
        self._keyvals: set = set()
        self._next_keyval = 1000 + epoch * 131  # epoch-salted, like handles
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    def _make_handle_space(self) -> HandleSpace:
        raise NotImplementedError

    def constant(self, name: str) -> int:
        """Resolve a global constant name to this instance's handle.

        MPICH family: a fixed compile-time integer (same every session).
        Open MPI: resolved when the library initializes; value varies
        between sessions (paper §4.3).  ExaMPI: resolved lazily on first
        use.  The base implementation is the Open MPI-style eager map;
        subclasses override.
        """
        try:
            return self._constants[name]
        except KeyError:
            raise MpiError(
                f"unknown MPI constant {name!r}", "MPI_ERR_ARG"
            ) from None

    def null_handle(self, kind: str) -> int:
        return self.handles.null_handle(kind)

    # ------------------------------------------------------------------
    # environment management
    # ------------------------------------------------------------------
    @mpi_call
    def init(self) -> None:
        """MPI_Init: create the predefined objects and resolve constants."""
        if self._initialized:
            raise MpiError("MPI_Init called twice", "MPI_ERR_OTHER")
        self._initialized = True
        self._create_builtins()

    def _create_builtins(self) -> None:
        world_group = GroupData(tuple(range(self.nranks)))
        world = CommObject(
            group=world_group,
            context_id=self._world_context_id(),
            my_world_rank=self.world_rank,
            name="MPI_COMM_WORLD",
        )
        selfc = CommObject(
            group=GroupData((self.world_rank,)),
            context_id=self._self_context_id(),
            my_world_rank=self.world_rank,
            name="MPI_COMM_SELF",
        )
        self._register_constant(
            "MPI_COMM_WORLD", HandleKind.COMM, world
        )
        self._register_constant("MPI_COMM_SELF", HandleKind.COMM, selfc)
        self._register_constant(
            "MPI_GROUP_EMPTY", HandleKind.GROUP, GroupObject(EMPTY_GROUP)
        )
        for name, desc in self._predefined_types.items():
            obj = DatatypeObject(
                descriptor=desc, committed=True, predefined_name=name
            )
            self._register_constant(name, HandleKind.DATATYPE, obj)
        for opname in C.PREDEFINED_OPS:
            obj = OpObject(
                fn=_builtin_op_fn(opname),
                commute=True,
                predefined_name=opname,
            )
            self._register_constant(opname, HandleKind.OP, obj)

    def _register_constant(self, name: str, kind: str, obj) -> int:
        handle = self.handles.insert(kind, obj, builtin_name=name)
        self._constants[name] = handle
        return handle

    def _world_context_id(self) -> int:
        # All ranks derive the same pair of context ids for WORLD; the
        # epoch makes them differ across sessions/restarts.
        return 2 * _stable_hash(f"world/{self.name}/{self.epoch}") % (1 << 30)

    def _self_context_id(self) -> int:
        return (
            2
            * _stable_hash(
                f"self/{self.name}/{self.epoch}/{self.world_rank}"
            )
            % (1 << 30)
        )

    @mpi_call
    def initialized(self) -> bool:
        return self._initialized

    @mpi_call
    def finalized(self) -> bool:
        return self._finalized

    @mpi_call
    def finalize(self) -> None:
        self._finalized = True

    def shutdown(self) -> None:
        """Tear the instance down without MPI semantics (used when MANA
        discards a lower half at checkpoint time)."""
        self._finalized = True

    @mpi_call
    def abort(self, comm: int, errorcode: int) -> None:
        exc = MpiAbort(errorcode)
        self.fabric.abort(exc)
        raise exc

    @mpi_call
    def wtime(self) -> float:
        return self.clock.now

    @mpi_call
    def get_processor_name(self) -> str:
        # 56 cores/node on Discovery; nodes are filled rank-major.
        return f"node{self.world_rank // 56:03d}"

    # ------------------------------------------------------------------
    # handle resolution helpers
    # ------------------------------------------------------------------
    def _comm(self, handle: int) -> CommObject:
        obj = self.handles.resolve(HandleKind.COMM, handle)
        obj.check_live()
        return obj

    def _group(self, handle: int) -> GroupObject:
        obj = self.handles.resolve(HandleKind.GROUP, handle)
        obj.check_live()
        return obj

    def _dtype(self, handle: int) -> DatatypeObject:
        obj = self.handles.resolve(HandleKind.DATATYPE, handle)
        obj.check_live()
        return obj

    def _op(self, handle: int) -> OpObject:
        obj = self.handles.resolve(HandleKind.OP, handle)
        obj.check_live()
        return obj

    def _request(self, handle: int) -> RequestObject:
        obj = self.handles.resolve(HandleKind.REQUEST, handle)
        obj.check_live()
        return obj

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    @mpi_call
    def comm_rank(self, comm: int) -> int:
        return self._comm(comm).rank

    @mpi_call
    def comm_size(self, comm: int) -> int:
        return self._comm(comm).size

    @mpi_call
    def comm_group(self, comm: int) -> int:
        c = self._comm(comm)
        return self.handles.insert(HandleKind.GROUP, GroupObject(c.group))

    @mpi_call
    def comm_compare(self, comm1: int, comm2: int) -> int:
        c1, c2 = self._comm(comm1), self._comm(comm2)
        if c1 is c2 or c1.context_id == c2.context_id:
            return C.IDENT
        group_rel = c1.group.compare(c2.group)
        if group_rel == C.IDENT:
            return C.CONGRUENT  # same group, different context (e.g. dup)
        return group_rel

    @mpi_call
    def comm_dup(self, comm: int) -> int:
        c = self._comm(comm)
        seq = self._advance_comm_seq(c)
        from repro.mpi.collectives import barrier as _barrier

        _barrier(self, c)
        new = CommObject(
            group=c.group,
            context_id=self._derive_context(c.context_id, seq, 0),
            my_world_rank=self.world_rank,
            name=f"{c.name}+dup{seq}" if c.name else f"dup{seq}",
        )
        return self.handles.insert(HandleKind.COMM, new)

    @mpi_call
    def comm_split(self, comm: int, color: int, key: int) -> int:
        c = self._comm(comm)
        seq = self._advance_comm_seq(c)
        from repro.mpi.collectives import allgather_obj

        entries = allgather_obj(self, c, (color, key, self.world_rank))
        if color == C.UNDEFINED:
            return self.handles.null_handle(HandleKind.COMM)
        mine = sorted(
            (k, w) for (col, k, w) in entries if col == color
        )
        ranks = tuple(w for _, w in mine)
        new = CommObject(
            group=GroupData(ranks),
            context_id=self._derive_context(c.context_id, seq, color + 1),
            my_world_rank=self.world_rank,
            name=f"split({color})",
        )
        return self.handles.insert(HandleKind.COMM, new)

    @mpi_call
    def comm_split_type(self, comm: int, split_type: int, key: int) -> int:
        """MPI_Comm_split_type(COMM_TYPE_SHARED): one communicator per
        shared-memory node (ranks are packed 56 per node, Discovery's
        core count)."""
        if split_type != C.COMM_TYPE_SHARED:
            raise MpiError(
                f"unsupported split_type {split_type}", "MPI_ERR_ARG"
            )
        node = self.world_rank // C.CORES_PER_NODE
        return self.comm_split.__wrapped__(self, comm, node, key)

    @mpi_call
    def comm_create(self, comm: int, group: int) -> int:
        c = self._comm(comm)
        g = self._group(group)
        seq = self._advance_comm_seq(c)
        from repro.mpi.collectives import barrier as _barrier

        _barrier(self, c)
        if not g.data.contains(self.world_rank):
            return self.handles.null_handle(HandleKind.COMM)
        new = CommObject(
            group=g.data,
            context_id=self._derive_context(
                c.context_id, seq, _stable_hash(str(g.data.ranks))
            ),
            my_world_rank=self.world_rank,
            name="created",
        )
        return self.handles.insert(HandleKind.COMM, new)

    @mpi_call
    def comm_free(self, comm: int) -> None:
        c = self._comm(comm)
        if c.name in ("MPI_COMM_WORLD", "MPI_COMM_SELF"):
            raise MpiError("cannot free a predefined communicator", "MPI_ERR_COMM")
        c.freed = True
        self.handles.remove(HandleKind.COMM, comm)

    def _advance_comm_seq(self, c: CommObject) -> int:
        c.coll_seq += 1
        return c.coll_seq

    def _derive_context(self, parent_ctx: int, seq: int, salt: int) -> int:
        """Deterministic child context id (even; odd = collective ctx).

        Identical on every participating rank because (parent_ctx, seq,
        salt) agree; differs across epochs because parent_ctx does.
        """
        return 2 * (
            _stable_hash(f"{parent_ctx}/{seq}/{salt}/{self.epoch}")
            % (1 << 30)
        )

    # ------------------------------------------------------------------
    # group management
    # ------------------------------------------------------------------
    @mpi_call
    def group_size(self, group: int) -> int:
        return self._group(group).data.size

    @mpi_call
    def group_rank(self, group: int) -> int:
        return self._group(group).data.rank_of(self.world_rank)

    @mpi_call
    def group_incl(self, group: int, ranks: Sequence[int]) -> int:
        g = self._group(group)
        return self.handles.insert(
            HandleKind.GROUP, GroupObject(g.data.incl(ranks))
        )

    @mpi_call
    def group_excl(self, group: int, ranks: Sequence[int]) -> int:
        g = self._group(group)
        return self.handles.insert(
            HandleKind.GROUP, GroupObject(g.data.excl(ranks))
        )

    @mpi_call
    def group_union(self, g1: int, g2: int) -> int:
        a, b = self._group(g1), self._group(g2)
        return self.handles.insert(
            HandleKind.GROUP, GroupObject(a.data.union(b.data))
        )

    @mpi_call
    def group_intersection(self, g1: int, g2: int) -> int:
        a, b = self._group(g1), self._group(g2)
        return self.handles.insert(
            HandleKind.GROUP, GroupObject(a.data.intersection(b.data))
        )

    @mpi_call
    def group_difference(self, g1: int, g2: int) -> int:
        a, b = self._group(g1), self._group(g2)
        return self.handles.insert(
            HandleKind.GROUP, GroupObject(a.data.difference(b.data))
        )

    @mpi_call
    def group_translate_ranks(
        self, g1: int, ranks: Sequence[int], g2: int
    ) -> List[int]:
        a, b = self._group(g1), self._group(g2)
        return a.data.translate_ranks(ranks, b.data)

    @mpi_call
    def group_compare(self, g1: int, g2: int) -> int:
        return self._group(g1).data.compare(self._group(g2).data)

    @mpi_call
    def group_free(self, group: int) -> None:
        g = self._group(group)
        g.freed = True
        self.handles.remove(HandleKind.GROUP, group)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    @mpi_call
    def send(
        self, buf: np.ndarray, count: int, datatype: int, dest: int,
        tag: int, comm: int,
    ) -> None:
        self._send_impl(buf, count, datatype, dest, tag, comm)

    def _send_impl(self, buf, count, datatype, dest, tag, comm) -> None:
        c = self._comm(comm)
        if dest == C.PROC_NULL:
            return
        d = self._dtype(datatype)
        d.check_committed()
        payload = d.descriptor.pack(buf, count)
        self.fabric.post_send(
            src=self.world_rank,
            dst=c.world_rank_of(dest),
            tag=tag,
            context_id=c.context_id,
            payload=payload,
            send_time=self.clock.now,
        )

    @mpi_call
    def recv(
        self, buf: np.ndarray, count: int, datatype: int, source: int,
        tag: int, comm: int,
    ) -> Status:
        c = self._comm(comm)
        if source == C.PROC_NULL:
            return Status(source=C.PROC_NULL, tag=C.ANY_TAG)
        d = self._dtype(datatype)
        d.check_committed()
        src_world = (
            C.ANY_SOURCE if source == C.ANY_SOURCE else c.world_rank_of(source)
        )
        msg = self.fabric.wait_match(
            self.world_rank, src_world, tag, c.context_id,
            deadline=self._deadline(),
        )
        return self._complete_recv(c, d, buf, count, msg)

    def _complete_recv(
        self, c: CommObject, d: DatatypeObject, buf, count, msg: Message
    ) -> Status:
        d.descriptor.unpack(msg.payload, buf, count)
        self.clock.merge(msg.arrive_time)
        return Status(
            source=c.group.rank_of(msg.src),
            tag=msg.tag,
            count_bytes=msg.nbytes,
        )

    @mpi_call
    def isend(
        self, buf, count: int, datatype: int, dest: int, tag: int, comm: int
    ) -> int:
        c = self._comm(comm)
        d = self._dtype(datatype)
        req = RequestObject(
            RequestObject.SEND, c, tag, dest, None, count, d
        )
        if dest != C.PROC_NULL:
            self._send_impl(buf, count, datatype, dest, tag, comm)
        # Eager fabric: a send request is complete as soon as it's posted.
        req.mark_complete(Status())
        return self.handles.insert(HandleKind.REQUEST, req)

    @mpi_call
    def irecv(
        self, buf, count: int, datatype: int, source: int, tag: int, comm: int
    ) -> int:
        c = self._comm(comm)
        d = self._dtype(datatype)
        d.check_committed()
        req = RequestObject(
            RequestObject.RECV, c, tag, source, buf, count, d
        )
        if source == C.PROC_NULL:
            req.mark_complete(Status(source=C.PROC_NULL))
        return self.handles.insert(HandleKind.REQUEST, req)

    @mpi_call
    def send_init(
        self, buf, count: int, datatype: int, dest: int, tag: int, comm: int
    ) -> int:
        """MPI_Send_init: a persistent send request (inactive)."""
        c = self._comm(comm)
        d = self._dtype(datatype)
        req = RequestObject(RequestObject.SEND, c, tag, dest, buf, count, d)
        req.persistent = True
        return self.handles.insert(HandleKind.REQUEST, req)

    @mpi_call
    def recv_init(
        self, buf, count: int, datatype: int, source: int, tag: int,
        comm: int,
    ) -> int:
        """MPI_Recv_init: a persistent receive request (inactive)."""
        c = self._comm(comm)
        d = self._dtype(datatype)
        d.check_committed()
        req = RequestObject(RequestObject.RECV, c, tag, source, buf, count, d)
        req.persistent = True
        return self.handles.insert(HandleKind.REQUEST, req)

    @mpi_call
    def start(self, request: int) -> None:
        """MPI_Start: activate a persistent request."""
        req = self._request(request)
        if not req.persistent:
            raise MpiError("MPI_Start on a non-persistent request",
                           "MPI_ERR_REQUEST")
        if req.active:
            raise MpiError("MPI_Start on an already-active request",
                           "MPI_ERR_REQUEST")
        req.active = True
        req.complete = False
        if req.kind == RequestObject.SEND:
            if req.peer != C.PROC_NULL:
                d = req.datatype
                d.check_committed()
                payload = d.descriptor.pack(req.buf, req.count)
                self.fabric.post_send(
                    src=self.world_rank,
                    dst=req.comm.world_rank_of(req.peer),
                    tag=req.tag,
                    context_id=req.comm.context_id,
                    payload=payload,
                    send_time=self.clock.now,
                )
            req.mark_complete(Status())
        elif req.peer == C.PROC_NULL:
            req.mark_complete(Status(source=C.PROC_NULL))

    @mpi_call
    def startall(self, requests: Sequence[int]) -> None:
        for r in requests:
            self.start.__wrapped__(self, r)

    @mpi_call
    def request_free(self, request: int) -> None:
        """MPI_Request_free (persistent requests only here)."""
        req = self._request(request)
        if req.active and not req.complete:
            raise MpiError("freeing an active persistent request",
                           "MPI_ERR_REQUEST")
        req.freed = True
        self.handles.remove(HandleKind.REQUEST, request)

    @mpi_call
    def test(self, request: int) -> Tuple[bool, Status]:
        req = self._request(request)
        if req.persistent and not req.active:
            return True, Status()  # inactive persistent: trivially done
        if req.complete:
            self._retire(request, req)
            return True, req.status
        assert req.kind == RequestObject.RECV
        c = req.comm
        src_world = (
            C.ANY_SOURCE
            if req.peer == C.ANY_SOURCE
            else c.world_rank_of(req.peer)
        )
        msg = self.fabric.try_match(
            self.world_rank, src_world, req.tag, c.context_id
        )
        if msg is None:
            return False, Status()
        status = self._complete_recv(c, req.datatype, req.buf, req.count, msg)
        req.mark_complete(status)
        self._retire(request, req)
        return True, status

    @mpi_call
    def wait(self, request: int) -> Status:
        req = self._request(request)
        if req.persistent and not req.active:
            return Status()
        if req.complete:
            self._retire(request, req)
            return req.status
        c = req.comm
        src_world = (
            C.ANY_SOURCE
            if req.peer == C.ANY_SOURCE
            else c.world_rank_of(req.peer)
        )
        msg = self.fabric.wait_match(
            self.world_rank, src_world, req.tag, c.context_id,
            deadline=self._deadline(),
        )
        status = self._complete_recv(c, req.datatype, req.buf, req.count, msg)
        req.mark_complete(status)
        self._retire(request, req)
        return status

    @mpi_call
    def waitall(self, requests: Sequence[int]) -> List[Status]:
        return [self.wait(r) for r in requests]

    @mpi_call
    def testall(self, requests: Sequence[int]) -> Tuple[bool, List[Status]]:
        # Nondestructive unless all complete, per the standard.
        pending = [self._request(r) for r in requests]
        if all(r.complete for r in pending):
            statuses = []
            for h, r in zip(requests, pending):
                statuses.append(r.status)
                self._retire(h, r)
            return True, statuses
        # Try to progress receives opportunistically.
        for r in pending:
            if not r.complete and r.kind == RequestObject.RECV:
                c = r.comm
                src_world = (
                    C.ANY_SOURCE
                    if r.peer == C.ANY_SOURCE
                    else c.world_rank_of(r.peer)
                )
                msg = self.fabric.try_match(
                    self.world_rank, src_world, r.tag, c.context_id
                )
                if msg is not None:
                    r.mark_complete(
                        self._complete_recv(c, r.datatype, r.buf, r.count, msg)
                    )
        if all(r.complete for r in pending):
            statuses = []
            for h, r in zip(requests, pending):
                statuses.append(r.status)
                self._retire(h, r)
            return True, statuses
        return False, []

    def _retire(self, handle: int, req: RequestObject) -> None:
        if req.persistent:
            # Persistent requests survive completion: they become
            # inactive and can be started again (MPI-3 3.9).
            req.active = False
            req.complete = False
            return
        if not req.freed:
            req.freed = True
            self.handles.remove(HandleKind.REQUEST, handle)

    @mpi_call
    def iprobe(
        self, source: int, tag: int, comm: int
    ) -> Tuple[bool, Status]:
        c = self._comm(comm)
        src_world = (
            C.ANY_SOURCE if source == C.ANY_SOURCE else c.world_rank_of(source)
        )
        res = self.fabric.iprobe(self.world_rank, src_world, tag, c.context_id)
        if res is None:
            return False, Status()
        return True, Status(
            source=c.group.rank_of(res.src),
            tag=res.tag,
            count_bytes=res.nbytes,
        )

    @mpi_call
    def probe(self, source: int, tag: int, comm: int) -> Status:
        # Blocking probe built on iprobe (keeps the fabric API minimal).
        # Event-driven: park instead of spinning; an arrival between the
        # check and the park leaves a permit, so the park returns at once.
        while True:
            flag, status = self.iprobe.__wrapped__(self, source, tag, comm)
            if flag:
                return status
            self.fabric.wait_activity(self.world_rank)

    @mpi_call
    def sendrecv(
        self,
        sendbuf, sendcount: int, sendtype: int, dest: int, sendtag: int,
        recvbuf, recvcount: int, recvtype: int, source: int, recvtag: int,
        comm: int,
    ) -> Status:
        self._send_impl(sendbuf, sendcount, sendtype, dest, sendtag, comm)
        return self.recv.__wrapped__(
            self, recvbuf, recvcount, recvtype, source, recvtag, comm
        )

    @mpi_call
    def waitany(self, requests: Sequence[int]) -> Tuple[int, Status]:
        """MPI_Waitany: block until one request completes; returns its
        index and status."""
        if not requests:
            raise MpiError("waitany on empty request list", "MPI_ERR_REQUEST")
        while True:
            for i, r in enumerate(requests):
                flag, st = self.test.__wrapped__(self, r)
                if flag:
                    return i, st
            self.fabric.wait_activity(self.world_rank)
            if self.fabric.aborted:
                raise MpiError("job aborted during waitany", "MPI_ERR_OTHER")

    @mpi_call
    def testany(self, requests: Sequence[int]) -> Tuple[bool, int, Status]:
        """MPI_Testany: (flag, index, status) for the first completable."""
        for i, r in enumerate(requests):
            flag, st = self.test.__wrapped__(self, r)
            if flag:
                return True, i, st
        return False, C.UNDEFINED, Status()

    @mpi_call
    def pack(
        self, inbuf, incount: int, datatype: int, outbuf, position: int
    ) -> int:
        """MPI_Pack: append ``incount`` elements to ``outbuf`` at byte
        ``position``; returns the new position."""
        d = self._dtype(datatype)
        d.check_committed()
        payload = d.descriptor.pack(inbuf, incount)
        out = np.asarray(outbuf).view(np.uint8).reshape(-1)
        end = position + len(payload)
        if end > out.size:
            raise MpiError(
                f"pack buffer too small: need {end}, have {out.size}",
                "MPI_ERR_BUFFER",
            )
        out[position:end] = np.frombuffer(payload, dtype=np.uint8)
        return end

    @mpi_call
    def unpack(
        self, inbuf, position: int, outbuf, outcount: int, datatype: int
    ) -> int:
        """MPI_Unpack: read ``outcount`` elements from byte ``position``;
        returns the new position."""
        d = self._dtype(datatype)
        d.check_committed()
        raw = np.asarray(inbuf).view(np.uint8).reshape(-1)
        nbytes = outcount * d.descriptor.size()
        end = position + nbytes
        if end > raw.size:
            raise MpiError(
                f"unpack past end of buffer: need {end}, have {raw.size}",
                "MPI_ERR_BUFFER",
            )
        d.descriptor.unpack(raw[position:end].tobytes(), outbuf, outcount)
        return end

    @mpi_call
    def pack_size(self, incount: int, datatype: int) -> int:
        """MPI_Pack_size: bytes needed to pack ``incount`` elements."""
        return incount * self._dtype(datatype).descriptor.size()

    @mpi_call
    def get_count(self, status: Status, datatype: int) -> int:
        d = self._dtype(datatype)
        return d.descriptor.count_elements(status.count_bytes)

    # ------------------------------------------------------------------
    # collectives (implementations live in repro.mpi.collectives)
    # ------------------------------------------------------------------
    @mpi_call
    def barrier(self, comm: int) -> None:
        from repro.mpi import collectives as coll

        coll.barrier(self, self._comm(comm))

    @mpi_call
    def bcast(self, buf, count: int, datatype: int, root: int, comm: int):
        from repro.mpi import collectives as coll

        coll.bcast(self, self._comm(comm), buf, count, self._dtype(datatype), root)

    @mpi_call
    def reduce(
        self, sendbuf, recvbuf, count: int, datatype: int, op: int,
        root: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.reduce(
            self, self._comm(comm), sendbuf, recvbuf, count,
            self._dtype(datatype), self._op(op), root,
        )

    @mpi_call
    def allreduce(
        self, sendbuf, recvbuf, count: int, datatype: int, op: int, comm: int
    ):
        from repro.mpi import collectives as coll

        coll.allreduce(
            self, self._comm(comm), sendbuf, recvbuf, count,
            self._dtype(datatype), self._op(op),
        )

    @mpi_call
    def alltoall(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcount: int, recvtype: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.alltoall(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcount, self._dtype(recvtype),
        )

    @mpi_call
    def alltoallv(
        self, sendbuf, sendcounts, sdispls, sendtype: int,
        recvbuf, recvcounts, rdispls, recvtype: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.alltoallv(
            self, self._comm(comm), sendbuf, sendcounts, sdispls,
            self._dtype(sendtype), recvbuf, recvcounts, rdispls,
            self._dtype(recvtype),
        )

    @mpi_call
    def gather(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcount: int, recvtype: int, root: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.gather(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcount, self._dtype(recvtype), root,
        )

    @mpi_call
    def gatherv(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcounts, displs, recvtype: int, root: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.gatherv(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcounts, displs, self._dtype(recvtype), root,
        )

    @mpi_call
    def scatter(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcount: int, recvtype: int, root: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.scatter(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcount, self._dtype(recvtype), root,
        )

    @mpi_call
    def scatterv(
        self, sendbuf, sendcounts, displs, sendtype: int,
        recvbuf, recvcount: int, recvtype: int, root: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.scatterv(
            self, self._comm(comm), sendbuf, sendcounts, displs,
            self._dtype(sendtype), recvbuf, recvcount,
            self._dtype(recvtype), root,
        )

    @mpi_call
    def allgather(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcount: int, recvtype: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.allgather(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcount, self._dtype(recvtype),
        )

    @mpi_call
    def allgatherv(
        self, sendbuf, sendcount: int, sendtype: int,
        recvbuf, recvcounts, displs, recvtype: int, comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.allgatherv(
            self, self._comm(comm), sendbuf, sendcount, self._dtype(sendtype),
            recvbuf, recvcounts, displs, self._dtype(recvtype),
        )

    @mpi_call
    def scan(
        self, sendbuf, recvbuf, count: int, datatype: int, op: int, comm: int
    ):
        from repro.mpi import collectives as coll

        coll.scan(
            self, self._comm(comm), sendbuf, recvbuf, count,
            self._dtype(datatype), self._op(op), inclusive=True,
        )

    @mpi_call
    def exscan(
        self, sendbuf, recvbuf, count: int, datatype: int, op: int, comm: int
    ):
        from repro.mpi import collectives as coll

        coll.scan(
            self, self._comm(comm), sendbuf, recvbuf, count,
            self._dtype(datatype), self._op(op), inclusive=False,
        )

    @mpi_call
    def reduce_scatter_block(
        self, sendbuf, recvbuf, recvcount: int, datatype: int, op: int,
        comm: int,
    ):
        from repro.mpi import collectives as coll

        coll.reduce_scatter_block(
            self, self._comm(comm), sendbuf, recvbuf, recvcount,
            self._dtype(datatype), self._op(op),
        )

    # ------------------------------------------------------------------
    # datatypes
    # ------------------------------------------------------------------
    @mpi_call
    def type_contiguous(self, count: int, oldtype: int) -> int:
        base = self._dtype(oldtype)
        base.check_live()
        desc = dt.ContiguousType(count, base.descriptor)
        return self.handles.insert(
            HandleKind.DATATYPE, DatatypeObject(desc, committed=False)
        )

    @mpi_call
    def type_vector(
        self, count: int, blocklength: int, stride: int, oldtype: int
    ) -> int:
        base = self._dtype(oldtype)
        desc = dt.VectorType(count, blocklength, stride, base.descriptor)
        return self.handles.insert(
            HandleKind.DATATYPE, DatatypeObject(desc, committed=False)
        )

    @mpi_call
    def type_indexed(
        self, blocklengths: Sequence[int], displacements: Sequence[int],
        oldtype: int,
    ) -> int:
        base = self._dtype(oldtype)
        desc = dt.IndexedType(blocklengths, displacements, base.descriptor)
        return self.handles.insert(
            HandleKind.DATATYPE, DatatypeObject(desc, committed=False)
        )

    @mpi_call
    def type_create_struct(
        self, blocklengths: Sequence[int], displacements: Sequence[int],
        types: Sequence[int],
    ) -> int:
        bases = [self._dtype(t).descriptor for t in types]
        desc = dt.StructType(blocklengths, displacements, bases)
        return self.handles.insert(
            HandleKind.DATATYPE, DatatypeObject(desc, committed=False)
        )

    @mpi_call
    def type_dup(self, oldtype: int) -> int:
        base = self._dtype(oldtype)
        return self.handles.insert(
            HandleKind.DATATYPE,
            DatatypeObject(base.descriptor, committed=base.committed),
        )

    @mpi_call
    def type_commit(self, datatype: int) -> None:
        self._dtype(datatype).committed = True

    @mpi_call
    def type_free(self, datatype: int) -> None:
        d = self._dtype(datatype)
        if d.predefined_name is not None:
            raise MpiError(
                f"cannot free predefined type {d.predefined_name}",
                "MPI_ERR_TYPE",
            )
        d.freed = True
        self.handles.remove(HandleKind.DATATYPE, datatype)

    @mpi_call
    def type_size(self, datatype: int) -> int:
        return self._dtype(datatype).descriptor.size()

    @mpi_call
    def type_get_extent(self, datatype: int) -> Tuple[int, int]:
        d = self._dtype(datatype).descriptor
        return d.lower_bound(), d.extent()

    @mpi_call
    def type_get_envelope(self, datatype: int) -> dt.Envelope:
        return self._dtype(datatype).descriptor.envelope()

    @mpi_call
    def type_get_contents(self, datatype: int) -> Tuple[
        Tuple[int, ...], Tuple[int, ...], List[int]
    ]:
        """Returns (integers, addresses, datatype handles).

        New handles are created for the inner datatypes, matching the
        standard (the caller must free non-predefined ones).
        """
        d = self._dtype(datatype)
        contents = d.descriptor.contents()
        inner_handles: List[int] = []
        for desc in contents.datatypes:
            if isinstance(desc, dt.NamedType):
                inner_handles.append(self.constant(desc.name))
            else:
                inner_handles.append(
                    self.handles.insert(
                        HandleKind.DATATYPE,
                        DatatypeObject(desc, committed=False),
                    )
                )
        return contents.integers, contents.addresses, inner_handles

    # ------------------------------------------------------------------
    # reduction operations
    # ------------------------------------------------------------------
    @mpi_call
    def op_create(self, fn: Callable, commute: bool) -> int:
        from repro.util.registry import USER_OPS

        obj = OpObject(
            fn=fn, commute=commute, registry_name=USER_OPS.name_of(fn)
        )
        return self.handles.insert(HandleKind.OP, obj)

    @mpi_call
    def op_free(self, op: int) -> None:
        o = self._op(op)
        if o.predefined_name is not None:
            raise MpiError(
                f"cannot free predefined op {o.predefined_name}", "MPI_ERR_OP"
            )
        o.freed = True
        self.handles.remove(HandleKind.OP, op)

    # ------------------------------------------------------------------
    # communicator attributes (keyval caching, MPI-3 6.7)
    # ------------------------------------------------------------------
    @mpi_call
    def comm_create_keyval(self) -> int:
        """MPI_Comm_create_keyval (NULL copy/delete callbacks)."""
        kv = self._next_keyval
        self._next_keyval += 1
        self._keyvals.add(kv)
        return kv

    @mpi_call
    def comm_free_keyval(self, keyval: int) -> None:
        if keyval not in self._keyvals:
            raise MpiError(f"unknown keyval {keyval}", "MPI_ERR_KEYVAL")
        self._keyvals.discard(keyval)

    @mpi_call
    def comm_set_attr(self, comm: int, keyval: int, value) -> None:
        if keyval not in self._keyvals:
            raise MpiError(f"unknown keyval {keyval}", "MPI_ERR_KEYVAL")
        self._comm(comm).attributes[keyval] = value

    @mpi_call
    def comm_get_attr(self, comm: int, keyval: int) -> Tuple[bool, object]:
        attrs = self._comm(comm).attributes
        if keyval in attrs:
            return True, attrs[keyval]
        return False, None

    @mpi_call
    def comm_delete_attr(self, comm: int, keyval: int) -> None:
        self._comm(comm).attributes.pop(keyval, None)

    # ------------------------------------------------------------------
    # cartesian topology
    # ------------------------------------------------------------------
    @mpi_call
    def cart_create(
        self, comm: int, dims: Sequence[int], periods: Sequence[bool],
        reorder: bool = False,
    ) -> int:
        c = self._comm(comm)
        n = 1
        for d in dims:
            n *= d
        if n > c.size:
            raise MpiError(
                f"cartesian grid {tuple(dims)} larger than comm size {c.size}",
                "MPI_ERR_DIMS",
            )
        seq = self._advance_comm_seq(c)
        from repro.mpi.collectives import barrier as _barrier

        _barrier(self, c)
        if c.rank >= n:
            return self.handles.null_handle(HandleKind.COMM)
        ranks = tuple(c.world_rank_of(i) for i in range(n))
        new = CommObject(
            group=GroupData(ranks),
            context_id=self._derive_context(c.context_id, seq, n),
            my_world_rank=self.world_rank,
            name="cart",
            topo=CartInfo(tuple(dims), tuple(bool(p) for p in periods)),
        )
        return self.handles.insert(HandleKind.COMM, new)

    @mpi_call
    def cart_coords(self, comm: int, rank: int) -> Tuple[int, ...]:
        c = self._comm(comm)
        if c.topo is None:
            raise MpiError("communicator has no cartesian topology", "MPI_ERR_TOPOLOGY")
        return c.topo.coords_of(rank)

    @mpi_call
    def cart_rank(self, comm: int, coords: Sequence[int]) -> int:
        c = self._comm(comm)
        if c.topo is None:
            raise MpiError("communicator has no cartesian topology", "MPI_ERR_TOPOLOGY")
        return c.topo.rank_of(tuple(coords))

    @mpi_call
    def cart_shift(
        self, comm: int, direction: int, disp: int
    ) -> Tuple[int, int]:
        c = self._comm(comm)
        if c.topo is None:
            raise MpiError("communicator has no cartesian topology", "MPI_ERR_TOPOLOGY")
        return c.topo.shift(c.rank, direction, disp)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _deadline(self) -> float:
        """Real-time deadline for blocking operations (deadlock guard)."""
        return 120.0

    @staticmethod
    def dims_create(nnodes: int, ndims: int) -> List[int]:
        """MPI_Dims_create: balanced factorization of nnodes."""
        dims = [1] * ndims
        remaining = nnodes
        f = 2
        factors = []
        while f * f <= remaining:
            while remaining % f == 0:
                factors.append(f)
                remaining //= f
            f += 1
        if remaining > 1:
            factors.append(remaining)
        for factor in sorted(factors, reverse=True):
            dims[dims.index(min(dims))] *= factor
        return sorted(dims, reverse=True)


# ----------------------------------------------------------------------
# predefined reduction functions
# ----------------------------------------------------------------------

def _maxloc(invec: np.ndarray, inoutvec: np.ndarray) -> None:
    take = (invec["value"] > inoutvec["value"]) | (
        (invec["value"] == inoutvec["value"])
        & (invec["index"] < inoutvec["index"])
    )
    inoutvec[take] = invec[take]


def _minloc(invec: np.ndarray, inoutvec: np.ndarray) -> None:
    take = (invec["value"] < inoutvec["value"]) | (
        (invec["value"] == inoutvec["value"])
        & (invec["index"] < inoutvec["index"])
    )
    inoutvec[take] = invec[take]


_BUILTIN_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], None]] = {
    "MPI_SUM": lambda a, b: np.add(a, b, out=b),
    "MPI_PROD": lambda a, b: np.multiply(a, b, out=b),
    "MPI_MAX": lambda a, b: np.maximum(a, b, out=b),
    "MPI_MIN": lambda a, b: np.minimum(a, b, out=b),
    "MPI_LAND": lambda a, b: np.copyto(
        b, (a.astype(bool) & b.astype(bool)).astype(b.dtype)
    ),
    "MPI_LOR": lambda a, b: np.copyto(
        b, (a.astype(bool) | b.astype(bool)).astype(b.dtype)
    ),
    "MPI_BAND": lambda a, b: np.bitwise_and(a, b, out=b),
    "MPI_BOR": lambda a, b: np.bitwise_or(a, b, out=b),
    "MPI_MAXLOC": _maxloc,
    "MPI_MINLOC": _minloc,
}


def _builtin_op_fn(name: str) -> Callable[[np.ndarray, np.ndarray], None]:
    try:
        return _BUILTIN_OPS[name]
    except KeyError:
        raise MpiError(f"unknown predefined op {name}", "MPI_ERR_OP") from None

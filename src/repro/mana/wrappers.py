"""MANA's wrapper (stub) functions — Figure 1's upper-half library.

Every MPI call an application makes lands here.  A wrapper:

1. checks for checkpoint intent (the safe-point mechanism);
2. charges the split-process crossing cost (one fs-register switch pair
   per lower-half entry, §6.3/§6.4) and one virtual-id translation;
3. translates virtual handles to the current lower half's physical ids;
4. calls the lower-half library;
5. wraps any newly created physical object in a fresh virtual id with a
   reconstruction record, and returns virtual handles to the app.

Blocking operations never block inside the lower half: every one —
``recv``, ``probe``, ``wait``, ``waitall``, ``waitany`` — runs in one
loop, :meth:`ManaRank._block`, that retries a non-blocking
``MPI_Iprobe``/``MPI_Test`` step and serves an armed checkpoint between
tries (this is what guarantees "no MPI process is blocked in a call to
the lower half at the time of checkpoint", §2.1).  Every completion
function progresses a request through one step,
:meth:`ManaRank._progress`.  The *virtual* cost of polling is charged
analytically — ``wait_time / poll_cycle`` extra crossings — so reported
times are deterministic regardless of host scheduling, while still
reproducing the mechanism behind Open MPI's higher overhead (slower
network calls → longer waits → more polls, §6.1).  In *real* time the
loop is event-driven: instead of sleeping a fixed poll interval it
parks in the job's scheduler (unparked by message arrival, abort, or
checkpoint-intent arming), so blocking-heavy runs stop burning
wall-clock without changing any reported number.

Collectives are two-phase: a checkpoint-tolerant *trivial barrier*
(hosted by the coordinator) followed by the real lower-half collective
as a critical section.

Most wrappers are rows of :data:`repro.mpi.api.SIGNATURES` (handle kind
or plain per argument, local or collective, what to do with the result),
each built into a closure on :class:`ManaRank` at import; only wrappers
with logic of their own are written out.  Every wrapper keeps one rule:
*no handle is translated before the two-phase barrier* — a RELAUNCH
round run from inside it rebuilds the lower half, so an earlier
physical id would name an object of the discarded library.

The rank side of a checkpoint round, which a wrapper enters from a safe
point, lives in :mod:`repro.mana.participate`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, List, Optional, Sequence, Tuple

from repro.impls import make_lib
from repro.impls.facade import _CONSTANT_ATTRS, _NULL_ATTRS, FacadeBase
from repro.mana import checkpoint as ckpt
from repro.mana import constants as mana_constants
from repro.mana import participate
from repro.mana import replay as replay_mod
from repro.mana.coordinator import CheckpointCoordinator
from repro.mana.drain import DrainBuffer
from repro.mana.legacy import LegacyVirtualIdMaps
from repro.mana.records import (
    CommRecord,
    ConstantRecord,
    DatatypeRecord,
    GroupRecord,
    OpRecord,
    RequestRecord,
)
from repro.mana.virtid import KIND_TAGS, VID_LAYOUT, VirtualIdTable
from repro.mpi import constants as C
from repro.mpi.api import (
    COLLECTIVE,
    COMM,
    DTYPE,
    DTYPES,
    GROUP,
    MPI_FUNCTIONS,
    OP,
    SIGNATURES,
    BaseMpiLib,
    HandleKind,
    Sig,
)
from repro.mpi.datatypes import TypeDescriptor
from repro.mpi.objects import CartInfo, Status
from repro.simtime.clock import VirtualClock
from repro.simtime.cost import CostModel
from repro.util.errors import InvalidHandleError, MpiError
from repro.util.registry import USER_OPS

_MAX_POLL_CHARGES = 100_000  # cap on analytically charged polls per wait


def _drained_status(msg) -> Status:
    return Status(source=msg.src_comm_rank, tag=msg.tag, count_bytes=msg.nbytes)


class ManaRank:
    """The per-rank MANA agent: lower half + virtual-id table + wrappers."""

    def __init__(
        self,
        fabric,
        rank: int,
        clock: VirtualClock,
        cost_model: CostModel,
        impl_name: str,
        coordinator: Optional[CheckpointCoordinator] = None,
        vid_design: str = "new",
        ggid_policy: str = "eager",
        seed: int = 0,
        epoch: int = 0,
        injector=None,
    ):
        self.fabric = fabric
        self.rank = rank
        self.clock = clock
        self.cost_model = cost_model
        self.impl_name = impl_name
        self.coordinator = coordinator
        self.vid_design = vid_design
        self.seed = seed
        self.epoch = epoch
        # Optional repro.faults.FaultInjector; None on the hot path.
        self.injector = injector

        self.lower: Optional[BaseMpiLib] = None
        handle_bits = 32  # set for real at bootstrap
        if vid_design == "new":
            self.vids = VirtualIdTable(
                handle_bits, ggid_policy=ggid_policy, clock=clock
            )
        elif vid_design == "legacy":
            self.vids = LegacyVirtualIdMaps(handle_bits, clock=clock)
        else:
            raise ValueError(f"unknown virtual-id design {vid_design!r}")

        self.drain_buffer = DrainBuffer()
        self.cs_count = 0          # lower-half entries ("context switches")
        self.wrapped_calls = 0
        # Coarse-graining factor: one simulated MPI call stands for
        # ``call_weight`` real calls (a simulated iteration is a *block*
        # of real timesteps).  Crossing costs and CS counts scale by it;
        # time-based poll charges do not (waits are already block-level
        # aggregates).  See repro.apps.base.WorkloadSpec.
        self.call_weight = 1
        self._app = None           # the upper half (set by the runtime)
        self._ctx = None
        self._app_initialized = False
        # Functions MANA itself called in the lower half during the most
        # recent checkpoint (drain/save) or restart (replay).
        self.last_internal_calls: dict = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Launch the lower half: the 'small MPI application' of Figure 1
        initializes the real MPI library before the upper half runs."""
        self._launch_lower()
        # Eagerly bind MPI_COMM_WORLD: MANA itself needs it for the drain
        # and the app will ask for it immediately anyway.
        self._constant_handle("MPI_COMM_WORLD")

    def _launch_lower(self) -> None:
        self.lower = make_lib(
            self.impl_name, self.fabric, self.rank, self.clock,
            self.cost_model, epoch=self.epoch, seed=self.seed,
        )
        self.lower.init()
        self.vids.handle_bits = self.lower.handles.handle_bits

    def attach_upper(self, app, ctx) -> None:
        self._app = app
        self._ctx = ctx

    def restore_from_image(self, image: ckpt.CheckpointImage) -> None:
        """Adopt a cold checkpoint image as this rank's upper half.

        Called after :meth:`bootstrap`; replays the virtual-id table into
        the fresh lower half.  All ranks must call this in lockstep.
        """
        self.vids = image.vid_table
        self.vids.clock = self.clock
        self.vids.handle_bits = self.lower.handles.handle_bits
        self.drain_buffer = image.drain_buffer
        self.cs_count = image.cs_count
        self._app_initialized = True
        replay_mod.replay_all(self)

    # ------------------------------------------------------------------
    # cost accounting / safe points
    # ------------------------------------------------------------------
    def _cross(self, n: int = 1, weighted: bool = True) -> None:
        """Charge ``n`` lower-half crossings (fs-register switch pairs +
        one virtual-id translation each).  ``weighted`` applies the
        call-aggregation factor (a wrapped call represents
        ``call_weight`` real calls); poll charges pass weighted=False
        because waits are already block-level aggregates."""
        if weighted:
            n *= self.call_weight
        self.cs_count += n
        self.clock.advance(
            n * self.cost_model.wrapper_crossing_cost(self.vids.design_name),
            "mana-overhead",
        )

    def _enter(self) -> None:
        """Top of every wrapper: safe point + one crossing."""
        self.wrapped_calls += 1
        if self.injector is not None:
            self.injector.on_mpi_call(self.rank, self.wrapped_calls,
                                      self.clock.now)
        self._maybe_checkpoint()
        self._cross()

    def _extra_lib_calls(self, n: int = 1) -> None:
        """Charge ``n`` *additional* lower-half MPI calls per real call.

        Blocking completions under MANA are wrapped as Iprobe/Test loops
        (§2.1), so one application call becomes >= 2 library calls.  Each
        extra call is a crossing (switch + vid) plus the implementation's
        per-call software path — the mechanism behind §6.1's observation
        that Open MPI's slower network calls raise MANA's overhead."""
        self._cross(n)
        self.clock.advance(
            n * self.call_weight * self.cost_model.library_call_cost(),
            "mana-overhead",
        )

    # The rank side of an armed checkpoint round, run from safe points.
    checkpoint_participate = participate.checkpoint_participate

    def _maybe_checkpoint(self) -> None:
        coord = self.coordinator
        if coord is not None and coord.should_park_now():
            self.checkpoint_participate()

    def _block(self, what: str, attempt: Callable,
               drained: Optional[Callable] = None, extra_calls: int = 1):
        """MANA's one blocking loop: each try runs ``drained`` (MANA's
        drain buffer, for calls it can serve), then ``attempt`` (an
        Iprobe/Test step that never blocks) until one returns non-None;
        between tries, :meth:`_await_activity`.  Only a lower-half
        completion is charged: ``extra_calls`` library calls (the
        Iprobe/Test that found it) plus one crossing per poll cycle the
        virtual wait spanned."""
        t_enter = self.clock.now
        while True:
            if drained is not None:
                out = drained()
                if out is not None:
                    return out
            out = attempt()
            if out is not None:
                self._extra_lib_calls(extra_calls)
                wait = self.clock.now - t_enter
                n = min(int(wait / self.cost_model.mana.poll_cycle),
                        _MAX_POLL_CHARGES)
                if n > 0:
                    self._cross(n, weighted=False)
                return out
            self._await_activity(what)

    def _await_activity(self, what: str) -> None:
        """Nothing to complete yet: serve an armed checkpoint, then sleep
        until the fabric changes (PROTOCOLS §8)."""
        self._maybe_checkpoint()
        self.fabric.wait_activity(self.rank)
        if self.fabric.aborted:
            raise MpiError(f"job aborted during {what}", "MPI_ERR_OTHER")

    # ------------------------------------------------------------------
    # translation helpers
    # ------------------------------------------------------------------
    def null_vhandle(self, kind: str) -> int:
        if self.vids.design_name == "new":
            return self.vids.embed(VID_LAYOUT.pack(kind=KIND_TAGS[kind], index=0))
        return 0

    def is_null_vhandle(self, vhandle: int) -> bool:
        if self.vids.design_name == "new":
            return (VirtualIdTable.extract(vhandle) & ((1 << 29) - 1)) == 0
        return vhandle == 0

    def _comm(self, vhandle: int):
        return self.vids.lookup(vhandle, HandleKind.COMM)

    def _dtype(self, vhandle: int):
        return self.vids.lookup(vhandle, HandleKind.DATATYPE)

    def descriptor_of(self, dt_entry) -> TypeDescriptor:
        """Structural descriptor for a datatype entry (decoding it from
        the lower half on first need)."""
        rec = dt_entry.record
        if isinstance(rec, ConstantRecord):
            from repro.mpi.datatypes import NamedType

            name = C.EXAMPI_ALIASES.get(rec.name, rec.name)
            return NamedType(rec.name, C.PREDEFINED_DATATYPES[name])
        if isinstance(rec, DatatypeRecord):
            if rec.descriptor is None:
                rec.descriptor = replay_mod.decode_datatype(
                    self.lower, dt_entry.phys
                )
            return rec.descriptor
        raise InvalidHandleError(
            f"vid {dt_entry.vid:#x} is not a datatype"
        )

    def ensure_datatypes_decoded(self) -> None:
        for entry in self.vids.entries(HandleKind.DATATYPE):
            rec = entry.record
            if isinstance(rec, DatatypeRecord) and entry.phys is not None:
                self.descriptor_of(entry)

    def _world_ranks_of_comm(self, comm_phys: int) -> Tuple[int, ...]:
        """Membership of a physical communicator in comm-rank order,
        obtained through §5 category-2 calls only."""
        lib = self.lower
        world_phys = lib.constant("MPI_COMM_WORLD")
        g = lib.comm_group(comm_phys)
        wg = lib.comm_group(world_phys)
        n = lib.group_size(g)
        world_ranks = lib.group_translate_ranks(g, list(range(n)), wg)
        lib.group_free(g)
        lib.group_free(wg)
        return tuple(world_ranks)

    def _dup_seq_for(self, world_ranks: Tuple[int, ...]) -> int:
        """Disambiguator among comms with identical membership.

        A monotonic incarnation number (never reset by comm_free):
        communicator creation is collective, so every member rank
        observes the same creation order and computes the same value —
        and re-creating a freed communicator yields a FRESH (ggid,
        dup_seq) identity, which the two-phase collective barrier and
        the restart replay both rely on."""
        incs = self.vids.membership_incarnations
        n = incs.get(world_ranks, 0)
        incs[world_ranks] = n + 1
        return n

    def _attach_comm(
        self, phys: int, name: str = "",
        cart: Optional[Tuple[Tuple[int, ...], Tuple[bool, ...]]] = None,
        constant_name: Optional[str] = None,
    ) -> int:
        """Wrap a communicator of the lower half (the null communicator,
        for ranks a constructor left out, maps to the null vhandle)."""
        if self.lower.handles.is_null(HandleKind.COMM, phys):
            return self.null_vhandle(HandleKind.COMM)
        world_ranks = self._world_ranks_of_comm(phys)
        rec = CommRecord(
            world_ranks=world_ranks,
            ggid=None,  # policy decides (eager computes in attach)
            dup_seq=self._dup_seq_for(world_ranks),
            name=name,
            cart=cart,
        )
        return self.vids.attach(
            HandleKind.COMM, rec, phys, constant_name=constant_name
        )

    # ------------------------------------------------------------------
    # constants (§4.3: constants as functions, lazy for ExaMPI)
    # ------------------------------------------------------------------
    def _constant_handle(self, name: str) -> int:
        vh = self.vids.constant_vid(name)
        if vh is not None:
            entry = self.vids.lookup(vh)
            if entry.phys is None:
                # Rebind on demand (e.g. right after a restart) — through
                # set_phys so the fast lane and reverse map stay coherent.
                self.vids.set_phys(vh, self.lower.constant(name))
            return vh
        phys = self.lower.constant(name)
        kind = mana_constants.constant_kind(name)
        if kind is None:
            raise MpiError(f"unknown constant {name!r}", "MPI_ERR_ARG")
        if kind == HandleKind.COMM:
            # Predefined communicators get full CommRecords: they carry
            # drain counters and collective sequence numbers like any
            # user communicator.
            return self._attach_comm(phys, name=name, constant_name=name)
        return self.vids.attach(
            kind, ConstantRecord(name), phys, constant_name=name
        )

    # ------------------------------------------------------------------
    # environment wrappers
    # ------------------------------------------------------------------
    def init(self) -> None:
        """The app's MPI_Init: the lower half is already initialized (it
        is MANA's own small MPI program), so this is bookkeeping."""
        self._enter()
        self._app_initialized = True

    def finalize(self) -> None:
        self._enter()
        self._app_initialized = False
        if self.coordinator is not None:
            # Stay checkpoint-available until every rank has finalized.
            self.coordinator.finalize_rank(self.rank, self._maybe_checkpoint)

    def initialized(self) -> bool:
        return self._app_initialized

    def finalized(self) -> bool:
        return not self._app_initialized and self.lower is not None

    def wtime(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    # communicator wrappers
    # ------------------------------------------------------------------
    def comm_rank(self, comm_v: int) -> int:
        self._enter()
        entry = self._comm(comm_v)
        rec = entry.record
        if isinstance(rec, CommRecord):
            # Served from MANA's own record (one lookup, no lower call
            # needed — the §4.1-problem-3 win in action).
            return rec.world_ranks.index(self.rank)
        return self.lower.comm_rank(entry.phys)

    def comm_size(self, comm_v: int) -> int:
        self._enter()
        entry = self._comm(comm_v)
        rec = entry.record
        if isinstance(rec, CommRecord):
            return len(rec.world_ranks)
        return self.lower.comm_size(entry.phys)

    def comm_group(self, comm_v: int) -> int:
        self._enter()
        entry = self._comm(comm_v)
        phys_group = self.lower.comm_group(entry.phys)
        world_ranks = (
            entry.record.world_ranks
            if isinstance(entry.record, CommRecord)
            else self._world_ranks_of_comm(entry.phys)
        )
        return self.vids.attach(
            HandleKind.GROUP, GroupRecord(world_ranks), phys_group
        )

    def comm_dup(self, comm_v: int) -> int:
        entry = self._enter_collective(comm_v)
        phys = self.lower.comm_dup(self.vids.phys(comm_v, HandleKind.COMM))
        return self._attach_comm(phys, name=f"dup({entry.record.name})")

    def comm_split(self, comm_v: int, color: int, key: int) -> int:
        self._enter_collective(comm_v)
        phys = self.lower.comm_split(
            self.vids.phys(comm_v, HandleKind.COMM), color, key
        )
        return self._attach_comm(phys, name=f"split({color})")

    def comm_split_type(self, comm_v: int, split_type: int, key: int) -> int:
        self._enter_collective(comm_v)
        phys = self.lower.comm_split_type(
            self.vids.phys(comm_v, HandleKind.COMM), split_type, key
        )
        return self._attach_comm(phys, name="split-type")

    def comm_create(self, comm_v: int, group_v: int) -> int:
        self._enter_collective(comm_v)
        phys = self.lower.comm_create(
            self.vids.phys(comm_v, HandleKind.COMM),
            self.vids.phys(group_v, HandleKind.GROUP),
        )
        return self._attach_comm(phys, name="created")

    def comm_free(self, comm_v: int) -> None:
        self._enter()
        entry = self._comm(comm_v)
        if entry.constant_name is not None:
            raise MpiError(
                f"cannot free {entry.constant_name}", "MPI_ERR_COMM"
            )
        self._two_phase(entry)
        self.lower.comm_free(self.vids.phys(comm_v, HandleKind.COMM))
        self.vids.remove(comm_v)

    # ------------------------------------------------------------------
    # point-to-point wrappers
    # ------------------------------------------------------------------
    def _count_send(self, comm_entry, dest_comm_rank: int) -> None:
        rec = comm_entry.record
        if isinstance(rec, CommRecord):
            w = rec.world_ranks[dest_comm_rank]
            rec.sent_to[w] = rec.sent_to.get(w, 0) + 1

    def _count_recv(self, comm_entry, src_comm_rank: int) -> None:
        rec = comm_entry.record
        if isinstance(rec, CommRecord) and src_comm_rank >= 0:
            w = rec.world_ranks[src_comm_rank]
            rec.received_from[w] = rec.received_from.get(w, 0) + 1

    def send(
        self, buf, count: int, dtype_v: int, dest: int, tag: int, comm_v: int
    ) -> None:
        self._enter()
        if dest == C.PROC_NULL:
            return
        centry = self._comm(comm_v)
        dentry = self._dtype(dtype_v)
        self.lower.send(buf, count, dentry.phys, dest, tag, centry.phys)
        self._count_send(centry, dest)

    def _src_world(self, comm_entry, source: int) -> int:
        if source == C.ANY_SOURCE:
            return C.ANY_SOURCE
        rec = comm_entry.record
        if isinstance(rec, CommRecord):
            return rec.world_ranks[source]
        return source

    def _recv_from_drain(
        self, comm_entry, dt_entry, buf, count: int, source: int, tag: int
    ) -> Optional[Status]:
        msg = self.drain_buffer.match(
            comm_entry.vid, self._src_world(comm_entry, source), tag
        )
        if msg is None:
            return None
        self.descriptor_of(dt_entry).unpack(msg.payload, buf, count)
        return _drained_status(msg)

    def _peek_drain(self, comm_entry, source: int, tag: int
                    ) -> Optional[Status]:
        msg = self.drain_buffer.match(
            comm_entry.vid, self._src_world(comm_entry, source), tag,
            remove=False,
        )
        return None if msg is None else _drained_status(msg)

    def _comm_of(self, rec: RequestRecord):
        return self.vids.lookup(self.vids.embed(rec.comm_vid), HandleKind.COMM)

    def _recv_request_from_drain(self, rec: RequestRecord) -> Optional[Status]:
        dentry = self.vids.lookup(
            self.vids.embed(rec.datatype_vid), HandleKind.DATATYPE
        )
        return self._recv_from_drain(
            self._comm_of(rec), dentry, rec.buf, rec.count, rec.peer, rec.tag
        )

    def recv(
        self, buf, count: int, dtype_v: int, source: int, tag: int,
        comm_v: int,
    ) -> Status:
        self._enter()
        if source == C.PROC_NULL:
            return Status(source=C.PROC_NULL, tag=C.ANY_TAG)

        def drained() -> Optional[Status]:
            return self._recv_from_drain(
                self._comm(comm_v), self._dtype(dtype_v), buf, count,
                source, tag,
            )

        def attempt() -> Optional[Status]:
            # Iprobe, then a Recv that cannot block (charged: the Iprobe).
            centry = self._comm(comm_v)
            flag, pst = BaseMpiLib.iprobe.__wrapped__(
                self.lower, source, tag, centry.phys
            )
            if not flag:
                return None
            st = self.lower.recv(
                buf, count, self._dtype(dtype_v).phys, pst.source, pst.tag,
                centry.phys,
            )
            self._count_recv(centry, st.source)
            return st

        return self._block("recv", attempt, drained)

    def isend(
        self, buf, count: int, dtype_v: int, dest: int, tag: int, comm_v: int
    ) -> int:
        self._enter()
        centry = self._comm(comm_v)
        dentry = self._dtype(dtype_v)
        if dest != C.PROC_NULL:
            # The eager fabric completes sends at post time; MANA retires
            # the lower request immediately and keeps a virtual one.
            phys_req = self.lower.isend(
                buf, count, dentry.phys, dest, tag, centry.phys
            )
            self.lower.wait(phys_req)
            self._count_send(centry, dest)
        rec = RequestRecord(
            kind="send",
            comm_vid=centry.vid,
            peer=dest,
            tag=tag,
            count=count,
            datatype_vid=dentry.vid,
            completed=True,
            status=Status(),
        )
        return self.vids.attach(HandleKind.REQUEST, rec, None)

    def irecv(
        self, buf, count: int, dtype_v: int, source: int, tag: int,
        comm_v: int,
    ) -> int:
        self._enter()
        centry = self._comm(comm_v)
        dentry = self._dtype(dtype_v)
        rec = RequestRecord(
            kind="recv",
            comm_vid=centry.vid,
            peer=source,
            tag=tag,
            count=count,
            datatype_vid=dentry.vid,
            buf=buf,
        )
        # Drained messages take precedence over fresh lower-half posts:
        # they are strictly older.
        st = self._recv_from_drain(centry, dentry, buf, count, source, tag)
        if st is not None:
            rec.completed = True
            rec.status = st
            return self.vids.attach(HandleKind.REQUEST, rec, None)
        phys = (
            None
            if source == C.PROC_NULL
            else self.lower.irecv(
                buf, count, dentry.phys, source, tag, centry.phys
            )
        )
        if source == C.PROC_NULL:
            rec.completed = True
            rec.status = Status(source=C.PROC_NULL)
        return self.vids.attach(HandleKind.REQUEST, rec, phys)

    def send_init(
        self, buf, count: int, dtype_v: int, dest: int, tag: int, comm_v: int
    ) -> int:
        self._enter()
        centry = self._comm(comm_v)
        dentry = self._dtype(dtype_v)
        phys = self.lower.send_init(
            buf, count, dentry.phys, dest, tag, centry.phys
        )
        rec = RequestRecord(
            kind="send", comm_vid=centry.vid, peer=dest, tag=tag,
            count=count, datatype_vid=dentry.vid, buf=buf, persistent=True,
        )
        return self.vids.attach(HandleKind.REQUEST, rec, phys)

    def recv_init(
        self, buf, count: int, dtype_v: int, source: int, tag: int,
        comm_v: int,
    ) -> int:
        self._enter()
        centry = self._comm(comm_v)
        dentry = self._dtype(dtype_v)
        phys = self.lower.recv_init(
            buf, count, dentry.phys, source, tag, centry.phys
        )
        rec = RequestRecord(
            kind="recv", comm_vid=centry.vid, peer=source, tag=tag,
            count=count, datatype_vid=dentry.vid, buf=buf, persistent=True,
        )
        return self.vids.attach(HandleKind.REQUEST, rec, phys)

    def start(self, request_v: int) -> None:
        self._enter()
        self._start_impl(request_v)

    def _start_impl(self, request_v: int) -> None:
        entry = self.vids.lookup(request_v, HandleKind.REQUEST)
        rec: RequestRecord = entry.record
        if not rec.persistent:
            raise MpiError("MPI_Start on a non-persistent request",
                           "MPI_ERR_REQUEST")
        if rec.active:
            raise MpiError("MPI_Start on an already-active request",
                           "MPI_ERR_REQUEST")
        rec.active = True
        rec.completed = False
        rec.status = None
        if rec.kind == "recv":
            # Drained messages win over a fresh lower-half start.
            st = self._recv_request_from_drain(rec)
            if st is not None:
                rec.completed = True
                rec.status = st
                return
            self.lower.start(entry.phys)
        else:
            self.lower.start(entry.phys)
            # Eager fabric: the lower send completed at start time; cycle
            # the lib request back to inactive so the next MPI_Start works.
            BaseMpiLib.test.__wrapped__(self.lower, entry.phys)
            if rec.peer != C.PROC_NULL:
                self._count_send(self._comm_of(rec), rec.peer)
            rec.completed = True
            rec.status = Status()

    def startall(self, requests: Sequence[int]) -> None:
        self._enter()
        for r in requests:
            self._start_impl(r)

    def request_free(self, request_v: int) -> None:
        self._enter()
        entry = self.vids.lookup(request_v, HandleKind.REQUEST)
        rec: RequestRecord = entry.record
        if rec.active and not rec.completed:
            raise MpiError("freeing an active persistent request",
                           "MPI_ERR_REQUEST")
        if entry.phys is not None:
            self.lower.request_free(entry.phys)
        self.vids.remove(request_v)

    def _progress(self, request_v: int, retire: bool = True
                  ) -> Optional[Status]:
        """The one request-progress step of every completion wrapper:
        progress the request (MPI_Test in the lower half, or MANA's drain
        buffer for a receive not posted in this lower half) and return
        its status once complete, else None.  An inactive persistent
        request is complete with an empty status.  ``retire`` delivers a
        completion: a persistent request goes inactive, an ordinary one
        gives up its virtual id."""
        entry = self.vids.lookup(request_v, HandleKind.REQUEST)
        rec: RequestRecord = entry.record
        if rec.inactive:
            return Status()
        if not rec.completed:
            if entry.phys is None:
                st = self._recv_request_from_drain(rec)
            else:
                flag, st = BaseMpiLib.test.__wrapped__(self.lower, entry.phys)
                if not flag:
                    return None
                if not (retire or rec.persistent):
                    # The lower request is retired; the vid outlives it.
                    self.vids.set_phys(request_v, None)
                if rec.kind == "recv":
                    self._count_recv(self._comm_of(rec), st.source)
            if st is None:
                return None
            rec.completed, rec.status = True, st
        st = rec.status or Status()
        if retire:
            if rec.persistent:
                rec.active = rec.completed = False
                rec.status = None
            else:
                self.vids.remove(request_v)
        return st

    def test(self, request_v: int) -> Tuple[bool, Status]:
        self._enter()
        st = self._progress(request_v)
        return (False, Status()) if st is None else (True, st)

    def wait(self, request_v: int) -> Status:
        self._enter()
        return self._block("wait", lambda: self._progress(request_v))

    def waitall(self, requests: Sequence[int]) -> List[Status]:
        self._enter()
        statuses: List[Optional[Status]] = [None] * len(requests)

        def attempt() -> Optional[List[Status]]:
            for i, r in enumerate(requests):
                if statuses[i] is None:
                    statuses[i] = self._progress(r)
            return None if None in statuses else statuses

        return self._block("waitall", attempt, extra_calls=len(requests))

    def testall(self, requests: Sequence[int]) -> Tuple[bool, List[Status]]:
        self._enter()
        # Progress every request, but retire none unless all are complete
        # (MPI_Testall's all-or-nothing contract).
        statuses = [self._progress(r, retire=False) for r in requests]
        if None in statuses:
            return False, []
        for r in requests:
            self._progress(r)
        return True, statuses

    def _first_complete(
        self, requests: Sequence[int]
    ) -> Optional[Tuple[int, Status]]:
        """(index, status) of the first active request that completes,
        retired; ``(UNDEFINED, Status())`` when no request is active
        (inactive ones are ignored, MPI-3.1 §3.7.5); None otherwise."""
        active = False
        for i, r in enumerate(requests):
            if self.vids.lookup(r, HandleKind.REQUEST).record.inactive:
                continue
            active = True
            st = self._progress(r)
            if st is not None:
                return i, st
        return None if active else (C.UNDEFINED, Status())

    def waitany(self, requests: Sequence[int]) -> Tuple[int, Status]:
        self._enter()
        return self._block("waitany", lambda: self._first_complete(requests))

    def testany(self, requests: Sequence[int]) -> Tuple[bool, int, Status]:
        self._enter()
        done = self._first_complete(requests)
        return (False, C.UNDEFINED, Status()) if done is None else (True, *done)

    def iprobe(self, source: int, tag: int, comm_v: int) -> Tuple[bool, Status]:
        self._enter()
        centry = self._comm(comm_v)
        st = self._peek_drain(centry, source, tag)
        if st is not None:
            return True, st
        return self.lower.iprobe(source, tag, centry.phys)

    def probe(self, source: int, tag: int, comm_v: int) -> Status:
        self._enter()

        def attempt() -> Optional[Status]:
            flag, st = BaseMpiLib.iprobe.__wrapped__(
                self.lower, source, tag, self._comm(comm_v).phys
            )
            return st if flag else None

        return self._block(
            "probe", attempt,
            lambda: self._peek_drain(self._comm(comm_v), source, tag),
        )

    def sendrecv(
        self,
        sendbuf, sendcount: int, sendtype_v: int, dest: int, sendtag: int,
        recvbuf, recvcount: int, recvtype_v: int, source: int, recvtag: int,
        comm_v: int,
    ) -> Status:
        self.send(sendbuf, sendcount, sendtype_v, dest, sendtag, comm_v)
        return self.recv(
            recvbuf, recvcount, recvtype_v, source, recvtag, comm_v
        )

    def get_count(self, status: Status, dtype_v: int) -> int:
        self._enter()
        dentry = self._dtype(dtype_v)
        return self.descriptor_of(dentry).count_elements(status.count_bytes)

    # ------------------------------------------------------------------
    # collectives (two-phase)
    # ------------------------------------------------------------------
    def _enter_collective(self, comm_v: int):
        """Top of every collective wrapper: :meth:`_enter`, then the
        two-phase barrier on ``comm_v``; returns the communicator's entry.
        Translate handles only after this returns: a RELAUNCH round run
        from inside the barrier rebuilds the lower half under the rank."""
        self._enter()
        entry = self._comm(comm_v)
        self._two_phase(entry)
        return entry

    def _two_phase(self, comm_entry) -> None:
        """Trivial barrier before the real collective (checkpoint never
        splits a communicator's ranks across a collective boundary)."""
        rec = comm_entry.record
        if not isinstance(rec, CommRecord) or len(rec.world_ranks) == 1:
            self._maybe_checkpoint()
            return
        if self.coordinator is None:
            return
        rec.coll_seq += 1
        self._extra_lib_calls(1)  # the two-phase barrier's extra round
        self.coordinator.trivial_barrier(
            comm_key=rec.key(),
            seq=rec.coll_seq,
            rank=self.rank,
            member_world_ranks=rec.world_ranks,
            park_check=self._maybe_checkpoint,
        )

    # ------------------------------------------------------------------
    # groups and datatypes (the other wrappers are SIGNATURES rows)
    # ------------------------------------------------------------------
    def _attach_group(self, phys: int) -> int:
        lib = self.lower
        wg = lib.comm_group(lib.constant("MPI_COMM_WORLD"))
        n = lib.group_size(phys)
        world_ranks = tuple(
            lib.group_translate_ranks(phys, list(range(n)), wg)
        )
        lib.group_free(wg)
        return self.vids.attach(HandleKind.GROUP, GroupRecord(world_ranks), phys)

    def _attach_datatype(self, phys: int) -> int:
        return self.vids.attach(
            HandleKind.DATATYPE, DatatypeRecord(descriptor=None), phys
        )

    def type_dup(self, oldtype_v: int) -> int:
        self._enter()
        entry = self._dtype(oldtype_v)
        phys = self.lower.type_dup(entry.phys)
        vh = self._attach_datatype(phys)
        new_entry = self._dtype(vh)
        if isinstance(entry.record, DatatypeRecord):
            new_entry.record.descriptor = entry.record.descriptor
            new_entry.record.committed = entry.record.committed
        return vh

    def type_commit(self, dtype_v: int) -> None:
        self._enter()
        entry = self._dtype(dtype_v)
        self.lower.type_commit(entry.phys)
        rec = entry.record
        if isinstance(rec, DatatypeRecord):
            # Decode now, through get_envelope/get_contents (§5 cat. 2):
            # the record must be reconstructible in any implementation.
            rec.descriptor = replay_mod.decode_datatype(self.lower, entry.phys)
            rec.committed = True

    def type_get_contents(self, dtype_v: int):
        self._enter()
        entry = self._dtype(dtype_v)
        integers, addresses, inner_phys = self.lower.type_get_contents(
            entry.phys
        )
        inner_v = [self._vid_for_phys_datatype(p) for p in inner_phys]
        return integers, addresses, inner_v

    def _vid_for_phys_datatype(self, phys: int) -> int:
        """Physical -> virtual for datatypes returned by the lower half.

        This is the wrapper the paper notes as the (rare) consumer of
        reverse translation: O(1) in the new design, O(n) in the legacy.
        """
        vh = self.vids.vid_of_phys(HandleKind.DATATYPE, phys)
        if vh is not None:
            return vh
        # A predefined type the app never touched?  Bind its constant.
        for name in C.PREDEFINED_DATATYPES:
            try:
                if self.lower.constant(name) == phys:
                    return self._constant_handle(name)
            except MpiError:
                continue
        # A brand-new derived handle created by get_contents itself.
        vh = self._attach_datatype(phys)
        entry = self._dtype(vh)
        entry.record.descriptor = replay_mod.decode_datatype(self.lower, phys)
        return vh

    # ------------------------------------------------------------------
    # op wrappers
    # ------------------------------------------------------------------
    def op_create(self, fn: Callable, commute: bool) -> int:
        self._enter()
        name = USER_OPS.name_of(fn)
        if name is None:
            raise MpiError(
                "MPI_Op_create under MANA requires the function to be "
                "registered via repro.util.registry.user_op so it can be "
                "re-created at restart",
                "MPI_ERR_OP",
            )
        phys = self.lower.op_create(fn, commute)
        rec = OpRecord(registry_name=name, commute=commute)
        return self.vids.attach(HandleKind.OP, rec, phys)

    # ------------------------------------------------------------------
    # communicator attribute wrappers
    # ------------------------------------------------------------------
    # Attributes are served entirely from the MANA records (never from
    # the lower half): they are upper-half data, so they checkpoint and
    # restart for free — including across MPI implementations, and even
    # on implementations whose native attribute support is missing.

    def _comm_attrs(self, comm_v: int) -> dict:
        entry = self._comm(comm_v)
        rec = entry.record
        if not isinstance(rec, CommRecord):
            raise MpiError("not an attribute-capable comm", "MPI_ERR_COMM")
        return rec.attributes

    def comm_create_keyval(self) -> int:
        self._enter()
        kv = self.vids.next_keyval
        self.vids.next_keyval += 1
        self.vids.live_keyvals.add(kv)
        return kv

    def comm_free_keyval(self, keyval: int) -> None:
        self._enter()
        if keyval not in self.vids.live_keyvals:
            raise MpiError(f"unknown keyval {keyval}", "MPI_ERR_KEYVAL")
        self.vids.live_keyvals.discard(keyval)

    def comm_set_attr(self, comm_v: int, keyval: int, value) -> None:
        self._enter()
        if keyval not in self.vids.live_keyvals:
            raise MpiError(f"unknown keyval {keyval}", "MPI_ERR_KEYVAL")
        self._comm_attrs(comm_v)[keyval] = value

    def comm_get_attr(self, comm_v: int, keyval: int):
        self._enter()
        attrs = self._comm_attrs(comm_v)
        if keyval in attrs:
            return True, attrs[keyval]
        return False, None

    def comm_delete_attr(self, comm_v: int, keyval: int) -> None:
        self._enter()
        self._comm_attrs(comm_v).pop(keyval, None)

    # ------------------------------------------------------------------
    # cartesian topology wrappers
    # ------------------------------------------------------------------
    def cart_create(
        self, comm_v: int, dims: Sequence[int], periods: Sequence[bool],
        reorder: bool = False,
    ) -> int:
        self._enter_collective(comm_v)
        phys = self.lower.cart_create(
            self.vids.phys(comm_v, HandleKind.COMM), dims, periods, reorder
        )
        cart = (tuple(dims), tuple(bool(p) for p in periods))
        return self._attach_comm(phys, name="cart", cart=cart)

    def _cart_info(self, comm_v: int) -> Tuple[CommRecord, CartInfo]:
        entry = self._comm(comm_v)
        rec = entry.record
        if not isinstance(rec, CommRecord) or rec.cart is None:
            raise MpiError(
                "communicator has no cartesian topology", "MPI_ERR_TOPOLOGY"
            )
        return rec, CartInfo(rec.cart[0], rec.cart[1])

    def cart_coords(self, comm_v: int, rank: int) -> Tuple[int, ...]:
        # Served from the MANA record: topology is MANA-internal metadata,
        # which also survives the comm_split-based restart replay.
        self._enter()
        _, info = self._cart_info(comm_v)
        return info.coords_of(rank)

    def cart_rank(self, comm_v: int, coords: Sequence[int]) -> int:
        self._enter()
        _, info = self._cart_info(comm_v)
        return info.rank_of(tuple(coords))

    def cart_shift(
        self, comm_v: int, direction: int, disp: int
    ) -> Tuple[int, int]:
        self._enter()
        rec, info = self._cart_info(comm_v)
        my = rec.world_ranks.index(self.rank)
        return info.shift(my, direction, disp)


# ----------------------------------------------------------------------
# the wrappers with no logic of their own: rows of repro.mpi.api's table
# ----------------------------------------------------------------------
# How a "free" row refuses a predefined constant, per handle kind.
_FREE_REFUSALS = MappingProxyType({
    GROUP: ("cannot free {}", "MPI_ERR_GROUP"),
    DTYPE: ("cannot free predefined type {}", "MPI_ERR_TYPE"),
    OP: ("cannot free predefined op {}", "MPI_ERR_OP"),
})


def _make_wrapper(name: str, sig: Sig) -> Callable:
    """Build the wrapper for one table row.  Everything the row says is
    resolved here, once; the returned function only does the work."""
    if sig.result == "free":
        kind = sig.args[0]
        message, error_class = _FREE_REFUSALS[kind]

        def free(self, vhandle):
            self._enter()
            entry = self.vids.lookup(vhandle, kind)
            if entry.constant_name is not None:
                raise MpiError(message.format(entry.constant_name),
                               error_class)
            getattr(self.lower, name)(entry.phys)
            self.vids.remove(vhandle)

        return free

    nargs = len(sig.args)
    comm_at = sig.args.index(COMM) if sig.sync == COLLECTIVE else None
    handles = tuple(
        (i, kind) for i, kind in enumerate(sig.args) if kind in HandleKind.ALL
    )
    lists = tuple(i for i, kind in enumerate(sig.args) if kind == DTYPES)
    attach = {
        "none": None,
        "attach_group": ManaRank._attach_group,
        "attach_datatype": ManaRank._attach_datatype,
    }[sig.result]

    def wrapper(self, *args):
        if len(args) != nargs:
            raise TypeError(
                f"{name}() takes {nargs} arguments ({len(args)} given)"
            )
        if comm_at is None:
            self._enter()
        else:
            self._enter_collective(args[comm_at])
        # Only now read physical ids: a round run inside the barrier may
        # have rebuilt the lower half.
        phys = self.vids.phys
        args = list(args)
        for i, kind in handles:
            args[i] = phys(args[i], kind)
        for i in lists:
            args[i] = [phys(h, DTYPE) for h in args[i]]
        out = getattr(self.lower, name)(*args)
        return out if attach is None else attach(self, out)

    return wrapper


def _install_row_wrappers() -> None:
    for name in sorted(MPI_FUNCTIONS):
        sig = SIGNATURES.get(name)
        assert (sig is None) == (name in vars(ManaRank)), (
            f"{name} needs exactly one of a SIGNATURES row and a ManaRank def"
        )
        if sig is not None:
            fn = _make_wrapper(name, sig)
            fn.__name__, fn.__qualname__ = name, f"ManaRank.{name}"
            setattr(ManaRank, name, fn)


_install_row_wrappers()


class ManaFacade(FacadeBase):
    """The application-visible MPI surface, MANA edition.

    Identical shape to :class:`repro.impls.facade.NativeFacade`; constants
    resolve to *virtual* handles that stay stable across checkpoints,
    restarts, and even MPI implementations.
    """

    def __init__(self, mana: ManaRank):
        self._mana = mana

    def __getattr__(self, attr: str):
        mana = object.__getattribute__(self, "_mana")
        const = _CONSTANT_ATTRS.get(attr)
        if const is not None:
            return mana._constant_handle(const)
        kind = _NULL_ATTRS.get(attr)
        if kind is not None:
            return mana.null_vhandle(kind)
        if attr in MPI_FUNCTIONS:
            # Later calls find the bound wrapper in the instance dict and
            # never come back here.
            value = self.__dict__[attr] = getattr(mana, attr)
            return value
        raise AttributeError(f"MANA MPI facade has no attribute {attr!r}")

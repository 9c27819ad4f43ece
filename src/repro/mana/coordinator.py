"""The checkpoint coordinator — MANA's out-of-band control plane.

Real MANA inherits a coordinator process from DMTCP: a socket-connected
daemon that broadcasts checkpoint requests and sequences the global
phases.  Here the coordinator is a shared object; it carries *no
application or MPI data* — everything payload-bearing flows through the
lower-half MPI library, as in the real system.

Two checkpoint kinds (DESIGN.md §1, restart modes):

* ``IN_SESSION`` — ranks park at *any* wrapper safe point (any MPI call
  boundary, or inside a compute region, standing in for MANA's
  checkpoint signal).  Full fidelity for quiesce/drain/rebind; the
  image is written but threads stay alive.
* ``LOOP`` — ranks agree (via the coordinator's iteration election) on a
  common future loop iteration and park exactly there; the image is
  cold-restartable: a brand-new session can resume it.

Every LOOP target comes from one election,
:meth:`CheckpointCoordinator._elect` (PROTOCOLS.md §2), whichever path
armed the round: ``request_checkpoint``, a trigger, or the interval.
The coordinator keeps a ledger per loop — each rank's last reported
iteration and the ranks that ended the loop — and the election reads
it: a target always lies past every iteration a rank has reported, and
no round is elected in a loop some rank has already left.

Every rendezvous is one :class:`_Meeting` of a fixed member set, and
every rank waits for one in one loop, :meth:`CheckpointCoordinator._meet`
(PROTOCOLS.md §8): the four phase gates of a round attempt, the
*trivial barrier* that two-phase collectives cross at (communicator
key, sequence), and the finalize fence.  The arrival that completes a
meeting runs its action and unparks the others; no coordinator or
meeting lock is held across a park.  A barrier or finalize waiter stays
responsive to checkpoint intent: it leaves the arrival set before it
detours into a round and arrives again afterwards, so a completed set
never holds a rank that is inside a checkpoint.

Each armed checkpoint is one :class:`_Round` (PROTOCOLS.md §4): its
ticket, its LOOP election and its retry budget, plus an
:class:`_Attempt` that owns the four gates and collects what the ranks
report at them.  Arming a round creates it — and takes its generation
number, so generations are numbered in the order rounds run; an abort
starts a new attempt inside it; the resume gate, a cancel and finalize
drop it.  A resumable loop reaches the coordinator through two calls,
:meth:`CheckpointCoordinator.loop_top` and
:meth:`CheckpointCoordinator.loop_end`.

Hardening (PROTOCOLS.md §9): a gate wait parks under
:data:`PHASE_TIMEOUT_S`, and a timeout produces a *descriptive* error
naming the stuck phase and the outstanding ranks.  A round can be
**aborted and retried**: when a stall is detected (or injected),
:meth:`abort_round` releases the superseded attempt's gates — every
rank parked there raises :class:`CheckpointRoundAborted` — and, while
:data:`ROUND_RETRIES` retries remain, leaves the same ticket armed with
a fresh attempt so the ranks immediately re-run the round.

Background writes have one owner (PROTOCOLS.md §11): the save pool is a
plain executor built here when ``save_workers > 1``, and each async
round's save-gate action starts one drain thread
(:func:`repro.mana.asyncsave.drain_generation`) after joining the
previous round's.  :meth:`CheckpointCoordinator.cancel_pending` joins
the last drain and shuts the pool; :meth:`CheckpointCoordinator.abort`
touches neither, so a drain in flight when a rank dies still commits.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.mana import asyncsave
from repro.mana.checkpoint import dedup_summary
from repro.simtime.cost import CheckpointCostModel, FilesystemProfile
from repro.util.errors import CheckpointError, CheckpointRoundAborted

#: Real-time bound on one rank's wait at a phase gate.
PHASE_TIMEOUT_S = 300.0
#: Aborted attempts of one round that are retried before its ticket fails.
ROUND_RETRIES = 2
#: Why a checkpoint cannot run once every rank has finalized.
_FINALIZED = "all ranks reached MPI_Finalize first"


class CheckpointKind:
    IN_SESSION = "in-session"
    LOOP = "loop"


class CheckpointMode:
    """What happens to the running job after the image is written."""

    CONTINUE = "continue"    # keep the current lower half (DMTCP resume)
    RELAUNCH = "relaunch"    # discard the lower half, replay into a new one
    EXIT = "exit"            # preemption: unwind the job after saving


@dataclass
class CheckpointTicket:
    """Handle returned to whoever requested a checkpoint.  A trigger's
    ticket has ``generation=None`` until its round is armed."""

    generation: Optional[int]
    kind: str
    mode: str
    _done: threading.Event = field(default_factory=threading.Event)
    result: Dict = field(default_factory=dict)
    error: Optional[BaseException] = None
    # Backref for diagnostics only (phase snapshot on timeout).
    _coord: Optional[object] = field(default=None, repr=False, compare=False)
    # Halves of the round still unreported once its save gate opened:
    # the commit settling and the ranks passing resume (see settle).
    _halves: int = field(default=2, repr=False, compare=False)
    _halves_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def wait(self, timeout: float = 300.0) -> Dict:
        if not self._done.wait(timeout):
            detail = ""
            if self._coord is not None:
                detail = "; " + self._coord.phase_snapshot()
            what = (
                "checkpoint trigger (not fired yet)" if self.generation is None
                else f"checkpoint generation {self.generation}"
            )
            raise CheckpointError(
                f"{what} did not complete in time (waited {timeout:.0f}s)"
                f"{detail}"
            )
        if self.error is not None:
            raise self.error
        return self.result

    def fail(self, error: BaseException) -> None:
        """Complete the ticket with ``error``, unless it already failed."""
        if self.error is None:
            self.error = error
        self._done.set()

    def settle(self) -> None:
        """Report one half of the round's completion: its commit settled
        (done or failed), or its ranks passed resume — in whichever
        order.  The second report completes the ticket, so
        ``request_checkpoint``'s one-in-flight check never sees a done
        ticket whose round still holds gates or writes its generation."""
        with self._halves_lock:
            self._halves -= 1
            done = self._halves == 0
        if done:
            self._done.set()


class _Meeting:
    """One rendezvous of a fixed member set: a phase gate of one round
    attempt, one trivial barrier, or the finalize fence.  A meeting
    happens once — the arrival that completes ``arrived`` sets ``done``
    and runs ``action`` — and :meth:`CheckpointCoordinator._meet` is the
    one loop that waits for it.

    Lock ordering: the meeting lock may be held while ``action`` takes
    the coordinator lock (meeting → coordinator).  Abort paths therefore
    touch meetings only *after* dropping the coordinator lock.
    """

    def __init__(self, name: str, members: Iterable[int],
                 action: Optional[Callable[[], None]] = None):
        self.name = name
        self.members = frozenset(members)
        self.action = action
        self.arrived: Set[int] = set()
        self.done = False
        self.lock = threading.Lock()

    def arrived_ranks(self) -> List[int]:
        with self.lock:
            return sorted(self.arrived)


class _Attempt:
    """One attempt at a round: its four phase gates, what its ranks
    report at them, and the token each rank carries through its phase
    calls.  An abort replaces the round's attempt, so nothing an aborted
    attempt collected — nor a late report into it — reaches the retry."""

    def __init__(self, coord: "CheckpointCoordinator", number: int = 0):
        self.number = number
        ranks = range(coord.nranks)
        self.quiesce = _Meeting("quiesce", ranks, coord._on_quiesced)
        self.drain = _Meeting("drain", ranks)
        self.save = _Meeting("save", ranks, coord._on_saved)
        self.resume = _Meeting("resume", ranks, coord._on_resumed)
        self.clocks: Dict[int, float] = {}    # rank -> vtime at quiesce
        self.image_bytes: Dict[int, int] = {}  # rank -> logical bytes
        self.savestats: Dict[int, Dict] = {}  # rank -> format-5 stats
        self.snapshots: Dict[int, Dict] = {}  # rank -> {"image", "blob"}
        self.manifest: Optional[Dict] = None  # rank 0's manifest fields
        self.gate: Optional[_Meeting] = None  # the gate last entered
        # Set by the quiesce / save gate actions; ranks charge them.
        self.start = 0.0
        self.duration = 0.0
        # The save gate opened, so the ticket's resume half is owed.
        self.resume_owed = False


class _Round:
    """One armed checkpoint: its ticket, its LOOP election and its
    retry budget, plus the attempt in progress."""

    def __init__(self, ticket: CheckpointTicket, attempt: _Attempt,
                 loop_name: Optional[str] = None,
                 loop_target: Optional[int] = None):
        self.ticket = ticket
        self.loop_name = loop_name
        self.loop_target = loop_target
        self.retries_left = ROUND_RETRIES
        self.attempt = attempt


@dataclass
class _LoopLedger:
    """What the ranks have reported of one resumable loop."""

    #: rank -> the last iteration top it reported (and decided at).
    reached: Dict[int, int] = field(default_factory=dict)
    #: Ranks that have ended the loop.
    ended: Set[int] = field(default_factory=set)

    def describe(self, loop_name: str) -> str:
        reached = ", ".join(f"{r}: {i}"
                            for r, i in sorted(self.reached.items()))
        return (f"loop {loop_name!r} last iterations {{{reached}}}, "
                f"ended by ranks {sorted(self.ended)}")


class CheckpointCoordinator:
    """Sequences the global checkpoint phases for one simulated job."""

    def __init__(
        self,
        nranks: int,
        store,
        fs_profile: FilesystemProfile,
        loop_lag_window: int,
        save_workers: int = 0,
        keep_generations: Optional[int] = None,
        async_save: bool = False,
        scheduler=None,
    ):
        self.nranks = nranks
        # The job's run-slot scheduler, shared with the fabric; a
        # coordinator built on its own gets a private one.
        if scheduler is None:
            from repro.runtime.scheduler import Scheduler

            scheduler = Scheduler(nranks)
        self.scheduler = scheduler
        # The job's repro.mana.checkpoint.CheckpointStore: every image,
        # manifest and prune of this coordinator's rounds goes through it
        # (None only for a coordinator that never saves).
        self.store = store
        self.fs_profile = fs_profile
        self.loop_lag_window = loop_lag_window
        self.generation = 0

        # ckpt_cost charges virtual time from byte counts; save_workers
        # > 1 fans chunk-run encodes out to save_pool, shared by every
        # round and shut down by cancel_pending; keep_generations prunes
        # + GCs after each completed round.
        self.ckpt_cost = CheckpointCostModel()
        self.save_workers = save_workers
        self.keep_generations = keep_generations
        self.save_pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(save_workers, thread_name_prefix="ckpt-save")
            if save_workers > 1 else None
        )

        # Asynchronous (snapshot + background drain) saves.  Ranks hand
        # their pickled snapshots over at the save barrier and resume;
        # one thread per round encodes and writes them (PROTOCOLS.md
        # §11).  The latest round's (thread, ticket, modeled start).
        self.async_save = async_save
        self._drain: Optional[Tuple[threading.Thread, CheckpointTicket,
                                    float]] = None

        self._lock = threading.Lock()
        # The armed round, None between rounds.
        self._round: Optional[_Round] = None
        self._aborted: Optional[BaseException] = None
        # Optional fault injector (repro.faults.FaultInjector); consulted
        # at round start for injected coordinator stalls.
        self.injector = None

        self.round_events: List[dict] = []

        # loop name -> its ledger, which every LOOP election reads.
        self._loops: Dict[str, _LoopLedger] = defaultdict(_LoopLedger)

        # Deferred triggers: arm a checkpoint when a loop reaches an
        # iteration (deterministic alternative to wall-clock requests).
        self._pending_triggers: list = []

        # Interval checkpointing (production MANA's --ckpt-interval):
        # a LOOP checkpoint fires whenever the reporting rank's virtual
        # clock has advanced `interval` seconds past the last checkpoint.
        self._interval: Optional[float] = None
        self._interval_mode = CheckpointMode.CONTINUE
        self._last_ckpt_vtime = 0.0
        self.interval_tickets: list = []

        # Trivial barriers in progress: (comm_key, seq) -> its meeting,
        # forgotten when it completes.  Its own lock keeps collectives
        # off the coordinator lock.
        self._tb_lock = threading.Lock()
        self._barriers: Dict[Tuple, _Meeting] = {}

        # The finalize fence: once every rank reaches MPI_Finalize,
        # checkpointing is disabled for good.
        self._finalize = _Meeting("finalize", range(nranks),
                                  self._on_all_finalized)
        self._ckpt_disabled = False

        # Elastic-restore provenance (PROTOCOLS.md §12, step 4): set by
        # Launcher.elastic_restart via stamp_elastic; every manifest this
        # job writes carries it, so checkpoint chains record across
        # which world sizes / implementations the job has moved.
        self.elastic_provenance: Optional[Dict] = None

    # ------------------------------------------------------------------
    # elastic-restore provenance
    # ------------------------------------------------------------------
    _ELASTIC_KEYS = (
        "from_nranks", "to_nranks", "from_impl", "to_impl",
        "source_generation",
    )

    def stamp_elastic(self, provenance: Dict) -> None:
        """Validate and install the elastic-restore provenance stamped
        into every manifest this coordinator writes from now on."""
        missing = [k for k in self._ELASTIC_KEYS if k not in provenance]
        if missing:
            raise CheckpointError(
                f"elastic provenance is missing keys {missing}; "
                f"expected {list(self._ELASTIC_KEYS)}"
            )
        if provenance["to_nranks"] != self.nranks:
            raise CheckpointError(
                f"elastic provenance claims to_nranks="
                f"{provenance['to_nranks']} but this coordinator drives "
                f"{self.nranks} ranks"
            )
        self.elastic_provenance = dict(provenance)

    # ------------------------------------------------------------------
    # request side
    # ------------------------------------------------------------------
    def request_checkpoint(
        self,
        kind: str = CheckpointKind.IN_SESSION,
        mode: str = CheckpointMode.CONTINUE,
    ) -> CheckpointTicket:
        """Arm a checkpoint; ranks will notice at their next safe point."""
        if kind not in (CheckpointKind.IN_SESSION, CheckpointKind.LOOP):
            raise ValueError(f"unknown checkpoint kind {kind!r}")
        if mode not in (
            CheckpointMode.CONTINUE, CheckpointMode.RELAUNCH,
            CheckpointMode.EXIT,
        ):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        with self._lock:
            self._raise_if_closed_locked()
            if self._round is not None:
                raise CheckpointError(
                    "a checkpoint is already in progress; wait for its "
                    "ticket before requesting another"
                )
            ticket = CheckpointTicket(None, kind, mode, _coord=self)
            self._arm_locked(ticket)
        self._wake_parked()
        return ticket

    def _arm_locked(self, ticket: CheckpointTicket,
                    loop_name: Optional[str] = None,
                    loop_target: Optional[int] = None) -> None:
        """Start ``ticket``'s round, numbering its generation now: the
        order rounds run in is the order of their generations.  Caller
        holds self._lock and has checked that no round is armed."""
        self.generation += 1
        ticket.generation = self.generation
        self._round = _Round(ticket, _Attempt(self), loop_name, loop_target)

    def _wake_parked(self) -> None:
        """Intent was just armed (or a round aborted): any parked rank —
        in a fabric wait, the trivial barrier or finalize — may have to
        act on it."""
        self.scheduler.unpark_all()

    def checkpoint_at_iteration(
        self,
        loop_name: str,
        iteration: int,
        kind: str = CheckpointKind.IN_SESSION,
        mode: str = CheckpointMode.CONTINUE,
    ) -> CheckpointTicket:
        """Arm a checkpoint that fires when any rank's resumable loop
        ``loop_name`` first reaches ``iteration``.  Deterministic — no
        wall-clock race with the job.  The ticket's generation is
        numbered when the trigger fires."""
        with self._lock:
            self._raise_if_closed_locked()
            ticket = CheckpointTicket(None, kind, mode, _coord=self)
            self._pending_triggers.append(
                {"loop": loop_name, "iteration": iteration, "ticket": ticket}
            )
            return ticket

    def enable_interval_checkpoints(
        self, interval: float, mode: str = CheckpointMode.CONTINUE
    ) -> None:
        """Arm periodic LOOP-kind checkpoints every ``interval`` virtual
        seconds (measured on whichever rank reports progress first)."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        with self._lock:
            self._interval = interval
            self._interval_mode = mode

    @property
    def intent(self) -> Optional[CheckpointTicket]:
        """The armed round's ticket, None between rounds."""
        r = self._round
        return None if r is None else r.ticket

    def should_park_now(self) -> bool:
        """True when an IN_SESSION checkpoint wants this rank to park at
        the current (arbitrary) safe point."""
        if self._ckpt_disabled:
            return False
        r = self._round
        return r is not None and r.ticket.kind == CheckpointKind.IN_SESSION

    def finalize_rank(self, rank: int, park_check) -> None:
        """MPI_Finalize under MANA: the rank stays available for
        checkpoints until *every* rank has finalized (the moral of real
        MANA keeping its checkpoint thread alive until teardown).  A
        waiting rank detours into an IN_SESSION round through
        ``park_check``; when the last rank arrives, checkpointing is
        disabled and every pending request is cancelled."""
        self._meet(self._finalize, rank, detour=park_check)

    def _on_all_finalized(self) -> None:
        """Action of the finalize fence.  No rank is inside a round (each
        left the fence before detouring), so what it cancels are unfired
        triggers and a round no rank has entered: a LOOP round, or an
        IN_SESSION round armed as the last rank arrived."""
        with self._lock:
            self._ckpt_disabled = True
            for t in self._take_pending_locked():
                t.fail(CheckpointError(f"checkpoint cancelled: {_FINALIZED}"))

    # ------------------------------------------------------------------
    # resumable loops (called from RankContext.loop)
    # ------------------------------------------------------------------
    def loop_top(self, rank: int, loop_name: str, iteration: int,
                 vtime: float) -> bool:
        """Called by ``rank`` at each top of its resumable loop
        ``loop_name``: arms a due trigger or interval checkpoint, elects
        the target of a requested LOOP round nobody has elected yet,
        records ``iteration`` in the loop's ledger, and returns True
        exactly when this rank should park here for a LOOP round.

        Every target comes from :meth:`_elect`, which places it past
        each iteration already in the ledger.  The ledger takes this
        rank's iteration in the same critical section that decides
        whether it parks, so a rank reaches every elected target of its
        loop, and parks there."""
        with self._lock:
            armed = (self._round is None and not self._ckpt_disabled
                     and self._arm_due_locked(loop_name, iteration, vtime))
            r = self._round
            park = False
            if r is not None and r.ticket.kind == CheckpointKind.LOOP:
                if r.loop_target is None:  # requested: this poll elects
                    r.loop_name = loop_name
                    r.loop_target = self._elect(r.ticket, loop_name,
                                                iteration)
                    if r.loop_target is None:
                        self._round = None
                park = (r.loop_name == loop_name
                        and iteration == r.loop_target)
            self._loops[loop_name].reached[rank] = iteration
        if armed:
            self._wake_parked()
        return park

    def _arm_due_locked(self, loop_name: str, iteration: int,
                        vtime: float) -> bool:
        """Arm the first trigger of ``loop_name`` due at ``iteration``,
        else an interval checkpoint due at ``vtime``; True when a round
        was armed.  Caller holds self._lock and has checked that no
        round is armed."""
        for trig in self._pending_triggers:
            if trig["loop"] == loop_name and iteration >= trig["iteration"]:
                self._pending_triggers.remove(trig)
                ticket, target = trig["ticket"], None
                if ticket.kind == CheckpointKind.LOOP:
                    target = self._elect(ticket, loop_name, iteration)
                    if target is None:
                        return False
                self._arm_locked(ticket, loop_name, target)
                return True
        if (self._interval is None
                or vtime - self._last_ckpt_vtime < self._interval):
            return False
        target = self._elect(None, loop_name, iteration)
        if target is None:
            return False  # stays due for the next loop it can run in
        self._last_ckpt_vtime = vtime
        ticket = CheckpointTicket(
            None, CheckpointKind.LOOP, self._interval_mode, _coord=self,
        )
        self.interval_tickets.append(ticket)
        self._arm_locked(ticket, loop_name, target)
        return True

    def _elect(self, ticket: Optional[CheckpointTicket], loop_name: str,
               iteration: int) -> Optional[int]:
        """The one LOOP election: the target of a round armed in
        ``loop_name`` as a rank reports ``iteration`` there, which is
        ``iteration + loop_lag_window``, moved past the highest
        iteration any rank has reported, so that every rank still
        reaches it.

        None when some rank has already ended the loop: no target there
        can be honoured.  The ``ticket`` of whoever asked for the round
        (a request or a trigger) then fails naming that rank; the
        interval path passes None and arms nothing.  Caller holds
        self._lock."""
        ledger = self._loops[loop_name]
        if ledger.ended:
            if ticket is not None:
                ticket.fail(CheckpointError(
                    f"loop checkpoint refused: rank {min(ledger.ended)} "
                    f"already ended loop {loop_name!r}"
                ))
            return None
        unpassed = max(ledger.reached.values(), default=-1) + 1
        return max(iteration + self.loop_lag_window, unpassed)

    def loop_end(self, rank: int, loop_name: str, n: int) -> None:
        """Called by ``rank`` when loop ``loop_name`` ends after ``n``
        iterations: the ledger records that the rank left the loop, so
        no later round is elected there, and a LOOP round already
        elected there at an iteration ``>= n`` can never be honoured,
        so it is cancelled.  Every rank takes this path because loop
        bounds are uniform; the first cancels."""
        with self._lock:
            self._loops[loop_name].ended.add(rank)
            r = self._round
            if (r is None or r.loop_target is None
                    or r.loop_name != loop_name or r.loop_target < n):
                return
            self._round = None
            r.ticket.fail(CheckpointError(
                f"loop checkpoint cancelled: loop {loop_name!r} ended at "
                f"{n} before reaching elected checkpoint iteration "
                f"{r.loop_target}"
            ))

    # ------------------------------------------------------------------
    # round lifecycle (called from repro.mana.participate)
    # ------------------------------------------------------------------
    def begin_participation(self, rank: int) -> _Attempt:
        """A rank is entering the checkpoint round: returns the round's
        current attempt, the token it must carry through every phase
        call.  May raise :class:`CheckpointRoundAborted` when an
        injected coordinator stall aborts the round at its start."""
        with self._lock:
            self._raise_if_aborted()
            r = self._round
            if r is None:
                raise CheckpointRoundAborted(
                    "checkpoint intent disarmed before the round started"
                )
            attempt = r.attempt
            generation = r.ticket.generation
        number = attempt.number + 1
        if self.injector is not None and self.injector.round_abort_requested(
            generation, number
        ):
            self.abort_round(f"injected coordinator stall on attempt {number}")
            raise CheckpointRoundAborted(
                f"checkpoint round {generation} attempt {number} "
                f"aborted: injected coordinator stall"
            )
        return attempt

    def abort_round(self, reason: str) -> None:
        """Abort the in-flight checkpoint round: every rank parked at a
        phase gate is released and re-checks its attempt (raising
        :class:`CheckpointRoundAborted`).  While retries remain the same
        ticket stays armed with a fresh attempt, so ranks re-run the
        round immediately; otherwise the ticket fails with a descriptive
        error."""
        with self._lock:
            r = self._round
            if self._aborted is not None or r is None:
                return
            old = r.attempt
            owed = old.resume_owed
            r.attempt = _Attempt(self, old.number + 1)
            retrying = r.retries_left > 0
            t = r.ticket
            self.round_events.append({
                "event": "round-abort",
                "generation": t.generation,
                "attempt": r.attempt.number,
                "reason": reason,
                "retrying": retrying,
            })
            if retrying:
                r.retries_left -= 1
            else:
                self._round = None
                t.fail(CheckpointError(
                    f"checkpoint generation {t.generation} failed "
                    f"after {r.attempt.number} aborted attempt(s): "
                    f"{reason}"
                ))
        # Outside the coordinator lock (gate actions may take it).
        if owed:
            t.settle()   # these ranks will not pass this resume
        for m in (old.quiesce, old.drain, old.save, old.resume):
            self._release(m)
        self._wake_parked()

    def _check_attempt(self, attempt: _Attempt) -> None:
        """Raise when the round was aborted since this rank's
        ``attempt`` began (before or while it waited at a gate)."""
        with self._lock:
            self._raise_if_aborted()
            r = self._round
            if r is None or r.attempt is not attempt:
                raise CheckpointRoundAborted(
                    f"checkpoint round aborted (attempt "
                    f"{attempt.number + 1} superseded)"
                )

    def _pass_gate(self, gate: _Meeting, rank: int, attempt: _Attempt,
                   recheck: bool = True) -> None:
        """Check → meet → check.  A rank whose attempt was already
        aborted must not arrive at ``gate`` (it would never complete);
        one that an abort released raises instead of going on."""
        self._check_attempt(attempt)
        attempt.gate = gate
        self._meet(gate, rank, timeout=PHASE_TIMEOUT_S)
        if recheck:
            self._check_attempt(attempt)

    # ------------------------------------------------------------------
    # the one rendezvous loop
    # ------------------------------------------------------------------
    def _meet(self, m: _Meeting, rank: int,
              detour: Optional[Callable[[], None]] = None,
              timeout: Optional[float] = None) -> None:
        """Arrive at ``m`` and return once it has happened (or was
        released).  With a ``detour`` (a rank's ``park_check``), a rank
        that an IN_SESSION round wants parked leaves the arrival set
        *before* it runs the detour, then arrives again: a completed set
        never holds a rank that is inside a round.  A ``timeout`` (phase
        gates) bounds the whole wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = None
        while True:
            with m.lock:
                self._raise_if_aborted()
                if m.done:
                    return
                m.arrived.add(rank)
                if m.members <= m.arrived:
                    # The one arrival that completes the meeting wakes
                    # the others; they return above, waking nobody.
                    m.done = True
                    if m.action is not None:
                        m.action()
                    for other in sorted(m.arrived - {rank}):
                        self.scheduler.unpark(other)
                    return
                detouring = detour is not None and self.should_park_now()
                if detouring:
                    m.arrived.discard(rank)
                elif deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CheckpointError(
                            f"checkpoint phase {m.name!r} timed out after "
                            f"{timeout:.0f}s: arrived ranks "
                            f"{sorted(m.arrived)}, outstanding ranks "
                            f"{sorted(m.members - m.arrived)}"
                        )
            if detouring:
                detour()
            else:
                self.scheduler.park(rank, remaining)

    def _release(self, m: _Meeting) -> None:
        """End ``m`` without its action (round abort): every waiter
        returns and re-checks its round attempt."""
        with m.lock:
            m.done = True
            for rank in sorted(m.arrived):
                self.scheduler.unpark(rank)

    # ------------------------------------------------------------------
    # phase gates (called from repro.mana.participate)
    # ------------------------------------------------------------------
    def quiesce(self, rank: int, clock_now: float, attempt: _Attempt) -> None:
        attempt.clocks[rank] = clock_now
        self._pass_gate(attempt.quiesce, rank, attempt)

    def drained(self, rank: int, attempt: _Attempt) -> None:
        self._pass_gate(attempt.drain, rank, attempt)

    def saved(self, rank: int, image_bytes: int, attempt: _Attempt,
              stats: Optional[Dict] = None,
              snapshot: Optional[Dict] = None,
              manifest: Optional[Dict] = None) -> None:
        """Everything a rank reports for the save gate.  ``image_bytes``
        stays the rank's *logical* upper-half size (what Table 3
        models); a synchronous round's format-5 ``stats`` carry the
        physical write accounting (chunks written/reused, bytes written)
        that the cost model and the dedup report consume; an async
        round's ``snapshot`` is the rank's ``{"image", "blob"}`` for the
        round's drain.  Rank 0 hands over the ``manifest`` fields it knows;
        the gate action commits them.  After the gate, ``attempt.start``
        and ``attempt.duration`` are the round's checkpoint timing."""
        attempt.image_bytes[rank] = image_bytes
        if stats is not None:
            attempt.savestats[rank] = stats
        if snapshot is not None:
            attempt.snapshots[rank] = snapshot
        if manifest is not None:
            attempt.manifest = manifest
        self._pass_gate(attempt.save, rank, attempt)

    def resumed(self, rank: int, attempt: _Attempt) -> None:
        # No check after the gate: the round is complete once the resume
        # gate opens (_on_resumed already dropped it).
        self._pass_gate(attempt.resume, rank, attempt, recheck=False)

    def phase_snapshot(self) -> str:
        """One-line description of where the checkpoint round stands —
        used by timeout errors to name the stuck phase and ranks.

        Names the round (generation, kind/mode, retry attempt), a LOOP
        round's loop and target, each unfired trigger, the ledger of
        every loop those name (each rank's last reported iteration and
        the ranks that ended it), the stuck gate with arrived vs
        outstanding ranks, and whether the async drain is still running
        — enough to diagnose a hang from the exception text alone.
        """
        r = self._round
        gate = None if r is None else r.attempt.gate
        phase = "idle" if gate is None else gate.name
        bits = [f"coordinator phase {phase!r}"]
        if r is not None:
            t = r.ticket
            round_desc = f"generation {t.generation} ({t.kind}/{t.mode}"
            if r.attempt.number:
                round_desc += f", retry attempt {r.attempt.number + 1}"
            bits.append(round_desc + ")")
        with self._lock:
            loops = []
            if r is not None and r.ticket.kind == CheckpointKind.LOOP:
                if r.loop_target is None:
                    bits.append("LOOP target not elected yet")
                else:
                    bits.append(f"LOOP target: loop {r.loop_name!r} "
                                f"iteration {r.loop_target}")
                    loops.append(r.loop_name)
            for trig in self._pending_triggers:
                bits.append(f"unfired {trig['ticket'].kind} trigger: loop "
                            f"{trig['loop']!r} iteration {trig['iteration']}")
                loops.append(trig["loop"])
            for name in dict.fromkeys(loops):
                bits.append(self._loops[name].describe(name))
        if gate is not None:
            arrived = gate.arrived_ranks()
            outstanding = sorted(set(range(self.nranks)) - set(arrived))
            bits.append(
                f"arrived ranks {arrived}, outstanding ranks {outstanding}"
            )
        if self._drain is not None and self._drain[0].is_alive():
            bits.append("async drain in flight")
        return "; ".join(bits)

    def _on_quiesced(self) -> None:
        a = self._round.attempt
        a.start = max(a.clocks.values())

    @staticmethod
    def _written_logical(dedup: Dict, logical_mean: float) -> int:
        """The written fraction measured on the real pickle bytes scales
        the *logical* (simulated) payload, so proxy apps with
        simulated_state_bytes see proportional savings."""
        payload = dedup["payload_bytes"]
        frac = dedup["bytes_written"] / payload if payload else 1.0
        return int(logical_mean * min(1.0, frac))

    @staticmethod
    def _ticket_result(r: _Round, sizes: List[int], mean: float) -> Dict:
        """What a ticket reports once the round's cost is known."""
        t, duration = r.ticket, r.attempt.duration
        return {
            "generation": t.generation,
            "kind": t.kind,
            "mode": t.mode,
            "bytes_per_rank": sizes,
            "mean_bytes_per_rank": mean,
            "ckpt_time": duration,
            "mb_per_s_per_rank": (
                mean / duration / 1e6 if duration > 0 else float("inf")
            ),
            "loop_target": r.loop_target,
        }

    def _on_saved(self) -> None:
        """Gate action of the save barrier: every rank's image is durable
        (sync) or snapshotted (async).  Commits the generation — here, or
        in the round's drain thread — and leaves the ticket owing its
        resume half."""
        r = self._round
        a, t = r.attempt, r.ticket
        sizes = list(a.image_bytes.values())
        mean = sum(sizes) / len(sizes) if sizes else 0
        fields = dict(a.manifest, loop_target=r.loop_target)
        with self._lock:
            a.resume_owed = True
        if self.async_save:
            self._on_saved_async(r, sizes, mean, fields)
            return
        # Charge the incremental pipeline's analytic cost.
        dedup = dedup_summary(a.savestats.values())
        a.duration = self.ckpt_cost.save_time(
            self.fs_profile, self.nranks, int(mean),
            self._written_logical(dedup, mean),
        )
        t.result.update(self._ticket_result(r, sizes, mean))
        t.result["dedup"] = dedup
        self.store.commit(t.generation, dict(fields, dedup=dedup),
                          self.keep_generations)
        t.settle()

    def _on_saved_async(self, r: _Round, sizes: List[int],
                        mean: float, fields: Dict) -> None:
        """Gate action of the save barrier in an **async** round: charge
        only snapshot + drain-overrun to virtual time, start this
        round's drain thread on the snapshots, and release the ranks.

        Back-pressure first: at most one drain is ever in flight, so
        the last-arriving rank blocks (wall-clock only) until the
        previous round's drain thread has ended; that drain's modeled
        cost then gives the virtual-time *overrun* it imposes on this
        round (:meth:`_drain_overrun`).
        """
        a, t = r.attempt, r.ticket
        if self._drain is not None:
            self._drain[0].join()
        overrun = self._drain_overrun(a.start)
        snap_t = self.ckpt_cost.snapshot_time(
            self.fs_profile, self.nranks, int(mean)
        )
        a.duration = overrun + snap_t
        t.result.update(self._ticket_result(r, sizes, mean))
        t.result.update({"async": True, "snapshot_time": snap_t,
                         "drain_overrun": overrun})
        thread = threading.Thread(
            target=asyncsave.drain_generation,
            args=(self, t, a.snapshots, fields, a.start, mean),
            name="ckpt-drain", daemon=True,
        )
        self._drain = (thread, t, a.start + a.duration)
        thread.start()

    def _drain_overrun(self, vtime: float) -> float:
        """Virtual time a round snapshotting at ``vtime`` waits for the
        previous drain: that drain's modeled completion (its start +
        ``drain_time`` over its byte counts) minus ``vtime`` — analytic,
        never a wall-clock measurement, so recovery traces stay
        deterministic however fast the drain actually ran.  Valid once
        the previous drain thread was joined."""
        if self._drain is None:
            return 0.0
        _, prev, start = self._drain
        # No modeled drain_time: that drain failed, nothing to wait.
        if "drain_time" not in prev.result:
            return 0.0
        return max(0.0, start + prev.result["drain_time"] - vtime)

    def _on_resumed(self) -> None:
        with self._lock:
            r, self._round = self._round, None
        if r is not None and r.attempt.resume_owed:
            r.ticket.settle()

    # ------------------------------------------------------------------
    # trivial-barrier service for two-phase collectives
    # ------------------------------------------------------------------
    def trivial_barrier(
        self,
        comm_key: Tuple,
        seq: int,
        rank: int,
        member_world_ranks: Tuple[int, ...],
        park_check: Callable[[], None],
    ) -> None:
        """Block until every member of the communicator has arrived at
        collective #seq, staying responsive to checkpoint intent.

        ``park_check`` runs while waiting; it may detour into a full
        checkpoint (and return afterwards).  Completion is the commit
        point: from there *no* member parks for a checkpoint before
        entering the collective — the two-phase-commit guarantee that
        makes the critical section deadlock-free.
        """
        key = (comm_key, seq)
        with self._tb_lock:
            m = self._barriers.get(key)
            if m is None:
                m = self._barriers[key] = _Meeting(
                    "trivial barrier", member_world_ranks,
                    lambda: self._forget_barrier(key),
                )
        self._meet(m, rank, detour=park_check)

    def _forget_barrier(self, key: Tuple) -> None:
        with self._tb_lock:
            del self._barriers[key]

    def cancel_pending(self, reason: str) -> None:
        """Fail any armed-but-unstarted checkpoint (e.g. the job finished
        before any rank reached a safe point) and any unfired trigger."""
        with self._lock:
            for t in self._take_pending_locked():
                t.fail(CheckpointError(f"checkpoint cancelled: {reason}"))
        # The one teardown site: let the last drain commit its
        # generation before the job is declared over, then stop the pool
        # it and the synchronous saves wrote through.
        if self._drain is not None:
            self._drain[0].join()
        if self.save_pool is not None:
            self.save_pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def abort(self, exc: Optional[BaseException] = None) -> None:
        with self._lock:
            self._aborted = exc or CheckpointError("job aborted")
            # The round stays armed: ranks parked at a gate must raise
            # the abort, not return as if the round were over.
            for t in self._take_pending_locked(disarm=False):
                t.fail(self._aborted)
            # A round whose ranks will never pass resume owes that half
            # no more.
            r = self._round
            owed = r is not None and r.attempt.resume_owed
            if owed:
                r.attempt.resume_owed = False
        # Every parked rank — gate, barrier, finalize, fabric wait — must
        # see the abort.
        self.scheduler.unpark_all()
        if owed:
            r.ticket.settle()
        # The drain in flight and the save pool are left alone: the
        # drain still commits its generation, and cancel_pending ends
        # both.

    def _raise_if_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

    def _raise_if_closed_locked(self) -> None:
        """Refuse a new checkpoint request once the job aborted or every
        rank finalized.  Caller holds self._lock."""
        self._raise_if_aborted()
        if self._ckpt_disabled:
            raise CheckpointError(f"cannot checkpoint: {_FINALIZED}")

    def _take_pending_locked(self, disarm: bool = True
                             ) -> List[CheckpointTicket]:
        """The tickets of every unfired trigger and of the armed round;
        the triggers are dropped, the round too with ``disarm``.  Caller
        holds self._lock."""
        tickets = [tr["ticket"] for tr in self._pending_triggers]
        self._pending_triggers.clear()
        if self._round is not None:
            tickets.append(self._round.ticket)
            if disarm:
                self._round = None
        return tickets

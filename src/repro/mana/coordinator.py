"""The checkpoint coordinator — MANA's out-of-band control plane.

Real MANA inherits a coordinator process from DMTCP: a socket-connected
daemon that broadcasts checkpoint requests and sequences the global
phases.  Here the coordinator is a shared object with reusable phase
gates; it carries *no application or MPI data* — everything
payload-bearing flows through the lower-half MPI library, as in the
real system.

Two checkpoint kinds (DESIGN.md §1, restart modes):

* ``IN_SESSION`` — ranks park at *any* wrapper safe point (any MPI call
  boundary, or inside a compute region, standing in for MANA's
  checkpoint signal).  Full fidelity for quiesce/drain/rebind; the
  image is written but threads stay alive.
* ``LOOP`` — ranks agree (via the coordinator's iteration election) on a
  common future loop iteration and park exactly there; the image is
  cold-restartable: a brand-new session can resume it.

The coordinator also hosts the *trivial barrier* used by collective
wrappers (two-phase collectives): ranks register arrival at
(communicator key, sequence) and park until the arrival that completes
the member set unparks them, remaining responsive to checkpoint intent
while they wait.  Arrival is
idempotent, so a rank that detours into a checkpoint and comes back
re-enters safely.

Every wait below parks in the job's run-slot scheduler
(:mod:`repro.runtime.scheduler`, PROTOCOLS.md §8); no coordinator or
gate lock is held across a park.

Hardening (PROTOCOLS.md §9): the four phase rendezvous are custom
gates rather than ``threading.Barrier`` so that (a) waits park under
:data:`PHASE_TIMEOUT_S`, (b) a timeout produces a *descriptive*
error naming the stuck phase and the outstanding ranks instead of a
broken-barrier trace, and (c) a round can be **aborted and retried**: when a stall is
detected (or injected), :meth:`abort_round` releases every parked rank
with :class:`CheckpointRoundAborted`, bumps the round attempt, and —
while :data:`ROUND_RETRIES` retries remain — leaves the same ticket
armed so the ranks immediately re-run the round.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
    """Handle returned to whoever requested a checkpoint."""

    generation: int
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
            raise CheckpointError(
                f"checkpoint generation {self.generation} did not complete "
                f"in time (waited {timeout:.0f}s){detail}"
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


class _PhaseGate:
    """A reusable all-ranks rendezvous with diagnostics.

    Unlike ``threading.Barrier``, a gate (a) tracks *which* ranks have
    arrived, so a timeout names the stragglers; (b) parks its waiters in
    the scheduler, where the last arriver unparks exactly them; and
    (c) can be :meth:`release`-d — waiters return without the gate
    action running, and the caller's attempt check converts that into a
    :class:`CheckpointRoundAborted` retry.  :meth:`break_` is terminal:
    every current and future waiter raises the abort exception.

    Lock ordering: the gate lock may be held while the last arriver's
    ``action`` takes the coordinator lock (gate → coordinator).  Abort
    paths therefore touch gates only *after* dropping the coordinator
    lock.
    """

    def __init__(self, name: str, parties: int, scheduler,
                 action: Optional[Callable[[], None]] = None):
        self.name = name
        self.parties = parties
        self.scheduler = scheduler
        self.action = action
        self._lock = threading.Lock()
        self._arrived: Set[int] = set()
        self._cycle = 0
        self._broken: Optional[BaseException] = None

    def arrived_ranks(self) -> List[int]:
        with self._lock:
            return sorted(self._arrived)

    def wait(self, rank: int, timeout: float = 300.0) -> None:
        deadline = time.monotonic() + timeout
        cycle = None
        while True:
            with self._lock:
                if self._broken is not None:
                    raise self._broken
                if cycle is None:
                    cycle = self._cycle
                    self._arrived.add(rank)
                    if len(self._arrived) >= self.parties:
                        # Last arriver: run the gate action, open the gate.
                        if self.action is not None:
                            self.action()
                        self._arrived.discard(rank)
                        self._open_locked()
                        return
                elif self._cycle != cycle:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    outstanding = sorted(
                        set(range(self.parties)) - self._arrived
                    )
                    raise CheckpointError(
                        f"checkpoint phase {self.name!r} timed out after "
                        f"{timeout:.0f}s: arrived ranks "
                        f"{sorted(self._arrived)}, outstanding ranks "
                        f"{outstanding}"
                    )
            self.scheduler.park(rank, remaining)

    def _open_locked(self) -> None:
        """Start the next cycle and unpark this one's waiters."""
        self._cycle += 1
        for rank in sorted(self._arrived):
            self.scheduler.unpark(rank)
        self._arrived.clear()

    def release(self) -> None:
        """Open the gate without running the action (round abort): every
        waiter returns and re-checks its round attempt."""
        with self._lock:
            self._open_locked()

    def break_(self, exc: BaseException) -> None:
        """Terminal abort: current and future waiters raise ``exc``."""
        with self._lock:
            self._broken = exc
            self._open_locked()


class CheckpointCoordinator:
    """Sequences the global checkpoint phases for one simulated job."""

    def __init__(
        self,
        nranks: int,
        store,
        fs_profile: FilesystemProfile,
        loop_lag_window: int = 4,
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
        # > 1 fans per-rank encodes out to a TaskPool; keep_generations
        # prunes + GCs after each completed round.
        self.ckpt_cost = CheckpointCostModel()
        self.save_workers = save_workers
        self.keep_generations = keep_generations
        self._save_pool = None
        self._save_pool_lock = threading.Lock()

        # Asynchronous (snapshot + background drain) saves.  Ranks stage
        # their pickled snapshots at the save barrier and resume; a
        # single background drainer encodes and writes them
        # (PROTOCOLS.md §11).
        self.async_save = async_save
        self._drainer = None
        self._drainer_lock = threading.Lock()
        # rank -> {"image", "blob"} staged this round.
        self._async_blobs: Dict[int, Dict] = {}
        # Rank 0's manifest fields, handed over at the save gate; the
        # gate action commits them (sync) or passes them to the drainer.
        self._manifest_fields: Optional[Dict] = None
        # The ticket whose resume half is still owed: set by the save
        # gate action, reported by the resume gate action (or an abort).
        self._resume_owed: Optional[CheckpointTicket] = None
        # (ticket, modeled start vtime) of the drain in flight — what
        # the *next* round's overrun accounting charges against.
        self._drain_pending: Optional[Tuple[CheckpointTicket, float]] = None

        self._lock = threading.Lock()
        self._intent: Optional[CheckpointTicket] = None
        self._aborted: Optional[BaseException] = None
        # Optional fault injector (repro.faults.FaultInjector); consulted
        # at round start for injected coordinator stalls.
        self.injector = None

        # Phase gates (reusable).  quiesce -> drained -> saved -> resumed.
        self._g_quiesce = _PhaseGate(
            "quiesce", nranks, scheduler, self._on_quiesced
        )
        self._g_drained = _PhaseGate("drain", nranks, scheduler)
        self._g_saved = _PhaseGate("save", nranks, scheduler, self._on_saved)
        self._g_resumed = _PhaseGate(
            "resume", nranks, scheduler, self._on_resumed
        )
        self._gates = (
            self._g_quiesce, self._g_drained, self._g_saved, self._g_resumed,
        )
        # Coarse phase label for diagnostics (phase_snapshot).
        self._phase = "idle"

        # Round abort/retry state: the attempt counter increments on
        # every abort_round; ranks capture it at begin_participation and
        # every phase call re-checks it.
        self._round_attempt = 0
        self._retries_left = ROUND_RETRIES
        self.round_events: List[dict] = []

        # Per-checkpoint scratch (filled by ranks, read by gate actions).
        self._rank_clocks: Dict[int, float] = {}
        self._rank_bytes: Dict[int, int] = {}
        # Per-rank format-5 save statistics (chunks written/reused etc.).
        self._rank_savestats: Dict[int, Dict] = {}
        self._ckpt_start_time = 0.0
        self._ckpt_duration = 0.0

        # LOOP-kind election state.
        self._loop_target: Optional[int] = None
        self._loop_name: Optional[str] = None

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

        # Trivial-barrier service: (comm_key, seq) -> set of arrived ranks.
        self._tb_lock = threading.Lock()
        self._tb_arrivals: Dict[Tuple, Set[int]] = {}

        # Finalize tracking: once every rank reaches MPI_Finalize,
        # checkpointing is disabled for good.
        self._finalized: Set[int] = set()
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
            if self._intent is not None:
                raise CheckpointError(
                    "a checkpoint is already in progress; wait for its "
                    "ticket before requesting another"
                )
            self.generation += 1
            ticket = CheckpointTicket(self.generation, kind, mode,
                                      _coord=self)
            self._arm_round_locked(ticket)
        self._notify_intent()
        return ticket

    def _arm_round_locked(self, ticket: CheckpointTicket) -> None:
        """Install ``ticket`` as the active intent and reset per-round
        scratch.  Caller holds self._lock."""
        self._loop_target = None
        self._loop_name = None
        self._rank_clocks.clear()
        self._rank_bytes.clear()
        self._rank_savestats.clear()
        self._round_attempt = 0
        self._retries_left = ROUND_RETRIES
        self._intent = ticket

    def _notify_intent(self) -> None:
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
        wall-clock race with the job."""
        with self._lock:
            self._raise_if_closed_locked()
            self.generation += 1
            ticket = CheckpointTicket(self.generation, kind, mode,
                                      _coord=self)
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

    def note_loop_progress(
        self, loop_name: str, iteration: int, vtime: Optional[float] = None
    ) -> None:
        """Called by ctx.loop at every iteration top (cheap when no
        triggers are armed)."""
        if not self._pending_triggers and self._interval is None:
            return
        armed = False
        with self._lock:
            if self._intent is not None or self._ckpt_disabled:
                return
            for trig in self._pending_triggers:
                if trig["loop"] == loop_name and iteration >= trig["iteration"]:
                    self._pending_triggers.remove(trig)
                    self._arm_round_locked(trig["ticket"])
                    if trig["ticket"].kind == CheckpointKind.LOOP:
                        # Deterministic election: the park target derives
                        # from the trigger's iteration, not from whichever
                        # rank happens to poll first after arming.
                        self._loop_target = (
                            max(iteration, trig["iteration"])
                            + self.loop_lag_window
                        )
                        self._loop_name = loop_name
                    armed = True
                    break
            if (
                not armed
                and self._interval is not None
                and vtime is not None
                and vtime - self._last_ckpt_vtime >= self._interval
            ):
                self._last_ckpt_vtime = vtime
                self.generation += 1
                ticket = CheckpointTicket(
                    self.generation, CheckpointKind.LOOP,
                    self._interval_mode, _coord=self,
                )
                self.interval_tickets.append(ticket)
                self._arm_round_locked(ticket)
                armed = True
        if armed:
            self._notify_intent()

    @property
    def intent(self) -> Optional[CheckpointTicket]:
        return self._intent

    def intent_kind(self) -> Optional[str]:
        t = self._intent
        return None if t is None else t.kind

    def should_park_now(self) -> bool:
        """True when an IN_SESSION checkpoint wants this rank to park at
        the current (arbitrary) safe point."""
        if self._ckpt_disabled:
            return False
        t = self._intent
        return t is not None and t.kind == CheckpointKind.IN_SESSION

    def finalize_rank(self, rank: int, park_check) -> None:
        """MPI_Finalize under MANA: the rank stays available for
        checkpoints until *every* rank has finalized (the moral of real
        MANA keeping its checkpoint thread alive until teardown).  When
        the last rank arrives, checkpointing is disabled and any armed
        but unstarted request is cancelled."""
        while True:
            with self._lock:
                self._raise_if_aborted()
                self._finalized.add(rank)
                if len(self._finalized) == self.nranks:
                    if not self._ckpt_disabled:
                        self._ckpt_disabled = True
                        for t in self._take_pending_locked():
                            t.fail(CheckpointError(
                                f"checkpoint cancelled: {_FINALIZED}"
                            ))
                        # Only the last registration lets the ranks
                        # waiting below proceed; earlier ones wake nobody.
                        for other in sorted(self._finalized - {rank}):
                            self.scheduler.unpark(other)
                    return
                want_park = self.should_park_now()
            if not want_park:
                # Nothing to park for: sleep until the last rank
                # finalizes, intent arms or the job aborts.
                self.scheduler.park(rank)
            park_check()

    # ------------------------------------------------------------------
    # LOOP-kind election
    # ------------------------------------------------------------------
    def loop_poll(self, loop_name: str, iteration: int) -> bool:
        """Called by every rank at each resumable-loop iteration top.

        Elects a common target iteration (first observer's iteration plus
        the lag window) and returns True exactly when this rank should
        park.  Requires the application's rank skew to stay below the lag
        window (our proxy apps synchronize at least every few iterations).
        """
        t = self._intent
        if t is None or t.kind != CheckpointKind.LOOP:
            return False
        with self._lock:
            if self._intent is not t:  # completed meanwhile
                return False
            if self._loop_target is None:
                self._loop_target = iteration + self.loop_lag_window
                self._loop_name = loop_name
            if self._loop_name != loop_name:
                return False  # a different loop; not the elected one
            if iteration > self._loop_target:
                raise CheckpointError(
                    f"rank skew exceeded the loop lag window: iteration "
                    f"{iteration} > target {self._loop_target}; increase "
                    f"loop_lag_window"
                )
            return iteration == self._loop_target

    def loop_target(self) -> Optional[int]:
        return self._loop_target

    def loop_cancel(self, reason: str) -> None:
        """Cancel a LOOP-kind checkpoint that can no longer be honored
        (the elected iteration lies beyond the loop's end).  Idempotent;
        every rank takes this path because loop bounds are uniform."""
        with self._lock:
            t = self._intent
            if t is None or t.kind != CheckpointKind.LOOP:
                return
            self._intent = None
            self._loop_target = None
            self._loop_name = None
            t.fail(CheckpointError(f"loop checkpoint cancelled: {reason}"))

    # ------------------------------------------------------------------
    # round lifecycle (called from repro.mana.participate)
    # ------------------------------------------------------------------
    def begin_participation(self, rank: int) -> int:
        """A rank is entering the checkpoint round: returns the round
        attempt it must carry through every phase call.  May raise
        :class:`CheckpointRoundAborted` when an injected coordinator
        stall aborts the round at its start."""
        with self._lock:
            self._raise_if_aborted()
            t = self._intent
            if t is None:
                raise CheckpointRoundAborted(
                    "checkpoint intent disarmed before the round started"
                )
            attempt = self._round_attempt
            generation = t.generation
        if self.injector is not None and self.injector.round_abort_requested(
            generation, attempt + 1
        ):
            self.abort_round(
                f"injected coordinator stall on attempt {attempt + 1}"
            )
            raise CheckpointRoundAborted(
                f"checkpoint round {generation} attempt {attempt + 1} "
                f"aborted: injected coordinator stall"
            )
        return attempt

    def abort_round(self, reason: str) -> None:
        """Abort the in-flight checkpoint round: every rank parked at a
        phase gate is released and re-checks its attempt (raising
        :class:`CheckpointRoundAborted`).  While retries remain the same
        ticket stays armed, so ranks re-run the round immediately;
        otherwise the ticket fails with a descriptive error."""
        with self._lock:
            if self._aborted is not None:
                return
            t = self._intent
            if t is None:
                return
            self._round_attempt += 1
            retrying = self._retries_left > 0
            self.round_events.append({
                "event": "round-abort",
                "generation": t.generation,
                "attempt": self._round_attempt,
                "reason": reason,
                "retrying": retrying,
            })
            self._rank_clocks.clear()
            self._rank_bytes.clear()
            self._rank_savestats.clear()
            self._async_blobs.clear()
            self._manifest_fields = None
            owed, self._resume_owed = self._resume_owed, None
            self._phase = "idle"
            if retrying:
                self._retries_left -= 1
            else:
                self._intent = None
                self._loop_target = None
                self._loop_name = None
                t.fail(CheckpointError(
                    f"checkpoint generation {t.generation} failed "
                    f"after {self._round_attempt} aborted attempt(s): "
                    f"{reason}"
                ))
        # Outside the coordinator lock (gate actions may take it).
        if owed is not None:
            owed.settle()   # these ranks will not pass this resume
        for g in self._gates:
            g.release()
        self._notify_intent()

    def _check_attempt(self, attempt: int) -> None:
        """Raise when the round was aborted since this rank captured
        ``attempt`` (before or while it waited at a gate)."""
        with self._lock:
            self._raise_if_aborted()
            if attempt != self._round_attempt:
                raise CheckpointRoundAborted(
                    f"checkpoint round aborted (attempt {attempt + 1} "
                    f"superseded by {self._round_attempt + 1})"
                )

    # ------------------------------------------------------------------
    # phase gates (called from repro.mana.participate)
    # ------------------------------------------------------------------
    def quiesce(self, rank: int, clock_now: float, attempt: int = 0) -> None:
        # Pre-wait check: a rank whose round was already aborted must not
        # enqueue at the gate (it would open with mixed attempts).
        self._check_attempt(attempt)
        with self._lock:
            self._raise_if_aborted()
            self._rank_clocks[rank] = clock_now
            self._phase = "quiesce"
        self._g_quiesce.wait(rank, timeout=PHASE_TIMEOUT_S)
        self._check_attempt(attempt)

    def drained(self, rank: int = 0, attempt: int = 0) -> None:
        self._check_attempt(attempt)
        self._phase = "drain"
        self._g_drained.wait(rank, timeout=PHASE_TIMEOUT_S)
        self._check_attempt(attempt)

    def saved(self, rank: int, image_bytes: int, attempt: int = 0,
              stats: Optional[Dict] = None,
              manifest: Optional[Dict] = None) -> None:
        """``image_bytes`` stays the rank's *logical* upper-half size
        (what Table 3 models); format-5 ``stats`` carry the physical
        write accounting (chunks written/reused, bytes written) that the
        cost model and the dedup report consume.  Rank 0 hands over the
        ``manifest`` fields it knows; the gate action commits them."""
        self._check_attempt(attempt)
        with self._lock:
            self._raise_if_aborted()
            self._rank_bytes[rank] = image_bytes
            if stats is not None:
                self._rank_savestats[rank] = stats
            if manifest is not None:
                self._manifest_fields = manifest
            self._phase = "save"
        self._g_saved.wait(rank, timeout=PHASE_TIMEOUT_S)
        self._check_attempt(attempt)

    # ------------------------------------------------------------------
    # parallel save fan-out
    # ------------------------------------------------------------------
    def save_pool(self):
        """The shared chunk-write :class:`TaskPool` (``save_workers >
        1``), lazily created and reused across rounds; None when
        pooling is off."""
        if self.save_workers <= 1:
            return None
        pool = self._save_pool
        if pool is None:
            with self._save_pool_lock:
                pool = self._save_pool
                if pool is None:
                    from repro.harness.parallel import TaskPool

                    pool = TaskPool(self.save_workers, name="ckpt-save")
                    self._save_pool = pool
        return pool

    def _shutdown_save_pool(self) -> None:
        with self._save_pool_lock:
            pool, self._save_pool = self._save_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # asynchronous saves (snapshot + background drain)
    # ------------------------------------------------------------------
    def stage_async_blob(self, rank: int, image, blob: bytes) -> None:
        """Stage one rank's pickled snapshot for the background drain."""
        with self._lock:
            self._async_blobs[rank] = {"image": image, "blob": blob}

    def _ensure_drainer(self):
        d = self._drainer
        if d is None:
            with self._drainer_lock:
                d = self._drainer
                if d is None:
                    from repro.mana.asyncsave import AsyncSaveDrainer

                    d = AsyncSaveDrainer(self, self.store)
                    self._drainer = d
        return d

    def _shutdown_drainer(self) -> None:
        with self._drainer_lock:
            d, self._drainer = self._drainer, None
        if d is not None:
            d.shutdown()

    def resumed(self, rank: int = 0, attempt: int = 0) -> None:
        self._phase = "resume"
        self._g_resumed.wait(rank, timeout=PHASE_TIMEOUT_S)
        # No attempt check: the round is complete once the resume gate
        # opens (_on_resumed already cleared the intent).

    def checkpoint_timing(self) -> Tuple[float, float]:
        """(global start time, duration) of the checkpoint in progress —
        valid after the saved barrier."""
        return self._ckpt_start_time, self._ckpt_duration

    def phase_snapshot(self) -> str:
        """One-line description of where the checkpoint round stands —
        used by timeout errors to name the stuck phase and ranks.

        Names the round (generation, kind/mode, retry attempt), the
        stuck gate with arrived vs outstanding ranks, and whether the
        async drainer is still busy — enough to diagnose a hang from
        the exception text alone.
        """
        phase = self._phase
        bits = [f"coordinator phase {phase!r}"]
        t = self._intent
        if t is not None:
            round_desc = f"generation {t.generation} ({t.kind}/{t.mode}"
            if self._round_attempt:
                round_desc += f", retry attempt {self._round_attempt + 1}"
            bits.append(round_desc + ")")
        gate = {
            "quiesce": self._g_quiesce,
            "drain": self._g_drained,
            "save": self._g_saved,
            "resume": self._g_resumed,
        }.get(phase)
        if gate is not None:
            arrived = gate.arrived_ranks()
            outstanding = sorted(set(range(self.nranks)) - set(arrived))
            bits.append(
                f"arrived ranks {arrived}, outstanding ranks {outstanding}"
            )
        d = self._drainer
        if d is not None and not d._idle.is_set():
            bits.append("async drain in flight")
        return "; ".join(bits)

    def _on_quiesced(self) -> None:
        self._ckpt_start_time = max(self._rank_clocks.values())

    @staticmethod
    def _written_logical(dedup: Dict, logical_mean: float) -> int:
        """The written fraction measured on the real pickle bytes scales
        the *logical* (simulated) payload, so proxy apps with
        simulated_state_bytes see proportional savings."""
        payload = dedup["payload_bytes"]
        frac = dedup["bytes_written"] / payload if payload else 1.0
        return int(logical_mean * min(1.0, frac))

    def _ticket_result(self, sizes: List[int], mean: float) -> Dict:
        """What a ticket reports once the round's cost is known."""
        t = self._intent
        return {
            "generation": t.generation,
            "kind": t.kind,
            "mode": t.mode,
            "bytes_per_rank": sizes,
            "mean_bytes_per_rank": mean,
            "ckpt_time": self._ckpt_duration,
            "mb_per_s_per_rank": (
                mean / self._ckpt_duration / 1e6
                if self._ckpt_duration > 0
                else float("inf")
            ),
            "loop_target": self._loop_target,
        }

    def _on_saved(self) -> None:
        """Gate action of the save barrier: every rank's image is durable
        (sync) or staged (async).  Commits the generation — here, or by
        handing it to the drainer — and leaves the ticket owing its
        resume half."""
        sizes = list(self._rank_bytes.values())
        mean = sum(sizes) / len(sizes) if sizes else 0
        t = self._intent
        fields = dict(self._manifest_fields, loop_target=self._loop_target)
        with self._lock:
            self._manifest_fields = None
            self._resume_owed = t
        if self.async_save:
            self._on_saved_async(t, sizes, mean, fields)
            return
        # Charge the incremental pipeline's analytic cost.
        dedup = dedup_summary(self._rank_savestats.values())
        self._ckpt_duration = self.ckpt_cost.save_time(
            self.fs_profile, self.nranks, int(mean),
            self._written_logical(dedup, mean),
        )
        t.result.update(self._ticket_result(sizes, mean))
        t.result["dedup"] = dedup
        self.store.commit(t.generation, dict(fields, dedup=dedup),
                          self.keep_generations)
        t.settle()

    def _on_saved_async(self, t: CheckpointTicket, sizes: List[int],
                        mean: float, fields: Dict) -> None:
        """Gate action of the save barrier in an **async** round: charge
        only snapshot + drain-overrun to virtual time, hand the staged
        blobs to the background drainer, and release the ranks.

        Back-pressure first: at most one drain is ever in flight, so
        the last-arriving rank blocks (wall-clock only) until the
        previous generation's drain has settled.  The *overrun* charged
        to virtual time is analytic — the previous drain's modeled
        completion (its start vtime + ``drain_time`` over its byte
        counts) minus this round's start — never a wall-clock
        measurement, so recovery traces stay deterministic no matter
        how fast the drainer actually ran.
        """
        drainer = self._ensure_drainer()
        drainer.wait_idle()
        start = self._ckpt_start_time
        overrun = 0.0
        if self._drain_pending is not None:
            prev, prev_start = self._drain_pending
            # No modeled drain_time: that drain failed, nothing to wait.
            if "drain_time" in prev.result:
                overrun = max(
                    0.0, prev_start + prev.result["drain_time"] - start
                )
        snap_t = self.ckpt_cost.snapshot_time(
            self.fs_profile, self.nranks, int(mean)
        )
        self._ckpt_duration = overrun + snap_t
        self._drain_pending = (t, start + self._ckpt_duration)
        blobs = dict(self._async_blobs)
        self._async_blobs = {}
        t.result.update(self._ticket_result(sizes, mean))
        t.result.update({"async": True, "snapshot_time": snap_t,
                         "drain_overrun": overrun})
        from repro.mana.asyncsave import DrainJob

        drainer.submit(DrainJob(
            ticket=t,
            ranks=blobs,
            manifest=fields,
            vtime=start,
            logical_mean=mean,
        ))

    def _on_resumed(self) -> None:
        with self._lock:
            self._intent = None
            self._phase = "idle"
            owed, self._resume_owed = self._resume_owed, None
        if owed is not None:
            owed.settle()

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

        ``park_check`` is invoked while waiting; it may detour into a
        full checkpoint (and return afterwards).  Arrival is recorded by
        world rank and is idempotent.
        """
        key = (comm_key, seq)
        members = set(member_world_ranks)
        while True:
            with self._tb_lock:
                self._raise_if_aborted()
                state = self._tb_arrivals.setdefault(
                    key, {"arrived": set(), "committed": False}
                )
                if state["committed"]:
                    return
                state["arrived"].add(rank)
                if members.issubset(state["arrived"]):
                    # Commit point: from here, *no* member may park for a
                    # checkpoint before entering the collective — the
                    # two-phase-commit guarantee that makes the critical
                    # section deadlock-free.  The one arrival that
                    # commits unparks the waiters; they return above
                    # without waking anybody else.
                    state["committed"] = True
                    for other in sorted(state["arrived"] - {rank}):
                        self.scheduler.unpark(other)
                    stale = [
                        k for k in self._tb_arrivals
                        if k[0] == comm_key and k[1] < seq - 2
                    ]
                    for k in stale:
                        del self._tb_arrivals[k]
                    return
                want_park = self.should_park_now()
                if want_park:
                    # Leave the barrier BEFORE parking so partners cannot
                    # observe a full set that includes a parked rank.
                    state["arrived"].discard(rank)
            if want_park:
                park_check()
            else:
                # Unparked by the committing arrival, intent arming or
                # abort.
                self.scheduler.park(rank)

    def cancel_pending(self, reason: str) -> None:
        """Fail any armed-but-unstarted checkpoint (e.g. the job finished
        before any rank reached a safe point) and any unfired trigger."""
        with self._lock:
            for t in self._take_pending_locked():
                t.fail(CheckpointError(f"checkpoint cancelled: {reason}"))
        # Finish any in-flight background drain (its generation must be
        # durable before the job is declared over), then stop the pools.
        self._shutdown_drainer()
        self._shutdown_save_pool()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def abort(self, exc: Optional[BaseException] = None) -> None:
        with self._lock:
            self._aborted = exc or CheckpointError("job aborted")
            # The intent stays armed: ranks parked at a gate must raise
            # the abort, not return as if the round were over.
            for t in self._take_pending_locked(disarm=False):
                t.fail(self._aborted)
        # Outside the coordinator lock (gate actions may take it).
        for g in self._gates:
            g.break_(self._aborted)
        # Every parked rank — barrier, finalize, fabric wait — must see
        # the abort.
        self.scheduler.unpark_all()
        # A round whose ranks will never pass resume owes that half no
        # more.
        with self._lock:
            owed, self._resume_owed = self._resume_owed, None
        if owed is not None:
            owed.settle()
        self._shutdown_save_pool()

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
        """The tickets of every unfired trigger and of the armed intent;
        the triggers are dropped, the intent too with ``disarm``.  Caller
        holds self._lock."""
        tickets = [tr["ticket"] for tr in self._pending_triggers]
        self._pending_triggers.clear()
        if self._intent is not None:
            tickets.append(self._intent)
            if disarm:
                self._intent = None
        return tickets

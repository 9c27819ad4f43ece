"""Declarative fault plans.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
naming one injectable fault and the exact event at which it fires.  The
plan is pure data: installing it via ``JobConfig(faults=plan)`` turns it
into a :class:`repro.faults.injector.FaultInjector`, the runtime object
consulted at the hook points.  Because every trigger is expressed in
deterministic coordinates — nth wrapped MPI call on a rank, a resumable
loop iteration, a checkpoint generation and phase, the nth message on a
(src, dst) pair — the same plan plus the same seed reproduces the
identical failure trace, run after run.

The seed additionally derives any randomness a fault needs (e.g. which
payload byte a bit-flip corrupts) via the repo's stable hash, never the
host RNG.

Each spec is filed under one program point (:attr:`FaultSpec.point`),
and a hook there fires the first unfired spec whose coordinates equal
the hook's; an unset ``generation`` matches any generation.  A spec
that could never fire is refused when it is built: an unknown kind or
crash site, a crash, image, chunk or disk-full fault with no ``rank``,
an MPI-call crash at ``at`` < 1 or a loop crash at ``at`` < 0, a message
fault with no ``src`` or ``dst``, and a round abort with no
``generation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

# Fault kinds.
CRASH = "crash"
MSG_DROP = "msg-drop"
MSG_DELAY = "msg-delay"
CORRUPT_IMAGE = "corrupt-image"
CORRUPT_CHUNK = "corrupt-chunk"
DISK_FULL = "disk-full"
ROUND_ABORT = "round-abort"

# Crash sites.
SITE_MPI_CALL = "mpi-call"
SITE_LOOP = "loop"
SITE_PRE_DRAIN = "pre-drain"
SITE_POST_DRAIN = "post-drain"
SITE_MID_SAVE = "mid-save"

CRASH_SITES = (
    SITE_MPI_CALL, SITE_LOOP, SITE_PRE_DRAIN, SITE_POST_DRAIN, SITE_MID_SAVE,
)
#: The fabric's point, shared by both message faults.
MESSAGE = "message"

#: The coordinates each kind's hook matches on that a spec must set
#: (a crash also needs its site, and an MPI-call or loop crash ``at``).
_REQUIRED = {
    CRASH: ("rank",), CORRUPT_IMAGE: ("rank",), CORRUPT_CHUNK: ("rank",),
    DISK_FULL: ("rank",), MSG_DROP: ("src", "dst"),
    MSG_DELAY: ("src", "dst"), ROUND_ABORT: ("generation",),
}

# Image-corruption modes.
CORRUPT_BITFLIP = "bitflip"
CORRUPT_TRUNCATE = "truncate"


@dataclass
class FaultSpec:
    """One injectable fault and its (deterministic) firing condition."""

    kind: str
    rank: Optional[int] = None        # rank the fault targets
    site: Optional[str] = None        # crash site (see CRASH_SITES)
    at: Optional[int] = None          # nth MPI call / loop iteration
    loop: str = "main"                # loop name for SITE_LOOP crashes
    generation: Optional[int] = None  # checkpoint generation (ckpt faults)
    mode: str = CORRUPT_BITFLIP       # corrupt-image mode
    src: Optional[int] = None         # message faults: sender world rank
    dst: Optional[int] = None         # message faults: receiver world rank
    nth: int = 1                      # nth message on the (src, dst) pair
    delay: float = 0.0                # msg-delay: extra virtual seconds
    attempt: int = 1                  # round-abort: which attempt to hit

    def __post_init__(self):
        if self.kind not in _REQUIRED:
            raise ValueError(
                f"fault kind must be one of {tuple(_REQUIRED)}, "
                f"got {self.kind!r}"
            )
        missing = [c for c in _REQUIRED[self.kind]
                   if getattr(self, c) is None]
        if missing:
            raise ValueError(
                f"a {self.kind} fault needs {' and '.join(missing)}"
            )
        if self.kind == CRASH and self.site not in CRASH_SITES:
            raise ValueError(
                f"crash site must be one of {CRASH_SITES}, got {self.site!r}"
            )
        # Wrapped MPI calls count from 1, loop iterations from 0.
        first = {SITE_MPI_CALL: 1, SITE_LOOP: 0}.get(self.site)
        if self.kind == CRASH and first is not None and (
                self.at is None or self.at < first):
            raise ValueError(
                f"a {self.site} crash needs at >= {first}, got {self.at!r}"
            )
        if self.kind == CORRUPT_IMAGE and self.mode not in (
            CORRUPT_BITFLIP, CORRUPT_TRUNCATE,
        ):
            raise ValueError(f"unknown corruption mode {self.mode!r}")

    @property
    def point(self) -> str:
        """The program point whose hook matches this spec: a crash's
        site, ``message`` for both message faults, otherwise the kind."""
        if self.kind == CRASH:
            return self.site
        return MESSAGE if self.kind in (MSG_DROP, MSG_DELAY) else self.kind

    def describe(self) -> str:
        if self.kind == CRASH:
            if self.site == SITE_MPI_CALL:
                where = f"MPI call #{self.at}"
            elif self.site == SITE_LOOP:
                where = f"loop {self.loop!r} iteration {self.at}"
            else:
                where = f"{self.site} of generation {self.generation}"
            return f"crash rank {self.rank} at {where}"
        if self.kind == CORRUPT_IMAGE:
            return (f"{self.mode} image of rank {self.rank} "
                    f"generation {self.generation}")
        if self.kind == CORRUPT_CHUNK:
            return (f"corrupt store chunk #{self.nth} newly written by "
                    f"rank {self.rank} generation {self.generation}")
        if self.kind == DISK_FULL:
            return (f"disk full on rank {self.rank} saving "
                    f"generation {self.generation}")
        if self.kind == ROUND_ABORT:
            return (f"abort checkpoint round generation {self.generation} "
                    f"attempt {self.attempt}")
        what = "drop" if self.kind == MSG_DROP else f"delay {self.delay}s"
        return f"{what} message #{self.nth} {self.src}->{self.dst}"


@dataclass
class FaultPlan:
    """A seeded, reproducible set of faults to inject into one job
    (and its supervised restarts — fired faults never re-fire).

    Build with the fluent helpers::

        plan = (FaultPlan(seed=7)
                .crash_at_loop(rank=1, iteration=9)
                .corrupt_image(generation=2, rank=0, mode="bitflip"))
    """

    seed: int = 0
    specs: List[FaultSpec] = field(default_factory=list)

    # -- fluent builders -------------------------------------------------
    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def crash_at_call(self, rank: int, n: int) -> "FaultPlan":
        """Kill ``rank`` at its ``n``-th wrapped MPI call."""
        return self.add(FaultSpec(CRASH, rank=rank, site=SITE_MPI_CALL, at=n))

    def crash_at_loop(self, rank: int, iteration: int,
                      loop: str = "main") -> "FaultPlan":
        """Kill ``rank`` at the top of loop ``loop`` iteration ``iteration``."""
        return self.add(
            FaultSpec(CRASH, rank=rank, site=SITE_LOOP, at=iteration, loop=loop)
        )

    def crash_in_checkpoint(self, rank: int, generation: int,
                            site: str = SITE_MID_SAVE) -> "FaultPlan":
        """Kill ``rank`` inside checkpoint ``generation`` at ``site``
        (pre-drain, post-drain, or mid-save)."""
        return self.add(
            FaultSpec(CRASH, rank=rank, site=site, generation=generation)
        )

    def corrupt_image(self, generation: int, rank: int,
                      mode: str = CORRUPT_BITFLIP) -> "FaultPlan":
        """Corrupt rank ``rank``'s image of ``generation`` on disk right
        after it is written (bit rot / torn write simulation)."""
        return self.add(
            FaultSpec(CORRUPT_IMAGE, rank=rank, generation=generation,
                      mode=mode)
        )

    def corrupt_chunk(self, generation: int, rank: int,
                      nth: int = 1) -> "FaultPlan":
        """Flip one byte of the ``nth`` chunk file rank ``rank``'s
        format-5 save of ``generation`` *newly wrote* to the content
        store.  Targeting new chunks only keeps earlier generations
        (whose chunks are all older) restorable, so fallback is
        well-defined."""
        return self.add(
            FaultSpec(CORRUPT_CHUNK, rank=rank, generation=generation,
                      nth=nth)
        )

    def disk_full(self, rank: int, generation: int) -> "FaultPlan":
        """Fail rank ``rank``'s image save of ``generation`` with a
        disk-full error, raised before the save writes anything."""
        return self.add(FaultSpec(DISK_FULL, rank=rank, generation=generation))

    def drop_message(self, src: int, dst: int, nth: int = 1) -> "FaultPlan":
        """Silently lose the ``nth`` message ``src`` sends to ``dst``."""
        return self.add(FaultSpec(MSG_DROP, src=src, dst=dst, nth=nth))

    def delay_message(self, src: int, dst: int, seconds: float,
                      nth: int = 1) -> "FaultPlan":
        """Add ``seconds`` of virtual latency to the ``nth`` message on
        the (src, dst) pair."""
        return self.add(
            FaultSpec(MSG_DELAY, src=src, dst=dst, nth=nth, delay=seconds)
        )

    def abort_round(self, generation: int, attempt: int = 1) -> "FaultPlan":
        """Abort checkpoint round ``generation`` on its ``attempt``-th
        try (simulates a coordinator stall detected by the backoff
        timeout); the coordinator retries the round."""
        return self.add(
            FaultSpec(ROUND_ABORT, generation=generation, attempt=attempt)
        )

    # -- seeded construction --------------------------------------------
    @classmethod
    def seeded_crash(cls, seed: int, nranks: int,
                     max_call: int = 200) -> "FaultPlan":
        """A one-crash plan whose victim rank and call index derive from
        ``seed`` alone (for randomized-but-reproducible sweeps)."""
        from repro.util.rng import _stable_hash

        rank = _stable_hash(f"{seed}/fault-rank") % nranks
        n = 1 + _stable_hash(f"{seed}/fault-call") % max_call
        return cls(seed=seed).crash_at_call(rank, n)

    def describe(self) -> List[str]:
        return [s.describe() for s in self.specs]

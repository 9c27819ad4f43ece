"""BenchStateApp — the application the lifecycle and recover workloads run.

A :class:`repro.apps.base.BlockApp` whose *global* state is one seeded,
incompressible byte array split contiguously over the ranks.  Every block
does a ring halo exchange, a stretch of real numpy compute, overwrites a
small share of the state, and allreduces how much it overwrote.

The overwritten windows are chosen by **global** byte offset from
``(seed, block)`` alone, so the rank-ordered concatenation of the final
state is the same for any world size.  That gives the benchmark one oracle
for same-size, cross-implementation and elastic restores alike:
:func:`reference` replays the overwrites on the whole array with no
MPI, no checkpoint and no restart in the way.

Wall-clock stamps of the blocks go to a :class:`BlockLog` held in a
module-level slot, never into the application object: the pickled upper
half, and with it every image byte, stays a function of the seed.  The slot
is module-level because a restarted job's applications come out of a pickle
and cannot be handed an object.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import BlockApp, Partitioner, WorkloadSpec

_HALO_TAG = 70


@dataclass
class BenchSpec(WorkloadSpec):
    """WorkloadSpec plus the knobs of the benchmark's state evolution."""

    state_bytes: int = 0      # global state size, all ranks together
    windows: int = 0          # overwritten windows per block, globally
    window_bytes: int = 0     # bytes per window
    burn_elems: int = 0       # uint32 elements of real compute per block


def make_spec(nranks: int, blocks: int, seed: int, *, rank_bytes: int,
              mutate_fraction: float, burn_elems: int) -> BenchSpec:
    """The spec of an ``nranks`` × ``rank_bytes`` job that overwrites
    ``mutate_fraction`` of its global state per block."""
    state_bytes = nranks * rank_bytes
    window_bytes = 4096
    windows = max(1, round(state_bytes * mutate_fraction / window_bytes))
    return BenchSpec(
        nranks=nranks,
        blocks=blocks,
        steps_per_block=200,
        compute_per_block=0.05,
        halo_bytes=1024,
        input_label=f"{nranks} x {rank_bytes} B seeded bytes",
        simulated_state_bytes=0,
        seed=seed,
        os_noise=0.0,
        state_bytes=state_bytes,
        windows=windows,
        window_bytes=window_bytes,
        burn_elems=burn_elems,
    )


#: The seeded state is drawn in segments of this many bytes, so a rank
#: can draw its own slice without drawing everybody else's.
_SEGMENT = 1 << 16


def initial_state(spec: BenchSpec, lo: int = 0,
                  hi: Optional[int] = None) -> np.ndarray:
    """Global bytes ``[lo, hi)`` of the seeded state (uniform bytes: zlib
    cannot shrink them)."""
    hi = spec.state_bytes if hi is None else hi
    first = lo // _SEGMENT
    segments = [
        np.random.default_rng([spec.seed, 0x5EED, k]).integers(
            0, 256, size=_SEGMENT, dtype=np.uint8
        )
        for k in range(first, (hi - 1) // _SEGMENT + 1)
    ]
    base = first * _SEGMENT
    return np.concatenate(segments)[lo - base:hi - base].copy()


def overwrite_block(state: np.ndarray, lo: int, spec: BenchSpec,
                    it: int) -> int:
    """Apply block ``it``'s overwrites to ``state``, which holds global
    bytes ``[lo, lo + len(state))``; returns the bytes written here."""
    hi = lo + len(state)
    w = spec.window_bytes
    offsets = np.random.default_rng([spec.seed, it]).integers(
        0, spec.state_bytes - w, size=spec.windows
    )
    written = 0
    for j, off in enumerate(offsets.tolist()):
        a, b = max(off, lo), min(off + w, hi)
        if a >= b:
            continue
        fill = np.random.default_rng([spec.seed, it, j]).integers(
            0, 256, size=w, dtype=np.uint8
        )
        state[a - lo:b - lo] = fill[a - off:b - off]
        written += b - a
    return written


@dataclass(frozen=True)
class Reference:
    """What an uninterrupted run of a spec must end with."""

    digest: str                     # sha256 of the final global state
    overwritten: int                # bytes overwritten, all blocks
    checksums: Tuple[float, ...]    # per-rank halo checksums


def reference(spec: BenchSpec) -> Reference:
    """Replay ``spec`` on the whole array: no MPI, no checkpoint, no
    restart.  A rank's halo is the head of its right neighbour's slice as
    it stood before the block's overwrites."""
    state = initial_state(spec)
    n = spec.nranks
    heads = [lo for lo, _hi in Partitioner.bounds(spec.state_bytes, n)]
    sums = [0.0] * n
    overwritten = 0
    for it in range(spec.blocks):
        for rank in range(n):
            lo = heads[(rank + 1) % n]
            sums[rank] += float(
                state[lo:lo + spec.halo_bytes].sum(dtype=np.uint64)
            )
        overwritten += overwrite_block(state, 0, spec, it)
    return Reference(hashlib.sha256(state).hexdigest(), overwritten,
                     tuple(sums))


def global_digest(apps: Sequence["BenchStateApp"]) -> str:
    """sha256 over the rank-ordered concatenation of the apps' state."""
    h = hashlib.sha256()
    for app in apps:
        h.update(app.state)
    return h.hexdigest()


# ----------------------------------------------------------------------
# wall-clock side table
# ----------------------------------------------------------------------
class BlockLog:
    """Per-block wall-clock stamps of the job run while it is current."""

    def __init__(self, rank0_probe: Optional[Callable[[], object]] = None):
        #: (rank, block) -> (start, end)
        self.stamps: Dict[Tuple[int, int], Tuple[float, float]] = {}
        #: Traced runs only: what ``rank0_probe()`` returned when rank 0
        #: finished each block (store counters, manifests visible).
        self.probed: Dict[int, object] = {}
        self._probe = rank0_probe
        # The burn results end here so the compute is consumed.
        self.burn_sink = 0.0

    def record(self, rank: int, it: int, start: float, burn: float) -> None:
        self.stamps[(rank, it)] = (start, perf_counter())
        self.burn_sink += burn
        if rank == 0 and self._probe is not None:
            self.probed[it] = self._probe()

    def gap(self, it: int) -> float:
        """Longest wait any rank had between finishing block ``it - 1``
        and starting block ``it``."""
        return max(
            se[0] - self.stamps[(rank, it - 1)][1]
            for (rank, block), se in self.stamps.items() if block == it
        )

    def first_start(self) -> float:
        return min(start for start, _end in self.stamps.values())

    def end_of(self, it: int) -> float:
        """When the last rank finished block ``it``."""
        return max(se[1] for (_r, block), se in self.stamps.items()
                   if block == it)


_CURRENT: Optional[BlockLog] = None


@contextlib.contextmanager
def recording(log: BlockLog) -> Iterator[BlockLog]:
    """Make ``log`` the destination of block stamps inside the block."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, log
    try:
        yield log
    finally:
        _CURRENT = previous


# ----------------------------------------------------------------------
class BenchStateApp(BlockApp):
    name = "bench-state"

    partition_attrs = ("state",)
    replicated_attrs = ("overwritten",)

    def __init__(self, spec: BenchSpec):
        super().__init__(spec)
        self.overwritten = 0

    def init_state(self, ctx) -> None:
        lo, hi = Partitioner.bounds(self.spec.state_bytes, ctx.nranks)[ctx.rank]
        self.state = initial_state(self.spec, lo, hi)

    def block(self, ctx, it: int) -> None:
        start = perf_counter()
        spec = self.spec
        MPI = ctx.MPI
        world = MPI.COMM_WORLD
        ctx.compute(spec.compute_per_block)

        h = spec.halo_bytes
        ghost = np.empty(h, dtype=np.uint8)
        MPI.sendrecv(
            self.state[:h], h, MPI.BYTE, (ctx.rank - 1) % ctx.nranks,
            _HALO_TAG,
            ghost, h, MPI.BYTE, (ctx.rank + 1) % ctx.nranks, _HALO_TAG,
            world,
        )
        self.checksum += float(ghost.sum(dtype=np.uint64))

        burn = 0.0
        if spec.burn_elems:
            x = self.state[:4 * spec.burn_elems].view(np.uint32).astype(
                np.float64
            )
            np.sqrt(x, out=x)
            np.sin(x, out=x)
            burn = float(x.sum())

        lo = Partitioner.bounds(spec.state_bytes, ctx.nranks)[ctx.rank][0]
        mine = np.array([overwrite_block(self.state, lo, spec, it)],
                        dtype=np.int64)
        total = np.zeros(1, dtype=np.int64)
        MPI.allreduce(mine, total, 1, MPI.INT64_T, MPI.SUM, world)
        self.overwritten += int(total[0])

        log = _CURRENT
        if log is not None:
            log.record(ctx.rank, it, start, burn)

    def validate(self, ctx) -> Optional[str]:
        if self.blocks_done != self.spec.blocks:
            return (f"bench-state finished {self.blocks_done}/"
                    f"{self.spec.blocks} blocks")
        return None

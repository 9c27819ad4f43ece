"""Shared machinery for the proxy applications.

Calibration (DESIGN.md §4.6)
----------------------------
A real run of, say, LAMMPS makes ~10^10 MPI calls; simulating each is
impossible and unnecessary.  Each proxy iterates over *blocks*: one
resumable-loop iteration stands for ``steps_per_block`` real timesteps.
The proxy performs the skeleton's MPI calls once per block (real
messages, real collectives — these exercise the full MANA machinery),
declares the block's compute time, and sets the MANA call-weight to
``steps_per_block`` so wrapper-crossing *rates* (context switches per
second, §6.3) match the paper's measurements.

The numbers in each app's ``paper_config`` derive from:

* §6.3 context-switch rates (CoMD 3.7M, HPCG 4.7M, LAMMPS 22.9M,
  LULESH 1.3M, SW4 12.5M CS/s, job-aggregate, Table 1 rank counts);
* Table 3 checkpoint image sizes per rank;
* native runtimes of Figure 2's scale (hundreds of seconds).

Given crossings-per-block ``c`` (from the skeleton), block compute
``t``, and the target per-rank rate ``r``: ``steps_per_block = r*t/c``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.app import MpiApplication
from repro.util.errors import ElasticRestartError


@dataclass
class WorkloadSpec:
    """One application configuration (a row of Table 1 or Table 2)."""

    nranks: int
    blocks: int                    # simulated loop iterations
    steps_per_block: int           # call-weight K (real steps per block)
    compute_per_block: float       # seconds at reference CPU speed
    halo_bytes: int                # per-face message payload
    input_label: str               # the paper's input column
    simulated_state_bytes: int     # Table 3 image size per rank
    seed: int = 7
    # OS/system noise: fractional std of per-block compute time.  The
    # paper notes HPCG and LULESH showed "substantially more timing
    # variation ... which appeared to fall into clusters" even natively;
    # per-app noise levels reproduce that methodology artifact when the
    # harness runs multiple trials.
    os_noise: float = 0.004


def grid_dims(nranks: int, ndims: int = 3) -> Tuple[int, ...]:
    """Near-cubic process grid (MPI_Dims_create semantics)."""
    from repro.mpi.api import BaseMpiLib

    return tuple(BaseMpiLib.dims_create(nranks, ndims))


def coords_of(rank: int, dims: Tuple[int, ...]) -> Tuple[int, ...]:
    coords = []
    for extent in reversed(dims):
        coords.append(rank % extent)
        rank //= extent
    return tuple(reversed(coords))


def rank_of(coords: Tuple[int, ...], dims: Tuple[int, ...]) -> int:
    rank = 0
    for extent, c in zip(dims, coords):
        rank = rank * extent + (c % extent)
    return rank


def face_neighbors(
    rank: int, dims: Tuple[int, ...], periodic: bool = True
) -> List[Tuple[int, int]]:
    """(send_to, recv_from) world-rank pairs, one per face (2*ndims).

    With ``periodic=False``, edges map to PROC_NULL (-2), matching
    MPI_Cart_shift at open boundaries.
    """
    from repro.mpi.constants import PROC_NULL

    coords = coords_of(rank, dims)
    pairs: List[Tuple[int, int]] = []
    for axis in range(len(dims)):
        for direction in (+1, -1):
            def shifted(delta: int) -> int:
                c = list(coords)
                c[axis] += delta
                if not periodic and not 0 <= c[axis] < dims[axis]:
                    return PROC_NULL
                return rank_of(tuple(c), dims)

            pairs.append((shifted(direction), shifted(-direction)))
    return pairs


# ----------------------------------------------------------------------
# elastic repartitioning (PROTOCOLS.md §12)
# ----------------------------------------------------------------------
class Partitioner:
    """Contiguous 1-D block partitioning of ``total`` items over ranks.

    The shape follows nengo_mpi's ``partition``/``verify_assignments``:
    a pure assignment function plus an explicit verifier that every item
    is owned exactly once.  All proxies decompose their per-rank domain
    arrays along axis 0, so a 1-D item partition is sufficient to move
    upper-half state between world sizes.
    """

    @staticmethod
    def bounds(total: int, nranks: int) -> List[Tuple[int, int]]:
        """Near-equal ``[lo, hi)`` slice per rank (first ranks get the
        remainder), covering ``[0, total)`` exactly."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        base, rem = divmod(total, nranks)
        out: List[Tuple[int, int]] = []
        lo = 0
        for r in range(nranks):
            hi = lo + base + (1 if r < rem else 0)
            out.append((lo, hi))
            lo = hi
        return out

    @staticmethod
    def owner_of(index: int, bounds: List[Tuple[int, int]]) -> int:
        """The rank whose ``[lo, hi)`` slice contains ``index``."""
        for r, (lo, hi) in enumerate(bounds):
            if lo <= index < hi:
                return r
        raise ValueError(f"index {index} outside every bound in {bounds}")

    @staticmethod
    def verify(bounds: List[Tuple[int, int]], total: int) -> None:
        """Every item owned exactly once, in rank order, no gaps."""
        lo = 0
        for r, (b_lo, b_hi) in enumerate(bounds):
            if b_lo != lo or b_hi < b_lo:
                raise ValueError(
                    f"rank {r} bound [{b_lo}, {b_hi}) leaves a gap or "
                    f"overlap at item {lo}"
                )
            lo = b_hi
        if lo != total:
            raise ValueError(
                f"bounds cover {lo} items, expected {total}"
            )


@dataclass
class RepartitionPlan:
    """How upper-half state moves from ``old_nranks`` to ``new_nranks``.

    ``old_bounds``/``new_bounds`` partition the same ``total`` items
    (the rows of the app's primary domain array).  Two derived maps
    drive the rest of the elastic-restore protocol:

    * :meth:`src_of` — which old rank seeds new rank ``r``'s virtual-id
      table, clock, and loop tokens (the old owner of ``r``'s first
      item);
    * :meth:`rank_map` — the unique inheritor of each old rank's
      identity (drain ledgers, buffered messages): the new owner of the
      old rank's first item.  Every old rank maps to exactly one new
      rank, so pairwise sent/received ledgers stay consistent.
    """

    total: int
    old_nranks: int
    new_nranks: int
    old_bounds: List[Tuple[int, int]]
    new_bounds: List[Tuple[int, int]]

    def __post_init__(self) -> None:
        Partitioner.verify(self.old_bounds, self.total)
        Partitioner.verify(self.new_bounds, self.total)

    @classmethod
    def build(cls, old_lengths: List[int], new_nranks: int) -> "RepartitionPlan":
        total = int(sum(old_lengths))
        old_bounds: List[Tuple[int, int]] = []
        lo = 0
        for n in old_lengths:
            old_bounds.append((lo, lo + int(n)))
            lo += int(n)
        return cls(
            total=total,
            old_nranks=len(old_lengths),
            new_nranks=new_nranks,
            old_bounds=old_bounds,
            new_bounds=Partitioner.bounds(total, new_nranks),
        )

    def src_of(self, new_rank: int) -> int:
        lo, hi = self.new_bounds[new_rank]
        if hi <= lo:  # empty slice: fall back proportionally
            return min(
                self.old_nranks - 1,
                new_rank * self.old_nranks // self.new_nranks,
            )
        return Partitioner.owner_of(lo, self.old_bounds)

    def rank_map(self) -> Dict[int, int]:
        """old rank -> the single new rank inheriting its identity."""
        out: Dict[int, int] = {}
        for o, (lo, hi) in enumerate(self.old_bounds):
            if hi <= lo:
                out[o] = min(
                    self.new_nranks - 1,
                    o * self.new_nranks // self.old_nranks,
                )
            else:
                out[o] = Partitioner.owner_of(lo, self.new_bounds)
        return out

    def merged_into(self, new_rank: int) -> List[int]:
        """Old ranks whose identity new rank ``new_rank`` inherits."""
        rm = self.rank_map()
        return [o for o in range(self.old_nranks) if rm[o] == new_rank]


class BlockApp(MpiApplication):
    """Base class for the block-structured proxies.

    Subclasses implement ``init_state(ctx)`` (allocate arrays, create MPI
    objects) and ``block(ctx, it)`` (one block of work).  Everything
    else — the resumable loop, call-weight application, progress
    accounting — is shared.
    """

    loop_name = "main"

    # -- elastic-restart contract (PROTOCOLS.md §12) ---------------------
    # ``elastic = False`` refuses repartitioning outright (e.g. SW4's
    # cartesian topology pins the world size).  ``partition_attrs`` are
    # per-rank domain arrays split by rows across the new world;
    # ``replicated_attrs`` hold values identical on every rank (global
    # reduction results, committed-datatype handles — virtual ids are
    # identical across ranks by collective creation order) and are
    # copied from the seeding old rank.  ``checksum_mode`` says whether
    # ``checksum`` is a per-rank partial sum ("ledger": conserved by
    # summing each old rank's value into its unique inheritor) or a
    # globally agreed value ("replicated").
    elastic = True
    partition_attrs: Tuple[str, ...] = ()
    replicated_attrs: Tuple[str, ...] = ()
    checksum_mode = "ledger"

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.simulated_state_bytes = spec.simulated_state_bytes
        self.blocks_done = 0
        self.checksum = 0.0

    # -- subclass surface ------------------------------------------------
    def init_state(self, ctx) -> None:
        raise NotImplementedError

    def block(self, ctx, it: int) -> None:
        raise NotImplementedError

    # -- framework ---------------------------------------------------------
    def setup(self, ctx) -> None:
        self.init_state(ctx)

    def run(self, ctx) -> None:
        ctx.set_call_weight(self.spec.steps_per_block)
        ctx.set_compute_noise(self.spec.os_noise)
        for it in ctx.loop(self.loop_name, self.spec.blocks):
            self.block(ctx, it)
            self.blocks_done = it + 1

    # -- elastic repartitioning ---------------------------------------------
    @classmethod
    def repartition(
        cls, old_apps: List["BlockApp"], new_nranks: int
    ) -> Tuple[List["BlockApp"], RepartitionPlan]:
        """Rebuild per-rank app state for a different world size.

        Returns ``(new_apps, plan)`` with ``len(new_apps) == new_nranks``.
        The default implementation concatenates each ``partition_attrs``
        array across old ranks in rank order and re-slices it by the
        plan's new bounds, copies ``replicated_attrs`` (and loop
        progress) from the seeding old rank, and conserves ``checksum``
        per ``checksum_mode``.  Subclasses with irregular state override
        :meth:`post_repartition` (decomposition metadata) or this method
        entirely.
        """
        if not cls.elastic:
            raise ElasticRestartError(
                f"{cls.name}: application state pins the world size "
                f"(elastic=False); restore at the original rank count"
            )
        old_nranks = len(old_apps)
        if new_nranks < 1:
            raise ElasticRestartError(
                f"cannot repartition onto {new_nranks} ranks"
            )
        spec = replace(old_apps[0].spec, nranks=new_nranks)

        # The primary partition attr (first listed) defines the item
        # space of the plan; without one, old ranks themselves are the
        # items (pure identity inheritance).
        if cls.partition_attrs:
            primary = cls.partition_attrs[0]
            lengths = [
                int(np.asarray(getattr(a, primary)).shape[0])
                for a in old_apps
            ]
        else:
            lengths = [1] * old_nranks
        plan = RepartitionPlan.build(lengths, new_nranks)

        # Each attr may have its own row count per rank; partition each
        # by its own totals so every row lands exactly once.
        globals_: Dict[str, np.ndarray] = {}
        bounds_: Dict[str, List[Tuple[int, int]]] = {}
        for name in cls.partition_attrs:
            parts = [np.asarray(getattr(a, name)) for a in old_apps]
            globals_[name] = np.concatenate(parts, axis=0)
            bounds_[name] = Partitioner.bounds(
                int(globals_[name].shape[0]), new_nranks
            )

        new_apps: List["BlockApp"] = []
        for r in range(new_nranks):
            src = old_apps[plan.src_of(r)]
            app = cls(spec)
            for name in cls.partition_attrs:
                lo, hi = bounds_[name][r]
                setattr(app, name, globals_[name][lo:hi].copy())
            for name in cls.replicated_attrs:
                setattr(app, name, copy.deepcopy(getattr(src, name)))
            app.blocks_done = src.blocks_done
            if cls.checksum_mode == "replicated":
                app.checksum = src.checksum
            else:
                app.checksum = float(sum(
                    old_apps[o].checksum for o in plan.merged_into(r)
                ))
            app.post_repartition(r, new_nranks, plan)
            new_apps.append(app)
        return new_apps, plan

    def post_repartition(self, rank: int, nranks: int,
                         plan: RepartitionPlan) -> None:
        """Recompute decomposition metadata for the new world size
        (grid dims, halo neighbor pairs, clamped halo item counts).
        Called on each freshly repartitioned app; default is a no-op."""

    # -- shared numerics -----------------------------------------------------
    @staticmethod
    def _mix(state: np.ndarray) -> float:
        """A cheap, deterministic state-evolution kernel: every block
        advances the array and returns a scalar contribution so results
        are sensitive to lost/duplicated work."""
        state *= 0.999
        state += np.sin(state) * 1e-3
        return float(state.ravel()[:16].sum())

"""Runtime fault injection.

The :class:`FaultInjector` is the live counterpart of a
:class:`repro.faults.plan.FaultPlan`: it is consulted at well-defined
hook points in the wrappers (`_enter`), the resumable-loop runner, the
fabric (`post_send`), the coordinator (round start), the rank side of a
checkpoint round (`participate.py`) and the checkpoint writers
(`CheckpointStore.save`, which every job's rounds use, and the format-4
`save_v4`, which only tests and the benchmark call).

One match rule serves every hook.  Each spec is filed under its point
(:attr:`FaultSpec.point`), and a hook fires the first unfired spec filed
under its own point whose coordinates equal the hook's; a coordinate
the spec leaves unset matches any value.  :class:`FaultSpec` refuses a
spec missing a coordinate its kind cannot fire without (``rank``,
``at``, ``src``/``dst``, a round abort's ``generation``), so the unset
coordinate that matters is a checkpoint fault's ``generation``: unset,
it matches every generation.  A hook at a point the plan names nothing
for returns without taking the lock, and jobs with ``faults=None`` never
construct an injector at all, so the hot path carries only a single
``is not None`` test.

One injector survives a whole *supervised session*: the fired-spec set
persists across auto-restarts, so a one-shot crash does not re-kill the
recovered job.  Every fired fault is appended to ``events`` with its
deterministic coordinates; :meth:`trace` returns them in canonical
(spec-index) order so two runs of the same plan + seed compare
bit-identically regardless of thread interleaving.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults import plan as P
from repro.mana.storeio import tmp_name
from repro.util.errors import InjectedFault
from repro.util.rng import _stable_hash


class FaultInjector:
    """Consults a :class:`FaultPlan` at the runtime hook points."""

    def __init__(self, fault_plan: P.FaultPlan):
        self.plan = fault_plan
        self._lock = threading.Lock()
        self.fired: set = set()            # indices into plan.specs
        self.events: List[dict] = []
        # Spec indices per point, in plan order.
        self._by: Dict[str, List[int]] = {}
        for i, spec in enumerate(fault_plan.specs):
            self._by.setdefault(spec.point, []).append(i)
        # nth-message counters per (src, dst) pair.
        self._msg_counts: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _claim(self, point: str, **coords) -> Optional[int]:
        """The one match step: mark fired and return the index of the
        first unfired spec filed under ``point`` whose coordinates equal
        ``coords`` (an unset one matches any value), or None."""
        specs = self._by.get(point)
        if specs is None:
            return None
        with self._lock:
            for i in specs:
                s = self.plan.specs[i]
                if i not in self.fired and all(
                    getattr(s, k) in (v, None) for k, v in coords.items()
                ):
                    self.fired.add(i)
                    return i
        return None

    def _record(self, idx: int, **info) -> None:
        spec = self.plan.specs[idx]
        with self._lock:
            self.events.append(
                {"fault": spec.kind, "spec": idx, "what": spec.describe(),
                 **info}
            )

    def _raise(self, idx: int, text: str, **info) -> None:
        self._record(idx, **info)
        raise InjectedFault(f"injected {text}")

    def _flip_byte(self, path: str, skip: int, key: str) -> None:
        """XOR one byte of ``path`` with 0xFF, at an offset past its
        first ``skip`` bytes derived from the plan seed and ``key``."""
        size = os.path.getsize(path)
        lo = min(skip, size - 1)
        off = lo + _stable_hash(f"{self.plan.seed}/{key}") % max(1, size - lo)
        with open(path, "r+b") as f:
            f.seek(off)
            b = f.read(1)
            f.seek(off)
            f.write(bytes([b[0] ^ 0xFF]))

    def trace(self) -> List[dict]:
        """Fired-fault events in canonical (spec-index) order."""
        with self._lock:
            return sorted(self.events, key=lambda e: e["spec"])

    def on_mpi_call(self, rank: int, n: int, vtime: float) -> None:
        """Hook at the top of every wrapped MPI call (``n`` = the rank's
        running call count)."""
        i = self._claim(P.SITE_MPI_CALL, rank=rank, at=n)
        if i is not None:
            self._raise(i, f"crash: rank {rank} at MPI call #{n}",
                        rank=rank, call=n, vtime=vtime)

    def on_loop(self, rank: int, loop: str, iteration: int,
                vtime: float) -> None:
        """Hook at the top of every resumable-loop iteration."""
        i = self._claim(P.SITE_LOOP, rank=rank, loop=loop, at=iteration)
        if i is not None:
            self._raise(
                i, f"crash: rank {rank} at loop {loop!r} iteration {iteration}",
                rank=rank, loop=loop, iteration=iteration, vtime=vtime,
            )

    def crash_point(self, site: str, rank: int, generation: int,
                    vtime: float) -> None:
        """Hook at the checkpoint-internal crash sites (pre-drain,
        post-drain, mid-save)."""
        i = self._claim(site, rank=rank, generation=generation)
        if i is not None:
            self._raise(
                i, f"crash: rank {rank} at {site} of checkpoint generation "
                f"{generation}",
                rank=rank, site=site, generation=generation, vtime=vtime,
            )

    def before_save(self, path: str, data: bytes, rank: int,
                    generation: int, vtime: float) -> None:
        """Hook before an image save writes: a mid-save crash leaves half
        of ``data`` in a temp file beside ``path`` (never a torn image at
        the final path); a disk-full error leaves nothing."""
        try:
            self.crash_point(P.SITE_MID_SAVE, rank, generation, vtime)
        except InjectedFault:
            with open(tmp_name(path), "wb") as f:
                f.write(data[: max(1, len(data) // 2)])
            raise
        i = self._claim(P.DISK_FULL, rank=rank, generation=generation)
        if i is not None:
            self._raise(i, f"disk-full: rank {rank} saving generation "
                        f"{generation}", rank=rank, generation=generation)

    def after_save(self, store, path: str, rank: int, generation: int,
                   digests: Sequence[str]) -> None:
        """Rot a just-saved image (bit rot / torn write simulation).

        A corrupt-image spec truncates or bit-flips the image file at
        ``path``.  A corrupt-chunk spec flips a byte of the nth *fresh*
        chunk of the image's reference list ``digests`` (empty for a
        format-4 save): fresh = referenced by this image but by no
        generation older than it — those stay intact, so earlier
        generations remain restorable and fallback is deterministic.
        (Which rank's save stored a shared chunk first depends on
        scheduling, so the target is chosen from the reference list
        against prior generations, both of which are deterministic.)
        A save with nothing fresh leaves the spec unfired."""
        i = self._claim(P.CORRUPT_IMAGE, rank=rank, generation=generation)
        if i is not None:
            s = self.plan.specs[i]
            self._record(i, rank=rank, generation=generation, mode=s.mode,
                         path=os.path.basename(path))
            if s.mode == P.CORRUPT_TRUNCATE:
                with open(path, "r+b") as f:
                    f.truncate(max(1, os.path.getsize(path) // 2))
            else:
                # Past the first 512 bytes: the flip lands in the
                # checksummed region, not the header's magic.
                self._flip_byte(path, 512, f"corrupt/{generation}/{rank}")
        if P.CORRUPT_CHUNK not in self._by or not digests:
            return
        prior = store.referenced_chunks(
            [g for g in store.generations() if g < generation]
        )
        fresh = list(dict.fromkeys(d for d in digests if d not in prior))
        i = (self._claim(P.CORRUPT_CHUNK, rank=rank, generation=generation)
             if fresh else None)
        if i is not None:
            nth = self.plan.specs[i].nth
            digest = fresh[min(nth, len(fresh)) - 1]
            # Past the zlib magic, so the flip hits compressed payload,
            # not just the 2-byte header.
            self._flip_byte(store.chunks.chunk_path(digest), 2,
                            f"corrupt-chunk/{generation}/{rank}")
            self._record(i, rank=rank, generation=generation,
                         chunk=digest[:12], nth=nth)

    def on_message(self, src: int, dst: int, tag: int,
                   nbytes: int) -> Optional[Tuple[str, float]]:
        """Returns None (deliver normally), ("drop", 0) or
        ("delay", seconds) for the message being posted."""
        if P.MESSAGE not in self._by:
            return None
        with self._lock:
            n = self._msg_counts[src, dst] = (
                self._msg_counts.get((src, dst), 0) + 1)
        i = self._claim(P.MESSAGE, src=src, dst=dst, nth=n)
        if i is None:
            return None
        self._record(i, src=src, dst=dst, nth=n, tag=tag, nbytes=nbytes)
        s = self.plan.specs[i]
        return ("drop", 0.0) if s.kind == P.MSG_DROP else ("delay", s.delay)

    def round_abort_requested(self, generation: int, attempt: int) -> bool:
        """True when the plan wants this (generation, attempt) checkpoint
        round aborted (fires once; the retry proceeds normally)."""
        i = self._claim(P.ROUND_ABORT, generation=generation, attempt=attempt)
        if i is not None:
            self._record(i, generation=generation, attempt=attempt)
        return i is not None

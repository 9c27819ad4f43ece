"""Syscall-boundary crash injection for the checkpoint store.

The :class:`CrashPointInjector` is the adversary of the durability
layer (PROTOCOLS.md §13).  Given to a store as the injector of its
:class:`repro.mana.storeio.StoreIO` (``CheckpointStore(dir,
io=StoreIO(injector=inj))``), it sees every named crash point of that
store — ``<context>.<site>.<before|after>`` around each
write/fsync/rename/link/unlink in the save, drain, gc, prune and fsck
paths — and can either *record* them (enumeration mode) or *kill* the
mutation at one of them (armed mode).

Death is modeled faithfully: once the armed point fires, the injector
is **dead** and every subsequent shimmed operation raises
:class:`repro.util.errors.InjectedCrash` too.  ``finally`` blocks and
exception handlers therefore cannot clean the store up — exactly what
a real SIGKILL mid-``rename`` leaves behind.  The crash-point sweep
(:mod:`repro.faults.crashsweep`, ``python -m repro smoke crash``)
asserts that for *every* such point the store either still restores
the previous generation bit-identically or ``repro fsck`` repairs it
to a restorable state with zero leaked chunks.

This injector is standalone — not wired through
:class:`repro.faults.FaultPlan` — because it belongs to a store, not to
a job: the store under test carries it, and a store opened afterwards
without it is the rebooted process that runs fsck.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.util.errors import InjectedCrash


class CrashPointInjector:
    """Records, or crashes at, named store-mutation crash points.

    * ``CrashPointInjector()`` — record mode: every point that fires is
      counted and remembered in first-seen order (:attr:`points`).
    * ``CrashPointInjector(arm_at=name, occurrence=n)`` — armed mode:
      the ``n``-th firing of ``name`` raises :class:`InjectedCrash` and
      marks the injector dead; all later points raise immediately.
    """

    def __init__(self, arm_at: Optional[str] = None, occurrence: int = 1):
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self.arm_at = arm_at
        self.occurrence = occurrence
        self.points: List[str] = []       # unique names, first-seen order
        self.counts: Dict[str, int] = {}  # name -> times fired
        self.dead = False
        self.crashed_at: Optional[str] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def hit(self, name: str) -> None:
        """Called by a :class:`~repro.mana.storeio.StoreIO` at every
        crash point."""
        with self._lock:
            if self.dead:
                raise InjectedCrash(
                    f"store operation after simulated process death "
                    f"(crashed at {self.crashed_at})"
                )
            n = self.counts.get(name, 0) + 1
            self.counts[name] = n
            if n == 1:
                self.points.append(name)
            if name == self.arm_at and n == self.occurrence:
                self.dead = True
                self.crashed_at = name
                raise InjectedCrash(
                    f"injected crash at store point {name} "
                    f"(occurrence {n})"
                )

    # ------------------------------------------------------------------
    def resurrect(self) -> None:
        """Clear the dead flag — the 'reboot' before running fsck."""
        with self._lock:
            self.dead = False

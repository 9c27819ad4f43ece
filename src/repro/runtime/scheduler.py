"""Run slots for the rank engine: one park/unpark primitive, and never
more runnable rank threads than CPUs.

Every place a rank waits for another rank — the fabric's receive waits
and the coordinator's meetings (the checkpoint phase gates, the trivial
barrier, the finalize fence, all waited for in
``CheckpointCoordinator._meet``) — blocks in :meth:`Scheduler.park` and
is released by :meth:`Scheduler.unpark` (docs/PROTOCOLS.md §8).  Two
invariants:

* at most ``slots`` *registered* ranks are runnable at any instant
  (plus what an async round's drain thread lends while it writes,
  :meth:`Scheduler.lent`); a
  rank that parks hands its slot to the oldest ready rank (FIFO), so the
  kernel never has more rank threads to spread over the CPUs than there
  are CPUs, and the interpreter lock stops migrating between them;
* no runtime lock (fabric, coordinator, meeting) is held across ``park``.

``unpark`` leaves a one-shot *permit* when its target is not parked, and
``park`` consumes a pending permit instead of sleeping.  Callers
therefore change shared state first and unpark second, waiters check
their condition first and park second, and every waiter re-checks in a
loop: a permit may be stale.  That is the whole lost-wake-up argument.

The rank threads of a :class:`~repro.runtime.launcher.Job` are
registered (:meth:`admit`, then :meth:`enter`/:meth:`exit` in the thread
itself).  A rank id that never registered (hand-driven
test threads, the main thread) parks and unparks without slot
accounting; non-rank threads (main, a round's drain, the save pool)
only ever unpark.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import deque
from typing import Deque, Iterator, List, Optional, Set


class Scheduler:
    """``slots`` run slots shared by the rank threads of one job."""

    def __init__(self, nranks: int, slots: Optional[int] = None):
        if slots is None:
            slots = min(nranks, len(os.sched_getaffinity(0)))
        if slots < 1:
            raise ValueError(f"slots must be positive, got {slots}")
        self.nranks = nranks
        #: Tests pass ``slots=``; ``slots=1`` is strict FIFO hand-off.
        self.slots = slots
        #: When set to a list: the rank of every slot grant, in order.
        self.trace: Optional[List[int]] = None
        self._lock = threading.Lock()
        self._free = slots
        # One binary semaphore per rank (a held lock): released exactly
        # once per sleep, by whoever lets the rank run again.
        self._sems = [threading.Lock() for _ in range(nranks)]
        for sem in self._sems:
            sem.acquire()
        self._permit = [False] * nranks
        self._parked = [False] * nranks
        self._registered = [False] * nranks
        self._ready: Deque[int] = deque()     # runnable, waiting for a slot
        # Ranks inside ``released`` come back in the order they left, so
        # the run queue does not depend on how long each stayed outside.
        self._outside: Deque[int] = deque()
        self._back: Set[int] = set()

    # ------------------------------------------------------------------
    # registration (Job.start / Job._run_rank)
    # ------------------------------------------------------------------
    def admit(self, rank: int) -> None:
        """Register ``rank`` and put it in line for its first slot.
        ``Job.start`` admits every rank, in rank order, before any
        thread runs: the initial run queue depends on nothing else."""
        with self._lock:
            self._registered[rank] = True
            self._want_slot_locked(rank)

    def enter(self, rank: int) -> None:
        """First act of an admitted rank's thread: wait for its slot."""
        self._sems[rank].acquire()

    def exit(self, rank: int) -> None:
        """The running rank's thread ends: free its slot for good."""
        with self._lock:
            self._registered[rank] = False
            self._add_slots_locked(1)

    # ------------------------------------------------------------------
    # park / unpark
    # ------------------------------------------------------------------
    def park(self, rank: int, timeout: Optional[float] = None) -> bool:
        """Block until ``rank`` is unparked (True) or ``timeout`` seconds
        pass (False); returns at once when a permit is pending.  Either
        way the rank holds a slot again when this returns."""
        with self._lock:
            if self._permit[rank]:
                self._permit[rank] = False
                return True
            self._parked[rank] = True
            if self._registered[rank]:
                self._add_slots_locked(1)
        sem = self._sems[rank]
        if sem.acquire(timeout=-1 if timeout is None else max(timeout, 0.0)):
            return True
        with self._lock:
            timed_out = self._parked[rank]
            if timed_out:
                self._unpark_locked(rank)
        sem.acquire()   # granted above, or by the unpark that raced us
        return not timed_out

    def unpark(self, rank: int) -> None:
        """Make ``rank`` ready (it runs once a slot is free), or leave it
        a permit if it is not parked."""
        with self._lock:
            self._unpark_locked(rank)

    def unpark_all(self) -> None:
        """An event any rank may be waiting for (checkpoint intent, a
        round abort, a job abort)."""
        with self._lock:
            for rank in range(self.nranks):
                self._unpark_locked(rank)

    # ------------------------------------------------------------------
    # slot release around GIL-free work
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def released(self, rank: int) -> Iterator[None]:
        """Give ``rank``'s slot up for the duration of the block: file
        writes, zlib and sha release the interpreter lock, and a rank
        blocked in them must not idle a CPU."""
        if not self._registered[rank]:
            yield
            return
        with self._lock:
            self._outside.append(rank)
            self._add_slots_locked(1)
        try:
            yield
        finally:
            with self._lock:
                self._back.add(rank)
                while self._outside and self._outside[0] in self._back:
                    head = self._outside.popleft()
                    self._back.discard(head)
                    self._want_slot_locked(head)
            self._sems[rank].acquire()

    @contextlib.contextmanager
    def lent(self, n: int) -> Iterator[None]:
        """Let ``n`` more ranks run while ``n`` background threads of the
        job itself (an async round's drain thread, or the save pool it
        writes through) are busy: the kernel shares
        the CPUs per runnable thread, and the application must not lose
        its share of them to its own drain."""
        with self._lock:
            self._add_slots_locked(n)
        try:
            yield
        finally:
            with self._lock:
                self._add_slots_locked(-n)

    # ------------------------------------------------------------------
    # internals (scheduler lock held)
    # ------------------------------------------------------------------
    def _unpark_locked(self, rank: int) -> None:
        if self._parked[rank]:
            self._parked[rank] = False
            self._want_slot_locked(rank)
        else:
            self._permit[rank] = True

    def _want_slot_locked(self, rank: int) -> None:
        if not self._registered[rank]:
            self._sems[rank].release()
        elif self._free > 0:
            self._free -= 1
            self._grant_locked(rank)
        else:
            self._ready.append(rank)

    def _add_slots_locked(self, n: int) -> None:
        """``n`` slots became free (or, ``n < 0``, a loan ends: the
        count stays negative until enough ranks have parked)."""
        self._free += n
        while self._free > 0 and self._ready:
            self._free -= 1
            self._grant_locked(self._ready.popleft())

    def _grant_locked(self, rank: int) -> None:
        if self.trace is not None:
            self.trace.append(rank)
        self._sems[rank].release()

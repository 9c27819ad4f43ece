"""In-memory message fabric with MPI matching semantics.

Design notes
------------
* One :class:`Fabric` is shared by all ranks of a simulated job.  Each
  rank's MPI library instance talks to it through plain method calls.
* Matching follows MPI's rules: a receive posted for
  ``(context_id, source, tag)`` matches the *oldest* enqueued message
  whose fields agree, where ``source``/``tag`` may be wildcards.
  Messages between a fixed (source, destination) pair are non-overtaking.
* Sends are *eager*: ``post_send`` buffers the payload at the destination
  immediately and completes locally.  (The real MANA also forces pending
  sends to completion before checkpointing; eager delivery lets the drain
  logic concentrate on the receive side, which is where the counting
  protocol operates.)
* Virtual time: a message carries its send timestamp; the matching
  receive completes no earlier than ``send_time + latency + bytes/bw``.
  Wall-clock thread scheduling never influences reported times.
* ``in_flight(dst)`` reports messages buffered but not yet received —
  the quantity MANA's drain must bring to zero before a checkpoint.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, TypeVar

from repro.simtime.cost import CostModel
from repro.util.errors import MpiAbort, ReproError

# Wildcards, kept numeric like the real mpi.h constants.
ANY_SOURCE = -1
ANY_TAG = -1

T = TypeVar("T")


@dataclass
class Message:
    """One point-to-point message buffered in the fabric."""

    seq: int                 # global, strictly increasing post order
    src: int                 # world rank of sender
    dst: int                 # world rank of receiver
    tag: int
    context_id: int          # communicator context of the send
    payload: bytes           # packed bytes (datatype-flattened)
    send_time: float         # sender's virtual clock at post time
    arrive_time: float       # send_time + network cost

    @property
    def nbytes(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class ProbeResult:
    """What ``iprobe`` reports about a matchable message."""

    src: int
    tag: int
    context_id: int
    nbytes: int
    arrive_time: float


class Fabric:
    """Shared interconnect for one simulated MPI job."""

    def __init__(self, nranks: int, cost_model: CostModel, scheduler=None):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.cost_model = cost_model
        # Optional repro.faults.FaultInjector (set by the Job when a
        # FaultPlan is installed); None on the hot path.
        self.injector = None
        # The job's run-slot scheduler (repro.runtime.scheduler): blocked
        # ranks park in it, and a message unparks its destination only.
        # A fabric built on its own gets a private one.
        if scheduler is None:
            from repro.runtime.scheduler import Scheduler

            scheduler = Scheduler(nranks)
        self.scheduler = scheduler
        self._lock = threading.Lock()
        self._queues: List[List[Message]] = [[] for _ in range(nranks)]
        self._seq = itertools.count()
        self._aborted: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def post_send(
        self,
        src: int,
        dst: int,
        tag: int,
        context_id: int,
        payload: bytes,
        send_time: float,
    ) -> Message:
        """Buffer a message at the destination (eager protocol)."""
        self._check_rank(src)
        self._check_rank(dst)
        cost = self.cost_model.message_cost(len(payload))
        if self.injector is not None:
            verdict = self.injector.on_message(src, dst, tag, len(payload))
            if verdict is not None:
                what, seconds = verdict
                if what == "drop":
                    # The message is lost on the wire: never enqueued.
                    # The receiver blocks until the job's deadline abort
                    # fires (then the supervisor takes over).
                    return Message(
                        seq=next(self._seq), src=src, dst=dst, tag=tag,
                        context_id=context_id, payload=payload,
                        send_time=send_time, arrive_time=send_time + cost,
                    )
                cost += seconds  # "delay": extra virtual latency
        msg = Message(
            seq=next(self._seq),
            src=src,
            dst=dst,
            tag=tag,
            context_id=context_id,
            payload=payload,
            send_time=send_time,
            arrive_time=send_time + cost,
        )
        with self._lock:
            self._raise_if_aborted()
            self._queues[dst].append(msg)
        # Only the destination can use this message.
        self.scheduler.unpark(dst)
        return msg

    # ------------------------------------------------------------------
    # event-driven waiting
    # ------------------------------------------------------------------
    def wait_activity(self, rank: int,
                      timeout: Optional[float] = None) -> None:
        """Park ``rank`` until something it may be waiting for happens:
        a message posted to it, checkpoint intent, an abort (or
        ``timeout`` elapses).  MANA's wait loop checks its completion
        condition, calls this, and checks again — the wake-up may be
        stale.  Virtual-time poll costs are charged analytically, so
        results do not depend on it (see mana/wrappers.py)."""
        if self._aborted is None:
            self.scheduler.park(rank, timeout)

    def wait_for(self, rank: int, attempt: Callable[[], Optional[T]],
                 deadline: float) -> T:
        """Block ``rank`` (in real time) until ``attempt()`` returns
        something other than None, and return that.

        The lower half's one blocking primitive: ``attempt`` must not
        block, and it is re-tried after every wake-up (a message for
        ``rank``, an abort — which the fabric calls inside ``attempt``
        then raise).  ``deadline`` real seconds without success is a
        simulated deadlock."""
        end = time.monotonic() + deadline
        while True:
            out = attempt()
            if out is not None:
                return out
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"rank {rank}: blocking call made no progress in "
                    f"{deadline:g} s — simulated deadlock?"
                )
            self.scheduler.park(rank, remaining)

    # ------------------------------------------------------------------
    # matching / receiving
    # ------------------------------------------------------------------
    def try_match(
        self,
        dst: int,
        src: int,
        tag: int,
        context_id: int,
    ) -> Optional[Message]:
        """Dequeue the oldest matching message, or None.

        ``src`` may be ``ANY_SOURCE`` and ``tag`` may be ``ANY_TAG``.
        """
        self._check_rank(dst)
        with self._lock:
            self._raise_if_aborted()
            idx = self._find(dst, src, tag, context_id)
            if idx is None:
                return None
            return self._queues[dst].pop(idx)

    def iprobe(
        self, dst: int, src: int, tag: int, context_id: int
    ) -> Optional[ProbeResult]:
        """Non-destructively report the oldest matching message."""
        self._check_rank(dst)
        with self._lock:
            self._raise_if_aborted()
            idx = self._find(dst, src, tag, context_id)
            if idx is None:
                return None
            m = self._queues[dst][idx]
            return ProbeResult(m.src, m.tag, m.context_id, m.nbytes, m.arrive_time)

    # ------------------------------------------------------------------
    # checkpoint-facing introspection
    # ------------------------------------------------------------------
    def in_flight(self, dst: Optional[int] = None) -> int:
        """Messages buffered but not yet received (for ``dst``, or total)."""
        with self._lock:
            if dst is None:
                return sum(len(q) for q in self._queues)
            self._check_rank(dst)
            return len(self._queues[dst])

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def abort(self, exc: Optional[BaseException] = None) -> None:
        """Tear the job down: every blocked and future call raises."""
        with self._lock:
            self._aborted = exc or MpiAbort()
        self.scheduler.unpark_all()

    @property
    def aborted(self) -> bool:
        with self._lock:
            return self._aborted is not None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _find(self, dst: int, src: int, tag: int, context_id: int) -> Optional[int]:
        for i, m in enumerate(self._queues[dst]):
            if m.context_id != context_id:
                continue
            if src != ANY_SOURCE and m.src != src:
                continue
            if tag != ANY_TAG and m.tag != tag:
                continue
            return i
        return None

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ReproError(f"rank {rank} out of range [0, {self.nranks})")

    def _raise_if_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

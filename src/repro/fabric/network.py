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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.simtime.cost import CostModel
from repro.util.errors import MpiAbort, ReproError
from repro.util.rng import _stable_hash

# Wildcards, kept numeric like the real mpi.h constants.
ANY_SOURCE = -1
ANY_TAG = -1


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


@dataclass
class _Counters:
    """Per-destination delivery accounting (used by tests and the drain)."""

    posted: int = 0
    received: int = 0


class Fabric:
    """Shared interconnect for one simulated MPI job."""

    def __init__(self, nranks: int, cost_model: CostModel,
                 latency_jitter: float = 0.0, jitter_seed: int = 0,
                 scheduler=None):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if latency_jitter < 0:
            raise ValueError(f"latency_jitter must be >= 0")
        self.nranks = nranks
        self.cost_model = cost_model
        # Deterministic per-message latency jitter (fraction of the base
        # network cost), keyed by the message sequence number: simulates
        # congestion noise without sacrificing reproducibility.
        self.latency_jitter = latency_jitter
        self.jitter_seed = jitter_seed
        self._jitter_n = 0
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
        self._counters: List[_Counters] = [_Counters() for _ in range(nranks)]
        self._seq = itertools.count()
        self._aborted: Optional[BaseException] = None
        # pairwise_sent[(src, dst)] — the count MANA's drain exchanges.
        self._pairwise_sent: Dict[Tuple[int, int], int] = {}
        self._pairwise_recvd: Dict[Tuple[int, int], int] = {}

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
        if self.latency_jitter > 0.0:
            cost *= 1.0 + self.latency_jitter * self._jitter_draw()
        if self.injector is not None:
            verdict = self.injector.on_message(src, dst, tag, len(payload))
            if verdict is not None:
                what, seconds = verdict
                if what == "drop":
                    # The message is lost on the wire: never enqueued,
                    # counters untouched.  The receiver blocks until the
                    # job's deadline abort fires (then the supervisor
                    # takes over).
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
            self._counters[dst].posted += 1
            key = (src, dst)
            self._pairwise_sent[key] = self._pairwise_sent.get(key, 0) + 1
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
        ``timeout`` elapses).  Wrapper poll loops check their completion
        condition, call this, and check again — the wake-up may be
        stale.  Virtual-time poll costs are charged analytically, so
        results do not depend on it (see mana/wrappers.py)."""
        if self._aborted is None:
            self.scheduler.park(rank, timeout)

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
            msg = self._queues[dst].pop(idx)
            self._counters[dst].received += 1
            key = (msg.src, dst)
            self._pairwise_recvd[key] = self._pairwise_recvd.get(key, 0) + 1
            return msg

    def wait_match(
        self,
        dst: int,
        src: int,
        tag: int,
        context_id: int,
        *,
        should_stop: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
    ) -> Optional[Message]:
        """Block (in real time) until a matching message is available.

        ``should_stop`` lets a caller break out when it is woken without
        a message; in that case None is returned.  ``deadline`` is a
        real-time guard against simulated deadlocks.
        """
        end = None if deadline is None else time.monotonic() + deadline
        while True:
            msg = self.try_match(dst, src, tag, context_id)
            if msg is not None:
                return msg
            if should_stop is not None and should_stop():
                return None
            remaining = None if end is None else end - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ReproError(
                    f"rank {dst}: receive (src={src}, tag={tag}, "
                    f"ctx={context_id}) timed out — simulated deadlock?"
                )
            self.scheduler.park(dst, remaining)

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

    def pairwise_sent(self, src: int, dst: int) -> int:
        with self._lock:
            return self._pairwise_sent.get((src, dst), 0)

    def pairwise_received(self, src: int, dst: int) -> int:
        with self._lock:
            return self._pairwise_recvd.get((src, dst), 0)

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

    def _jitter_draw(self) -> float:
        """Uniform [0, 1) draw keyed by (seed, next message seq)."""
        # itertools.count has no peek: a shadow counter stands in.
        self._jitter_n += 1
        return _stable_hash(f"{self.jitter_seed}/{self._jitter_n}") / 0xFFFFFFFF

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ReproError(f"rank {rank} out of range [0, {self.nranks})")

    def _raise_if_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

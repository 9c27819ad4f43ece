"""The run-slot scheduler (repro.runtime.scheduler, PROTOCOLS §8): the
park/unpark permit rule, the slot limit, and the hazards a slot limit
adds — aborts, crashing ranks and the slot-released save section."""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import FaultPlan, JobConfig, MpiApplication
from repro.apps import APP_CLASSES
from repro.fabric.network import Fabric
from repro.mana import checkpoint as ckpt
from repro.mana.coordinator import CheckpointCoordinator
from repro.runtime.launcher import Job
from repro.runtime.scheduler import Scheduler
from repro.simtime.cost import CostModel, FilesystemProfile
from repro.util.errors import MpiAbort
from tests.miniapps import RingApp


def run_registered(sched, bodies):
    """Run ``bodies[r](r)`` on one registered rank thread each, the way
    ``Job`` does; returns the started threads and the list their
    errors are appended to."""
    errors = []

    def runner(rank):
        sched.enter(rank)
        try:
            bodies[rank](rank)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            sched.exit(rank)

    for rank in range(len(bodies)):
        sched.admit(rank)
    threads = [
        threading.Thread(target=runner, args=(r,), daemon=True)
        for r in range(len(bodies))
    ]
    for t in threads:
        t.start()
    return threads, errors


def join_all(threads, timeout=20.0):
    end = time.monotonic() + timeout
    for t in threads:
        t.join(timeout=max(0.0, end - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "rank threads hung"


def assert_balanced(sched):
    """Every slot is free again and nobody is queued anywhere."""
    assert sched._free == sched.slots
    assert not sched._ready and not sched._outside and not sched._back
    assert not any(sched._registered)


def wait_until(cond, timeout=5.0):
    end = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.002)


class TestPermit:
    def test_unpark_before_park_returns_at_once_and_is_consumed(self):
        sched = Scheduler(2, slots=1)
        sched.unpark(0)
        t0 = time.monotonic()
        assert sched.park(0, timeout=30.0) is True
        assert time.monotonic() - t0 < 1.0
        # One-shot: the permit is gone, the next park waits out its time.
        assert sched.park(0, timeout=0.05) is False

    def test_repeated_unparks_leave_one_permit(self):
        sched = Scheduler(1)
        for _ in range(5):
            sched.unpark(0)
        assert sched.park(0, timeout=0.0) is True
        assert sched.park(0, timeout=0.0) is False

    def test_unregistered_rank_ids_park_and_unpark_without_slots(self):
        sched = Scheduler(4, slots=1)
        woke = []

        def waiter(rank):
            woke.append((rank, sched.park(rank, timeout=30.0)))

        threads = [
            threading.Thread(target=waiter, args=(r,), daemon=True)
            for r in range(4)
        ]
        for t in threads:
            t.start()
        wait_until(lambda: all(sched._parked))
        assert sched._free == 1     # four sleepers, no slot accounting
        for r in range(4):
            sched.unpark(r)         # all run at once despite slots=1
        join_all(threads, 5.0)
        assert sorted(woke) == [(r, True) for r in range(4)]
        assert sched._free == 1 and not sched._ready

    def test_slots_default_to_cpus_capped_by_ranks(self):
        import os

        cpus = len(os.sched_getaffinity(0))
        assert Scheduler(1).slots == 1
        assert Scheduler(4096).slots == cpus
        with pytest.raises(ValueError):
            Scheduler(4, slots=0)


class TestSlots:
    def test_never_more_than_slots_ranks_between_two_parks(self):
        """16 rank threads, 2 slots, 2,000 random steps each: the number
        of ranks between two parks never exceeds the slot count."""
        nranks, slots, steps = 16, 2, 2000
        sched = Scheduler(nranks, slots=slots)
        mu = threading.Lock()
        state = {"running": 0, "peak": 0, "done": 0}

        def body(rank):
            rng = random.Random(rank)
            with mu:
                state["running"] += 1
            for _ in range(steps):
                with mu:
                    state["peak"] = max(state["peak"], state["running"])
                if rng.random() < 0.5:
                    sched.unpark(rng.randrange(nranks))
                else:
                    with mu:
                        state["running"] -= 1
                    sched.park(rank, rng.choice((None, None, 0.0005)))
                    with mu:
                        state["running"] += 1
            with mu:
                state["running"] -= 1
                state["done"] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, errors = run_registered(sched, [body] * nranks)
            # The pump is a non-rank thread: it only ever unparks, and
            # keeps the ranks from all sleeping at once.
            rank = 0
            end = time.monotonic() + 60.0
            while state["done"] < nranks and time.monotonic() < end:
                sched.unpark(rank % nranks)
                rank += 1
                time.sleep(0)
            join_all(threads, 5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert 1 <= state["peak"] <= slots
        assert_balanced(sched)

    def test_timed_out_park_returns_false_with_a_slot(self):
        sched = Scheduler(2, slots=1)
        events = []

        def rank0(rank):
            assert sched.park(0, timeout=0.05) is False
            # Back only once rank 1 gave the one slot up.
            events.append("0 back")
            assert sched._free == 0

        def rank1(rank):
            events.append("1 runs")
            time.sleep(0.25)     # holds the only slot past rank 0's timeout
            events.append("1 parks")
            sched.park(1)

        threads, errors = run_registered(sched, [rank0, rank1])
        threads[0].join(timeout=5.0)
        assert not threads[0].is_alive()
        sched.unpark(1)
        join_all(threads, 5.0)
        assert not errors
        assert events == ["1 runs", "1 parks", "0 back"]
        assert_balanced(sched)

    def test_unpark_from_non_rank_thread_starts_one_parked_rank(self):
        sched = Scheduler(3, slots=2)
        ran = []

        def body(rank):
            sched.park(rank)
            ran.append(rank)
            sched.park(rank)

        threads, errors = run_registered(sched, [body] * 3)
        wait_until(lambda: all(sched._parked))
        assert sched._free == 2 and ran == []
        sched.unpark(1)             # the main thread is no rank
        wait_until(lambda: sched._parked[1] and ran == [1])
        assert sched._free == 2
        sched.unpark_all()
        wait_until(lambda: sorted(ran) == [0, 1, 2])
        sched.unpark_all()
        join_all(threads, 5.0)
        assert not errors
        assert_balanced(sched)

    def test_first_slots_are_granted_in_rank_order(self):
        sched = Scheduler(6, slots=1)
        sched.trace = []
        threads, errors = run_registered(
            sched, [lambda rank: None] * 6
        )
        join_all(threads, 5.0)
        assert sched.trace == list(range(6))

    def test_released_ranks_come_back_in_the_order_they_left(self):
        sched = Scheduler(3, slots=1)
        back = []

        def body(rank):
            with sched.released(rank):
                # Rank 0 stays outside longest, rank 2 shortest.
                time.sleep(0.15 - 0.05 * rank)
            back.append(rank)

        threads, errors = run_registered(sched, [body] * 3)
        join_all(threads, 5.0)
        assert not errors and back == [0, 1, 2]
        assert_balanced(sched)


class TestLentSlots:
    """While the job's own background drain is busy, that many more
    ranks may run; the slots come back as ranks park."""

    def test_lent_slots_start_ready_ranks_and_come_back(self):
        sched = Scheduler(4, slots=1)
        running = []
        gate = threading.Event()

        def body(rank):
            running.append(rank)
            gate.wait(10.0)         # holds its slot, like a compute block

        threads, errors = run_registered(sched, [body] * 4)
        wait_until(lambda: running == [0])
        assert list(sched._ready) == [1, 2, 3]
        with sched.lent(2):
            wait_until(lambda: sorted(running) == [0, 1, 2])
            assert list(sched._ready) == [3] and sched._free == 0
        # Given back before anybody parked: a debt, not a free slot.
        assert sched._free == -2 and len(running) == 3
        gate.set()
        join_all(threads, 5.0)
        assert not errors and sorted(running) == [0, 1, 2, 3]
        assert_balanced(sched)

    def test_async_drain_lends_its_workers(self, tmp_path):
        seen = []
        sched = Scheduler(4, slots=1)
        lent = sched.lent
        sched.lent = lambda n: (seen.append(n), lent(n))[1]
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, ckpt_async=True,
                        ckpt_save_workers=2, ckpt_dir=str(tmp_path))
        job = Job(cfg, app_factory=lambda r: RingApp(12), scheduler=sched)
        ticket = job.checkpoint_at_iteration("main", 3, kind="loop")
        res = job.run(timeout=30.0)
        assert res.status == "completed", res.first_error()
        ticket.wait(10.0)
        assert seen == [2]          # one drain, two pool workers
        assert_balanced(sched)


class _Deadlock(MpiApplication):
    """Every rank receives from its left neighbour; nobody sends."""

    def run(self, ctx):
        MPI = ctx.MPI
        buf = np.zeros(1)
        MPI.recv(buf, 1, MPI.DOUBLE, (ctx.rank - 1) % ctx.nranks, 9,
                 MPI.COMM_WORLD)


class _HoldSlotThenRecv(MpiApplication):
    """Rank 0 makes rank 1 ready, then sits on the only slot past the
    job deadline; ranks 2.. stay parked in a receive."""

    def run(self, ctx):
        MPI = ctx.MPI
        buf = np.zeros(1)
        if ctx.rank == 0:
            MPI.send(buf, 1, MPI.DOUBLE, 1, 9, MPI.COMM_WORLD)
            time.sleep(0.5)
            MPI.recv(buf, 1, MPI.DOUBLE, 1, 9, MPI.COMM_WORLD)
        else:
            MPI.recv(buf, 1, MPI.DOUBLE, 0, 9, MPI.COMM_WORLD)
            MPI.recv(buf, 1, MPI.DOUBLE, 0, 9, MPI.COMM_WORLD)


class TestAbortReachesEveryRank:
    """An abort must reach ranks that are parked *and* ranks that were
    unparked but have no slot yet."""

    @pytest.mark.parametrize("how", ["fabric", "coordinator"])
    def test_abort_with_parked_and_slotless_ranks(self, how, tmp_path):
        sched = Scheduler(3, slots=1)
        fab = Fabric(3, CostModel.discovery(), scheduler=sched)
        coord = CheckpointCoordinator(
            3, str(tmp_path), FilesystemProfile.discovery_nfsv3(),
            scheduler=sched,
        )
        hold = threading.Event()
        boom = RuntimeError("boom")

        def blocked(rank):
            if how == "fabric":
                fab.wait_match(rank, 0, 4, 10, deadline=30.0)
            else:
                coord.trivial_barrier(
                    ("g", 0), 1, rank, (0, 1, 2), lambda: None
                )

        def rank0(rank):
            sched.park(0)            # lets ranks 1 and 2 run and block
            sched.unpark(1)          # ready, but rank 0 has the slot
            assert list(sched._ready) == [1] and sched._parked[2]
            hold.wait(10.0)          # ... and keeps it across the abort
            blocked(rank)

        threads, errors = run_registered(sched, [rank0, blocked, blocked])
        wait_until(lambda: all(sched._parked))
        sched.unpark(0)
        wait_until(lambda: list(sched._ready) == [1])
        if how == "fabric":
            fab.abort(MpiAbort())
        else:
            coord.abort(boom)
        hold.set()
        join_all(threads, 5.0)
        expected = MpiAbort if how == "fabric" else RuntimeError
        assert len(errors) == 3
        assert all(isinstance(e, expected) for e in errors)
        assert_balanced(sched)

    def test_job_deadline_with_parked_and_slotless_ranks(self):
        cfg = JobConfig(nranks=4, impl="mpich", mana=False)
        job = Job(cfg, app_factory=lambda r: _HoldSlotThenRecv(),
                  scheduler=Scheduler(4, slots=1))
        res = job.run(timeout=0.2)
        assert res.status == "failed"
        assert not any(t.is_alive() for t in job._threads)
        assert_balanced(job.scheduler)

    def test_job_deadline_is_one_deadline_not_one_per_rank(self):
        cfg = JobConfig(nranks=8, impl="mpich", mana=False)
        job = Job(cfg, app_factory=lambda r: _Deadlock())
        t0 = time.monotonic()
        res = job.run(timeout=0.25)
        # Eight hung ranks used to cost 8 x 0.25 s before the abort.
        assert time.monotonic() - t0 < 1.5
        assert res.status == "failed"
        assert "timed out" in res.first_error()
        assert not any(t.is_alive() for t in job._threads)
        assert_balanced(job.scheduler)


class _Raises(MpiApplication):
    def run(self, ctx):
        ctx.MPI.barrier(ctx.MPI.COMM_WORLD)
        if ctx.rank == 2:
            raise ValueError("rank 2 dies with the slot")
        ctx.MPI.barrier(ctx.MPI.COMM_WORLD)


class TestSlotsStayBalanced:
    def test_rank_that_raises_frees_its_slot(self):
        cfg = JobConfig(nranks=4, impl="mpich", mana=False)
        job = Job(cfg, app_factory=lambda r: _Raises(),
                  scheduler=Scheduler(4, slots=1))
        res = job.run(timeout=20.0)
        assert res.status == "failed"
        assert "rank 2 dies" in res.first_error()
        assert_balanced(job.scheduler)

    def test_mid_save_crash_in_released_section(self, tmp_path):
        plan = FaultPlan(seed=3).crash_in_checkpoint(rank=1, generation=1)
        cfg = JobConfig(nranks=4, impl="mpich", mana=True,
                        ckpt_dir=str(tmp_path), faults=plan)
        job = Job(cfg, app_factory=lambda r: RingApp(12),
                  scheduler=Scheduler(4, slots=1))
        job.checkpoint_at_iteration("main", 3, kind="in-session")
        res = job.run(timeout=30.0)
        assert res.status == "failed"
        assert "rank 1 at mid-save" in res.first_error()
        assert_balanced(job.scheduler)

    def test_released_save_sections_overlap_at_one_slot(
        self, tmp_path, monkeypatch
    ):
        spans = []
        real_save = ckpt.save_image

        def slow_save(path, image, **kwargs):
            t0 = time.monotonic()
            time.sleep(0.05)        # GIL-free, like a blocked file write
            out = real_save(path, image, **kwargs)
            spans.append((t0, time.monotonic()))
            return out

        monkeypatch.setattr(ckpt, "save_image", slow_save)
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, ckpt_format=4,
                        ckpt_dir=str(tmp_path))
        job = Job(cfg, app_factory=lambda r: RingApp(12),
                  scheduler=Scheduler(4, slots=1))
        ticket = job.checkpoint_at_iteration("main", 3, kind="in-session")
        res = job.run(timeout=30.0)
        assert res.status == "completed", res.first_error()
        ticket.wait(5.0)
        assert len(spans) == 4
        wall = max(e for _, e in spans) - min(s for s, _ in spans)
        assert wall < 0.15, f"4 x 50 ms saves took {wall:.3f}s: serialized"
        assert_balanced(job.scheduler)


class TestDeterministicHandOff:
    def _trace(self, ckpt_dir):
        cls = APP_CLASSES["lammps"]
        spec = replace(cls.paper_config(), nranks=8, blocks=8)
        sched = Scheduler(8, slots=1)
        sched.trace = []
        job = Job(
            JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir),
            app_factory=lambda r: cls(spec), scheduler=sched,
        )
        ticket = job.checkpoint_at_iteration("main", 3, kind="in-session")
        res = job.run(timeout=60.0)
        assert res.status == "completed", res.first_error()
        ticket.wait(5.0)
        assert_balanced(sched)
        return sched.trace, res.runtime

    def test_one_slot_gives_the_same_hand_off_trace_twice(self, tmp_path):
        first, runtime1 = self._trace(str(tmp_path / "a"))
        second, runtime2 = self._trace(str(tmp_path / "b"))
        assert len(first) > 100
        assert first == second
        assert runtime1 == runtime2

"""Coordinator unit tests: tickets, triggers, elections, trivial barrier."""

import sys
import threading
import time

import pytest

from repro import JobConfig, Launcher
from repro.mana import coordinator
from repro.mana.coordinator import (
    CheckpointCoordinator,
    CheckpointKind,
    CheckpointMode,
)
from repro.simtime.cost import FilesystemProfile
from repro.util.errors import CheckpointError, CheckpointRoundAborted
from tests.conftest import run_ranks
from tests.miniapps import EarlyLeaverApp


def coord(nranks=2, lag=4):
    return CheckpointCoordinator(
        nranks, None, FilesystemProfile.discovery_nfsv3(),
        loop_lag_window=lag,
    )


class TestTickets:
    def test_request_arms_intent(self):
        c = coord()
        t = c.request_checkpoint()
        assert c.intent is t
        assert c.should_park_now()

    def test_ticket_completes_on_its_second_half(self):
        """A round's commit and its resume report in either order; the
        ticket completes on whichever comes last."""
        t = coord().request_checkpoint()
        t.settle()
        assert not t._done.is_set()
        t.settle()
        assert t.wait(0) is t.result

    def test_second_request_while_busy_rejected(self):
        c = coord()
        c.request_checkpoint()
        with pytest.raises(CheckpointError, match="already in progress"):
            c.request_checkpoint()

    def test_unknown_kind_mode_rejected(self):
        c = coord()
        with pytest.raises(ValueError):
            c.request_checkpoint(kind="weird")
        with pytest.raises(ValueError):
            c.request_checkpoint(mode="weird")

    def test_cancel_pending(self):
        c = coord()
        t = c.request_checkpoint()
        c.cancel_pending("test")
        with pytest.raises(CheckpointError, match="cancelled"):
            t.wait(1)
        assert c.intent is None

    def test_generations_increment(self):
        c = coord()
        t1 = c.request_checkpoint()
        c.cancel_pending("x")
        t2 = c.request_checkpoint()
        assert (t1.generation, t2.generation) == (1, 2)

    def test_ticket_wait_timeout(self):
        c = coord()
        t = c.request_checkpoint()
        with pytest.raises(CheckpointError, match="did not complete"):
            t.wait(0.05)

    def test_abort_fails_tickets(self):
        c = coord()
        trigger = c.checkpoint_at_iteration("main", 100)
        t = c.request_checkpoint()
        c.abort(RuntimeError("boom"))
        for ticket in (t, trigger):
            with pytest.raises(RuntimeError, match="boom"):
                ticket.wait(1)
        # Still armed: a rank parked at a phase gate raises the abort
        # rather than finding the round over.
        assert c.intent is t


class TestTriggers:
    def test_trigger_fires_on_iteration(self):
        c = coord()
        t = c.checkpoint_at_iteration("main", 5)
        c.loop_top(0, "main", 4, 0.0)
        assert c.intent is None
        c.loop_top(0, "main", 5, 0.0)
        assert c.intent is t

    def test_trigger_fires_past_iteration(self):
        c = coord()
        t = c.checkpoint_at_iteration("main", 5)
        c.loop_top(0, "main", 9, 0.0)
        assert c.intent is t

    def test_trigger_loop_name_scoped(self):
        c = coord()
        c.checkpoint_at_iteration("outer", 5)
        c.loop_top(0, "inner", 10, 0.0)
        assert c.intent is None

    def test_only_one_trigger_fires_at_a_time(self):
        c = coord()
        t1 = c.checkpoint_at_iteration("main", 1)
        t2 = c.checkpoint_at_iteration("main", 2)
        c.loop_top(0, "main", 5, 0.0)
        assert c.intent is t1
        c.loop_top(0, "main", 6, 0.0)  # t1 still in progress
        assert c.intent is t1
        assert t2.generation is None  # numbered when its round is armed
        c._on_resumed()  # t1's round ends at its resume gate
        c.loop_top(0, "main", 7, 0.0)
        assert c.intent is t2
        assert t2.generation == t1.generation + 1

    def test_unfired_trigger_wait_timeout(self):
        c = coord()
        t = c.checkpoint_at_iteration("main", 5)
        c.loop_top(0, "main", 2, 0.0)
        c.loop_end(1, "main", 3)
        with pytest.raises(CheckpointError,
                           match=r"trigger \(not fired yet\) did not complete"
                           ) as ei:
            t.wait(0.05)
        assert ("unfired in-session trigger: loop 'main' iteration 5; "
                "loop 'main' last iterations {0: 2}, ended by ranks [1]"
                in str(ei.value))

    def test_cancel_pending_covers_triggers(self):
        c = coord()
        t = c.checkpoint_at_iteration("main", 100)
        c.cancel_pending("done")
        with pytest.raises(CheckpointError):
            t.wait(1)


class TestLoopElection:
    def test_target_is_first_observer_plus_lag(self):
        c = coord(lag=4)
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        assert c.loop_top(0, "main", 10, 0.0) is False
        assert c._round.loop_target == 14
        assert c.loop_top(0, "main", 13, 0.0) is False
        assert c.loop_top(0, "main", 14, 0.0) is True

    def test_target_lies_past_every_reported_iteration(self):
        """A rank that reported 13 before the election pushes a lag-2
        election at 10 to 14, not 12 (which it has already passed)."""
        c = coord(lag=2)
        c.loop_top(1, "main", 13, 0.0)
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        assert c.loop_top(0, "main", 10, 0.0) is False
        assert c._round.loop_target == 14
        assert c.loop_top(1, "main", 14, 0.0) is True
        assert c.loop_top(0, "main", 14, 0.0) is True

    @pytest.mark.parametrize("path", ["request", "trigger"])
    def test_asked_for_round_fails_once_a_rank_ended_the_loop(self, path):
        c = coord()
        c.loop_end(1, "main", 5)
        t = (c.request_checkpoint(kind=CheckpointKind.LOOP)
             if path == "request" else
             c.checkpoint_at_iteration("main", 2, kind=CheckpointKind.LOOP))
        assert c.loop_top(0, "main", 3, 0.0) is False
        with pytest.raises(CheckpointError,
                           match="rank 1 already ended loop 'main'"):
            t.wait(0)
        assert c.intent is None

    def test_interval_arms_nothing_in_a_loop_a_rank_ended(self):
        """Nobody asked for an interval round: it stays due and arms in
        the next loop every rank can still reach."""
        c = coord()
        c.enable_interval_checkpoints(0.05)
        c.loop_end(1, "main", 5)
        assert c.loop_top(0, "main", 3, 1.0) is False
        assert c.intent is None and c.interval_tickets == []
        c.loop_top(0, "post", 0, 1.0)
        (t,) = c.interval_tickets
        assert c.intent is t and c._round.loop_target == 4

    def test_snapshot_names_the_loop_round_and_its_ledger(self):
        c = coord(lag=4)
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        assert "LOOP target not elected yet" in c.phase_snapshot()
        c.loop_top(1, "main", 3, 0.0)
        c.loop_top(0, "main", 2, 0.0)
        snap = c.phase_snapshot()
        assert ("LOOP target: loop 'main' iteration 7; loop 'main' last "
                "iterations {0: 2, 1: 3}, ended by ranks []") in snap

    def test_non_loop_intent_ignores_poll(self):
        c = coord()
        c.request_checkpoint(kind=CheckpointKind.IN_SESSION)
        assert c.loop_top(0, "main", 3, 0.0) is False
        assert c._round.loop_target is None

    def test_other_loop_not_elected(self):
        c = coord()
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_top(0, "main", 10, 0.0)
        assert c.loop_top(0, "side", 14, 0.0) is False

    def test_loop_cancel(self):
        c = coord()
        t = c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_top(0, "main", 10, 0.0)
        c.loop_end(0, "main", 12)
        with pytest.raises(CheckpointError, match="cancelled"):
            t.wait(1)
        assert c.intent is None

    def test_end_of_another_loop_keeps_the_round(self):
        c = coord()
        t = c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_top(0, "main", 10, 0.0)
        c.loop_end(0, "side", 12)
        c.loop_end(0, "main", 15)           # target 14 lies inside the loop
        assert c.intent is t


class TestRoundAfterARankLeftItsLoop:
    """A LOOP round armed after some rank has ended the loop could never
    complete: the other ranks parked at its target until the job's
    deadline.  Each arming path now checks the loop's ledger first."""

    def _launch(self, app_factory, **config):
        return Launcher(JobConfig(nranks=2, impl="mpich", mana=True,
                                  deadline=10.0, **config)).launch(app_factory)

    def test_interval_arms_nothing(self):
        """Rank 1 leaves at vtime ~0.02; rank 0 crosses the 0.05 s
        interval at its top of iteration 3, which used to elect 11."""
        job = self._launch(lambda r: EarlyLeaverApp(leaver=1),
                           ckpt_interval=0.05)
        res = job.run()
        assert res.status == "completed", res.first_error()
        assert job.coordinator.interval_tickets == []

    def test_fast_sender_leaves_before_the_interval(self):
        """The fast sender of SkewedSendersApp, through the interval
        path: rank 0 never blocks, ends its loop and sends a token; rank
        1 crosses the interval only after receiving it."""
        job = self._launch(lambda r: EarlyLeaverApp(leaver=0, burst=3),
                           ckpt_interval=0.05)
        res = job.run()
        assert res.status == "completed", res.first_error()
        assert job.coordinator.interval_tickets == []
        assert res.apps()[1].received == sorted(
            it * 100.0 + b for it in range(20) for b in range(3))

    def test_request_fails_its_ticket_at_once(self):
        """Rank 0 requests a LOOP checkpoint as it receives the token
        rank 1 sent after leaving the loop."""
        tickets = []
        job = self._launch(lambda r: EarlyLeaverApp(on_token=lambda: (
            tickets.append(job.request_checkpoint(kind="loop")))))
        res = job.run()
        assert res.status == "completed", res.first_error()
        (ticket,) = tickets
        with pytest.raises(CheckpointError,
                           match="rank 1 already ended loop 'main'"):
            ticket.wait(0)


class TestRoundRetry:
    def test_retry_sees_nothing_from_the_aborted_attempt(self):
        """An abort starts a fresh attempt: the retry's start time comes
        from its own quiesce clocks only, and no snapshot or manifest
        reported in the aborted attempt reaches the retry."""
        c = coord(nranks=2)
        c.request_checkpoint()
        first = c.begin_participation(0)
        errors = []

        def rank0_first_attempt():
            try:
                c.quiesce(0, 5.0, first)
            except CheckpointRoundAborted as exc:
                errors.append(exc)

        th = threading.Thread(target=rank0_first_attempt)
        th.start()
        deadline = time.monotonic() + 5
        while first.quiesce.arrived_ranks() != [0]:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        # A late report into the aborted attempt must not leak either.
        first.snapshots[0] = {"image": None, "blob": b"stale"}
        first.manifest = {"stale": True}
        c.abort_round("test stall")
        th.join(5)
        assert errors and not th.is_alive()

        retry = [c.begin_participation(r) for r in (0, 1)]
        assert retry[0] is retry[1] is not first
        run_ranks(2, lambda r: c.quiesce(r, (1.0, 2.0)[r], retry[r]),
                  timeout=10)
        assert retry[0].start == 2.0
        assert retry[0].snapshots == {} and retry[0].manifest is None
        assert c.round_events[-1]["attempt"] == 1
        c.abort(RuntimeError("test teardown"))


class TestFinalize:
    def test_all_finalized_disables_and_cancels(self):
        """Ranks in finalize never park for a LOOP round, so the last
        rank's arrival cancels it."""
        c = coord(nranks=2)
        t = c.request_checkpoint(kind=CheckpointKind.LOOP)
        done = []

        def fin(rank):
            c.finalize_rank(rank, park_check=lambda: None)
            done.append(rank)

        th = threading.Thread(target=fin, args=(0,))
        th.start()
        time.sleep(0.05)
        assert not done  # rank 0 waits for rank 1
        fin(1)
        th.join(timeout=5)
        assert sorted(done) == [0, 1]
        assert not c.should_park_now()
        with pytest.raises(CheckpointError, match="MPI_Finalize"):
            t.wait(1)

    def test_last_finalize_joins_a_round_in_progress(self, monkeypatch):
        """Rank 0 detoured from finalize into an IN_SESSION round; rank 1
        then finalizes last.  It must join the round (rank 0 left the
        fence before detouring), not cancel it and strand rank 0 at the
        quiesce gate."""
        monkeypatch.setattr(coordinator, "PHASE_TIMEOUT_S", 2.0)
        c = coord(nranks=2)
        passed, errors = [], []
        both_through = threading.Barrier(
            2, action=lambda: c.cancel_pending("test round completed"),
            timeout=10,
        )

        def park_check(rank):
            if c.should_park_now():
                attempt = c.begin_participation(rank)
                c.quiesce(rank, 0.0, attempt)
                passed.append(rank)
                both_through.wait()

        def fin(rank):
            try:
                c.finalize_rank(rank, lambda: park_check(rank))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        th0 = threading.Thread(target=fin, args=(0,), daemon=True)
        th0.start()
        time.sleep(0.05)  # rank 0 parks in finalize (not required)
        t = c.request_checkpoint(kind=CheckpointKind.IN_SESSION)
        deadline = time.monotonic() + 5
        while "arrived ranks [0]," not in c.phase_snapshot():
            assert time.monotonic() < deadline
            time.sleep(0.001)
        th1 = threading.Thread(target=fin, args=(1,), daemon=True)
        th1.start()
        th0.join(10)
        th1.join(10)
        assert not errors, errors
        assert sorted(passed) == [0, 1]
        assert t.error is not None and "MPI_Finalize" not in str(t.error)
        assert not c.should_park_now()


class TestTrivialBarrier:
    def test_completes_when_all_members_arrive(self):
        c = coord(nranks=2)
        out = []

        def member(rank):
            c.trivial_barrier(("g", 0), 1, rank, (0, 1), lambda: None)
            out.append(rank)

        ts = [threading.Thread(target=member, args=(r,)) for r in (0, 1)]
        [t.start() for t in ts]
        [t.join(timeout=5) for t in ts]
        assert sorted(out) == [0, 1]

    def test_subset_members_only(self):
        c = coord(nranks=4)
        done = []

        def member(rank):
            c.trivial_barrier(("sub", 7), 3, rank, (1, 3), lambda: None)
            done.append(rank)

        ts = [threading.Thread(target=member, args=(r,)) for r in (1, 3)]
        [t.start() for t in ts]
        [t.join(timeout=5) for t in ts]
        assert sorted(done) == [1, 3]

    def test_parks_resolve_then_barrier_completes(self):
        """With an in-session intent armed, members leave the barrier to
        park; once the 'checkpoint' resolves (intent cleared), the
        barrier completes for everyone.  A park_check that does nothing
        would livelock — parking MUST resolve the intent, as the real
        checkpoint_participate does."""
        c = coord(nranks=2)
        parked = []
        c.request_checkpoint(kind=CheckpointKind.IN_SESSION)

        def park():
            parked.append(1)
            c.cancel_pending("simulated checkpoint completed")

        def member(rank):
            c.trivial_barrier(("g", 1), 1, rank, (0, 1), park)

        ts = [threading.Thread(target=member, args=(r,)) for r in (0, 1)]
        [t.start() for t in ts]
        [t.join(timeout=10) for t in ts]
        assert not any(t.is_alive() for t in ts)
        assert parked  # at least one member detoured into the park path

    def test_committed_member_does_not_park(self):
        """Once a member observes commitment, it proceeds into the
        collective even though an intent arrives at that instant."""
        c = coord(nranks=2)
        order = []

        def member_a():
            c.trivial_barrier(("g", 2), 1, 0, (0, 1), lambda: order.append("a-parked"))
            order.append("a-through")

        def member_b():
            c.trivial_barrier(("g", 2), 1, 1, (0, 1), lambda: order.append("b-parked"))
            order.append("b-through")

        ta = threading.Thread(target=member_a)
        tb = threading.Thread(target=member_b)
        ta.start()
        tb.start()
        ta.join(timeout=5)
        tb.join(timeout=5)
        # No intent was armed: nobody parked, everybody went through.
        assert sorted(order) == ["a-through", "b-through"]

    def test_stale_entries_cleaned(self):
        c = coord(nranks=2)
        for seq in range(1, 6):
            run_ranks(
                2,
                lambda r: c.trivial_barrier(("g", 0), seq, r, (0, 1),
                                            lambda: None),
                timeout=10,
            )
        assert c._barriers == {}  # each barrier is forgotten on commit

    def test_ranks_racing_through_many_barriers(self):
        """More ranks than CPUs cross 200 barriers back to back under a
        short switch interval, so meetings are created, completed and
        forgotten while the next one fills: a lost arrival or wake-up
        hangs a rank, a lost entry stays in the map."""
        n, rounds = 8, 200
        c = coord(nranks=n)
        calls = _count_unparks(c.scheduler)
        members = tuple(range(n))

        def rank(r):
            for seq in range(1, rounds + 1):
                c.trivial_barrier(("g", 9), seq, r, members, lambda: None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_ranks(n, rank, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert c._barriers == {}
        assert len(calls) == rounds * (n - 1)


def _count_unparks(sched):
    """Record the target of every ``unpark`` (calls, not sleeps: the
    count does not depend on thread scheduling)."""
    calls = []
    original = sched.unpark

    def counting(rank):
        calls.append(rank)
        original(rank)

    sched.unpark = counting
    return calls


class TestWakeDiscipline:
    """A blocked rank is unparked only by an event that lets it proceed,
    and a rank that wakes without progress wakes nobody (PROTOCOLS §8)."""

    N = 8

    def test_one_notify_per_barrier_instance(self):
        c = coord(nranks=self.N)
        calls = _count_unparks(c.scheduler)
        members = tuple(range(self.N))
        for seq in (1, 2, 3):
            run_ranks(
                self.N,
                lambda r: c.trivial_barrier(
                    ("g", 0), seq, r, members, lambda: None
                ),
                timeout=10,
            )
            # The committing arrival unparks each other member once.
            assert len(calls) == seq * (self.N - 1)
            assert len(set(calls[-(self.N - 1):])) == self.N - 1

    def test_one_notify_per_finalize(self):
        c = coord(nranks=self.N)
        calls = _count_unparks(c.scheduler)
        run_ranks(
            self.N, lambda r: c.finalize_rank(r, lambda: None), timeout=10
        )
        # Only the last registration can release anybody: it unparks
        # each of the others once.
        assert len(calls) == len(set(calls)) == self.N - 1

    def test_one_notify_per_gate(self):
        c = coord(nranks=self.N)
        c.request_checkpoint()
        attempt = c.begin_participation(0)
        calls = _count_unparks(c.scheduler)
        run_ranks(self.N, lambda r: c.quiesce(r, 0.0, attempt), timeout=10)
        # The arrival that completes the gate unparks each other rank once.
        assert len(calls) == len(set(calls)) == self.N - 1
        c.abort(RuntimeError("test teardown"))

    def test_released_gate_unparks_each_waiter_once(self):
        c = coord(nranks=self.N)
        c.request_checkpoint()
        attempt = c.begin_participation(0)
        waiters = self.N - 1
        errors = []

        def rank(r):
            try:
                c.quiesce(r, 0.0, attempt)
            except CheckpointRoundAborted as exc:
                errors.append(exc)

        ts = [threading.Thread(target=rank, args=(r,), daemon=True)
              for r in range(waiters)]
        [t.start() for t in ts]
        deadline = time.monotonic() + 5
        while len(attempt.quiesce.arrived_ranks()) < waiters:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        calls = _count_unparks(c.scheduler)
        c.abort_round("test stall")
        [t.join(timeout=5) for t in ts]
        assert len(errors) == waiters
        assert sorted(calls) == list(range(waiters))
        c.abort(RuntimeError("test teardown"))

    @pytest.mark.parametrize("blocker", ["barrier", "finalize"])
    def test_intent_and_abort_reach_parked_ranks(self, blocker):
        """Arming intent unparks a rank parked in a barrier / in
        finalize, and so does abort."""
        c = coord(nranks=2)
        parked = threading.Event()
        raised = []

        def park():
            if c.should_park_now():
                parked.set()
                # The "checkpoint" completes: the rank goes back to wait.
                c.cancel_pending("simulated checkpoint completed")

        def rank0():
            try:
                if blocker == "barrier":
                    c.trivial_barrier(("g", 0), 1, 0, (0, 1), park)
                else:
                    c.finalize_rank(0, park)
            except RuntimeError as exc:
                raised.append(exc)

        th = threading.Thread(target=rank0, daemon=True)
        th.start()
        time.sleep(0.05)  # let rank 0 block (not required for the assert)
        c.request_checkpoint(kind=CheckpointKind.IN_SESSION)
        assert parked.wait(5)
        th.join(timeout=0.2)
        assert th.is_alive()  # parked again: rank 1 never arrived
        c.abort(RuntimeError("boom"))
        th.join(timeout=5)
        assert not th.is_alive() and raised

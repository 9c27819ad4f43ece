"""Coordinator unit tests: tickets, triggers, elections, trivial barrier."""

import threading
import time

import pytest

from repro.mana.coordinator import (
    CheckpointCoordinator,
    CheckpointKind,
    CheckpointMode,
)
from repro.simtime.cost import FilesystemProfile
from repro.util.errors import CheckpointError
from tests.conftest import run_ranks


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
        c.note_loop_progress("main", 4)
        assert c.intent is None
        c.note_loop_progress("main", 5)
        assert c.intent is t

    def test_trigger_fires_past_iteration(self):
        c = coord()
        t = c.checkpoint_at_iteration("main", 5)
        c.note_loop_progress("main", 9)
        assert c.intent is t

    def test_trigger_loop_name_scoped(self):
        c = coord()
        c.checkpoint_at_iteration("outer", 5)
        c.note_loop_progress("inner", 10)
        assert c.intent is None

    def test_only_one_trigger_fires_at_a_time(self):
        c = coord()
        t1 = c.checkpoint_at_iteration("main", 1)
        t2 = c.checkpoint_at_iteration("main", 2)
        c.note_loop_progress("main", 5)
        assert c.intent is t1
        c.note_loop_progress("main", 6)  # t1 still in progress
        assert c.intent is t1
        assert t2.generation == t1.generation + 1

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
        assert c.loop_poll("main", 10) is False
        assert c.loop_target() == 14
        assert c.loop_poll("main", 13) is False
        assert c.loop_poll("main", 14) is True

    def test_skew_beyond_lag_detected(self):
        c = coord(lag=2)
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_poll("main", 10)
        with pytest.raises(CheckpointError, match="skew"):
            c.loop_poll("main", 13)

    def test_non_loop_intent_ignores_poll(self):
        c = coord()
        c.request_checkpoint(kind=CheckpointKind.IN_SESSION)
        assert c.loop_poll("main", 3) is False
        assert c.loop_target() is None

    def test_other_loop_not_elected(self):
        c = coord()
        c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_poll("main", 10)
        assert c.loop_poll("side", 14) is False

    def test_loop_cancel(self):
        c = coord()
        t = c.request_checkpoint(kind=CheckpointKind.LOOP)
        c.loop_poll("main", 10)
        c.loop_cancel("loop ended")
        with pytest.raises(CheckpointError, match="cancelled"):
            t.wait(1)
        assert c.intent is None


class TestFinalize:
    def test_all_finalized_disables_and_cancels(self):
        c = coord(nranks=2)
        t = c.request_checkpoint()
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
        with pytest.raises(CheckpointError):
            t.wait(1)

    def test_park_check_called_while_waiting(self):
        c = coord(nranks=2)
        calls = []

        def park():
            calls.append(1)

        th = threading.Thread(
            target=c.finalize_rank, args=(0, park), daemon=True
        )
        th.start()
        time.sleep(0.05)
        c.finalize_rank(1, lambda: None)
        th.join(timeout=5)
        assert calls  # rank 0 polled while waiting


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
        c = coord(nranks=1)
        for seq in range(1, 6):
            c.trivial_barrier(("g", 0), seq, 0, (0,), lambda: None)
        keys = [k[1] for k in c._tb_arrivals if k[0] == ("g", 0)]
        assert min(keys) >= 3  # anything older than seq-2 dropped


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

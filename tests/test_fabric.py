"""Message-fabric tests: matching semantics, ordering, counters, abort."""

import pytest

from repro.fabric.network import ANY_SOURCE, ANY_TAG, Fabric
from repro.simtime.cost import CostModel
from repro.util.errors import MpiAbort, ReproError


@pytest.fixture
def fab():
    return Fabric(4, CostModel.discovery())


def post(fab, src, dst, tag=1, ctx=10, payload=b"x", t=0.0):
    return fab.post_send(src, dst, tag, ctx, payload, t)


class TestPostAndMatch:
    def test_simple_roundtrip(self, fab):
        post(fab, 0, 1, tag=7, payload=b"hello")
        m = fab.try_match(1, 0, 7, 10)
        assert m.payload == b"hello"
        assert m.src == 0 and m.tag == 7

    def test_no_match_returns_none(self, fab):
        assert fab.try_match(1, 0, 7, 10) is None

    def test_context_isolation(self, fab):
        post(fab, 0, 1, tag=7, ctx=10)
        assert fab.try_match(1, 0, 7, 99) is None
        assert fab.try_match(1, 0, 7, 10) is not None

    def test_tag_mismatch(self, fab):
        post(fab, 0, 1, tag=7)
        assert fab.try_match(1, 0, 8, 10) is None

    def test_source_wildcard(self, fab):
        post(fab, 2, 1, tag=7)
        m = fab.try_match(1, ANY_SOURCE, 7, 10)
        assert m.src == 2

    def test_tag_wildcard(self, fab):
        post(fab, 0, 1, tag=42)
        m = fab.try_match(1, 0, ANY_TAG, 10)
        assert m.tag == 42

    def test_full_wildcard_oldest_first(self, fab):
        post(fab, 2, 1, tag=5, payload=b"first")
        post(fab, 3, 1, tag=6, payload=b"second")
        m = fab.try_match(1, ANY_SOURCE, ANY_TAG, 10)
        assert m.payload == b"first"

    def test_non_overtaking_same_pair_same_tag(self, fab):
        for i in range(5):
            post(fab, 0, 1, tag=9, payload=bytes([i]))
        got = [fab.try_match(1, 0, 9, 10).payload[0] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_tag_selective_matching_skips_earlier(self, fab):
        post(fab, 0, 1, tag=1, payload=b"a")
        post(fab, 0, 1, tag=2, payload=b"b")
        assert fab.try_match(1, 0, 2, 10).payload == b"b"
        assert fab.try_match(1, 0, 1, 10).payload == b"a"

    def test_rank_range_checked(self, fab):
        with pytest.raises(ReproError):
            post(fab, 0, 9)
        with pytest.raises(ReproError):
            fab.try_match(-1, 0, 0, 0)


class TestTiming:
    def test_arrival_after_send_time(self, fab):
        m = post(fab, 0, 1, payload=b"x" * 1000, t=5.0)
        cost = fab.cost_model.message_cost(1000)
        assert m.arrive_time == pytest.approx(5.0 + cost)

    def test_bigger_messages_arrive_later(self, fab):
        m1 = post(fab, 0, 1, tag=1, payload=b"x", t=0.0)
        m2 = post(fab, 0, 1, tag=2, payload=b"x" * 10_000_000, t=0.0)
        assert m2.arrive_time > m1.arrive_time


class TestIprobe:
    def test_iprobe_nondestructive(self, fab):
        post(fab, 0, 1, tag=3, payload=b"abc")
        r1 = fab.iprobe(1, 0, 3, 10)
        r2 = fab.iprobe(1, 0, 3, 10)
        assert r1 is not None and r2 is not None
        assert r1.nbytes == 3
        assert fab.in_flight(1) == 1

    def test_iprobe_none_when_empty(self, fab):
        assert fab.iprobe(1, ANY_SOURCE, ANY_TAG, 10) is None


class TestCounters:
    def test_in_flight_total_and_per_rank(self, fab):
        post(fab, 0, 1)
        post(fab, 0, 2)
        assert fab.in_flight() == 2
        assert fab.in_flight(1) == 1
        fab.try_match(1, 0, 1, 10)
        assert fab.in_flight() == 1

    def test_pairwise_counts(self, fab):
        post(fab, 0, 1)
        post(fab, 0, 1)
        post(fab, 2, 1)
        assert fab.pairwise_sent(0, 1) == 2
        assert fab.pairwise_sent(2, 1) == 1
        assert fab.pairwise_received(0, 1) == 0
        fab.try_match(1, 0, ANY_TAG, 10)
        assert fab.pairwise_received(0, 1) == 1


class TestWaitMatch:
    def test_wait_returns_when_available(self, fab):
        import threading

        def sender():
            post(fab, 0, 1, tag=4, payload=b"later")

        t = threading.Thread(target=sender)
        t.start()
        m = fab.wait_match(1, 0, 4, 10, deadline=5.0)
        t.join()
        assert m.payload == b"later"

    def test_wait_should_stop(self, fab):
        m = fab.wait_match(1, 0, 4, 10, should_stop=lambda: True)
        assert m is None

    def test_wait_deadline_raises(self, fab):
        with pytest.raises(ReproError, match="deadlock"):
            fab.wait_match(1, 0, 4, 10, deadline=0.2)


class TestAbort:
    def test_abort_wakes_waiters(self, fab):
        import threading

        caught = []

        def waiter():
            try:
                fab.wait_match(1, 0, 4, 10, deadline=10.0)
            except MpiAbort as exc:
                caught.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        fab.abort()
        t.join(timeout=5)
        assert caught and fab.aborted

    def test_post_after_abort_raises(self, fab):
        fab.abort()
        with pytest.raises(MpiAbort):
            post(fab, 0, 1)


class TestPerRankWakeups:
    """Only the destination of a message is unparked; an ``unpark_all``
    (what the coordinator does on intent) and ``abort`` reach every rank
    (PROTOCOLS §8)."""

    RELEASERS = {
        "post": lambda fab: post(fab, 0, 5, tag=4),
        "wake": lambda fab: fab.scheduler.unpark_all(),
        "abort": lambda fab: fab.abort(),
    }

    @pytest.fixture
    def fab8(self):
        return Fabric(8, CostModel.discovery())

    @pytest.mark.parametrize("release", sorted(RELEASERS))
    def test_wait_activity_ignores_other_destinations(self, fab8, release):
        import threading

        t = threading.Thread(
            target=fab8.wait_activity, args=(5, 30.0), daemon=True
        )
        t.start()
        post(fab8, 0, 3)
        t.join(timeout=0.2)
        sched = fab8.scheduler
        # Rank 5 is not made ready by post_send(dst=3): it stays parked
        # (or, if it has not parked yet, finds no permit when it does).
        assert t.is_alive() and not sched._permit[5]
        assert sched._permit[3]
        self.RELEASERS[release](fab8)
        t.join(timeout=5)
        assert not t.is_alive()

    @pytest.mark.parametrize("release", sorted(RELEASERS))
    def test_wait_match_sleeps_through_other_destinations(self, fab8, release):
        import threading

        sched = fab8.scheduler
        parks = []
        original = sched.park

        def counting_park(rank, timeout=None):
            parks.append(rank)
            return original(rank, timeout)

        sched.park = counting_park
        stop = []
        out = []

        def waiter():
            try:
                out.append(fab8.wait_match(
                    5, 0, 4, 10, should_stop=lambda: bool(stop),
                    deadline=30.0,
                ))
            except MpiAbort as exc:
                out.append(exc)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        for _ in range(20):
            post(fab8, 0, 3, tag=4)
        t.join(timeout=0.2)
        assert t.is_alive() and parks == [5]  # parked once, never woken
        stop.append(1)  # lets an unpark without a message end the wait
        self.RELEASERS[release](fab8)
        t.join(timeout=5)
        assert not t.is_alive() and len(out) == 1
        if release == "post":
            assert out[0].dst == 5 and out[0].tag == 4

"""DrainBuffer matching semantics + drain-related wrapper behavior."""

import numpy as np
import pytest

from repro.mana.drain import DrainBuffer, DrainedMessage
from repro.mpi.constants import ANY_SOURCE, ANY_TAG


def msg(comm_vid=1, src_world=0, src_comm_rank=0, tag=5, payload=b"x"):
    return DrainedMessage(comm_vid, src_world, src_comm_rank, tag, payload)


class TestDrainBuffer:
    def test_fifo_within_matches(self):
        buf = DrainBuffer()
        buf.add(msg(payload=b"a"))
        buf.add(msg(payload=b"b"))
        assert buf.match(1, 0, 5).payload == b"a"
        assert buf.match(1, 0, 5).payload == b"b"
        assert buf.match(1, 0, 5) is None

    def test_comm_isolation(self):
        buf = DrainBuffer()
        buf.add(msg(comm_vid=1))
        assert buf.match(2, 0, 5) is None
        assert buf.match(1, 0, 5) is not None

    def test_source_and_tag_filters(self):
        buf = DrainBuffer()
        buf.add(msg(src_world=3, tag=7))
        assert buf.match(1, 4, 7) is None
        assert buf.match(1, 3, 8) is None
        assert buf.match(1, 3, 7) is not None

    def test_wildcards(self):
        buf = DrainBuffer()
        buf.add(msg(src_world=2, tag=9, payload=b"z"))
        m = buf.match(1, ANY_SOURCE, ANY_TAG)
        assert m.payload == b"z"

    def test_peek_without_remove(self):
        buf = DrainBuffer()
        buf.add(msg())
        assert buf.match(1, 0, 5, remove=False) is not None
        assert len(buf) == 1

    def test_selective_tag_can_skip_older(self):
        buf = DrainBuffer()
        buf.add(msg(tag=1, payload=b"old"))
        buf.add(msg(tag=2, payload=b"new"))
        assert buf.match(1, 0, 2).payload == b"new"
        assert buf.match(1, 0, ANY_TAG).payload == b"old"

    def test_pickle_roundtrip(self):
        import pickle

        buf = DrainBuffer()
        buf.add(msg(payload=b"persist"))
        buf2 = pickle.loads(pickle.dumps(buf))
        assert buf2.match(1, 0, 5).payload == b"persist"


class TestDrainIntegration:
    """The drain must empty the fabric of user p2p traffic."""

    def test_fabric_empty_of_user_traffic_after_checkpoint(self):
        from repro import JobConfig, Launcher
        from tests.miniapps import SkewedSendersApp

        job = Launcher(
            JobConfig(nranks=4, impl="mpich", mana=True)
        ).launch(lambda r: SkewedSendersApp(16))
        probe = {}

        # Wrap the save gate's action with a spy to observe the fabric
        # exactly at image-writing time; each round attempt binds the
        # action when it is armed, so patch before that.
        coord = job.coordinator
        orig = coord._on_saved

        def spy():
            probe["in_flight"] = job.fabric.in_flight()
            orig()

        coord._on_saved = spy
        tk = job.checkpoint_at_iteration("main", 6)
        job.start()
        info = tk.wait(120)
        res = job.wait(120)
        assert res.status == "completed", res.first_error()
        # At save time the network held no user messages (MANA-internal
        # traffic has been consumed too: the drain alltoall completes
        # before any rank reaches the saved barrier is not guaranteed,
        # but user contexts must be empty — in this fabric everything
        # must be empty because collectives complete before returning).
        assert probe["in_flight"] == 0
        assert info["bytes_per_rank"]

    def test_drained_messages_in_image(self, tmp_path):
        """A LOOP checkpoint taken while messages are in flight stores
        them in the image and replays them after cold restart."""
        from repro import JobConfig, Launcher
        from tests.miniapps import SkewedSendersApp

        base = Launcher(
            JobConfig(nranks=4, impl="mpich", mana=True)
        ).run(lambda r: SkewedSendersApp(16), timeout=120)
        expect = [a.received for a in base.apps()]

        ckdir = str(tmp_path / "ck")
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, ckpt_dir=ckdir)
        job = Launcher(cfg).launch(lambda r: SkewedSendersApp(16))
        tk = job.checkpoint_at_iteration("main", 5, kind="loop", mode="exit")
        job.start()
        tk.wait(120)
        assert job.wait(120).status == "preempted"

        # The sender (rank 0) ran ahead: receiver images must hold
        # drained messages.
        drained_total = 0
        for r in range(1, 4):
            image = job.store.load_image(job.store.image_path(1, r))
            drained_total += len(image.drain_buffer)
        assert drained_total > 0, "expected in-flight messages at ckpt"

        res2 = Launcher(cfg).restart(ckdir).run(timeout=120)
        assert res2.status == "completed", res2.first_error()
        assert [a.received for a in res2.apps()] == expect

"""Failure injection: crashes, aborts, bad state, torn checkpoints."""

import os
import threading
import time

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.util.errors import CheckpointError, MpiAbort
from tests.miniapps import RingApp


class CrashInside(MpiApplication):
    """Dies at a chosen point; peers must not hang."""

    def __init__(self, where: str):
        self.where = where

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        for it in ctx.loop("main", 12):
            if ctx.rank == 1 and it == 4:
                if self.where == "before-collective":
                    raise RuntimeError("crash before collective")
            out = np.zeros(1)
            MPI.allreduce(np.array([1.0]), out, 1, MPI.DOUBLE, MPI.SUM, w)
            if ctx.rank == 1 and it == 4 and self.where == "after-collective":
                raise RuntimeError("crash after collective")
            if ctx.rank == 1 and it == 4 and self.where == "mpi-abort":
                MPI.abort(w, 42)


class UnpicklableState(MpiApplication):
    """Grows an unpicklable member: checkpoint must fail loudly, not
    corrupt the job silently."""

    def run(self, ctx):
        MPI = ctx.MPI
        self.bad = threading.Lock()  # unpicklable
        for it in ctx.loop("main", 10):
            MPI.barrier(MPI.COMM_WORLD)


class TestRankCrashes:
    @pytest.mark.parametrize("where", ["before-collective", "after-collective"])
    def test_crash_fails_job_without_hanging(self, where):
        res = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
            lambda r: CrashInside(where), timeout=60
        )
        assert res.status == "failed"
        assert "crash" in res.first_error()

    def test_mpi_abort_tears_down_job(self):
        res = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
            lambda r: CrashInside("mpi-abort"), timeout=60
        )
        assert res.status == "failed"
        assert "MPI_Abort" in res.first_error() or "ABORT" in res.first_error()

    def test_crash_during_pending_checkpoint_fails_ticket(self):
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: CrashInside("before-collective")
        )
        # The trigger fires at iteration 6, but rank 1 dies at 4: the
        # ticket must error out rather than hang.
        tk = job.checkpoint_at_iteration("main", 6)
        job.start()
        res = job.wait(60)
        assert res.status == "failed"
        with pytest.raises(Exception):
            tk.wait(10)


class TestCheckpointFailures:
    def test_unpicklable_state_fails_checkpoint(self):
        job = Launcher(JobConfig(nranks=2, impl="mpich", mana=True)).launch(
            lambda r: UnpicklableState()
        )
        tk = job.checkpoint_at_iteration("main", 3)
        job.start()
        with pytest.raises(Exception):
            tk.wait(30)
        res = job.wait(60)
        assert res.status == "failed"
        assert "not serializable" in res.first_error()

    def test_corrupt_image_rejected_at_restart(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        cfg = JobConfig(nranks=2, impl="mpich", mana=True, ckpt_dir=ckdir,
                        loop_lag_window=2)
        job = Launcher(cfg).launch(lambda r: RingApp(16))
        tk = job.checkpoint_at_iteration("main", 3, kind="loop", mode="exit")
        job.start()
        tk.wait(60)
        assert job.wait(60).status == "preempted"

        # Truncate one rank's image.
        path = job.store.image_path(1, 1)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(Exception):
            Launcher(cfg).restart(ckdir).run(timeout=30)

    def test_missing_rank_image_rejected(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        cfg = JobConfig(nranks=2, impl="mpich", mana=True, ckpt_dir=ckdir,
                        loop_lag_window=2)
        job = Launcher(cfg).launch(lambda r: RingApp(16))
        tk = job.checkpoint_at_iteration("main", 3, kind="loop", mode="exit")
        job.start()
        tk.wait(60)
        job.wait(60)
        from repro.util.errors import RestartError

        os.remove(job.store.image_path(1, 0))
        with pytest.raises(RestartError, match="no checkpoint image"):
            Launcher(cfg).restart(ckdir)

    def test_restart_from_empty_dir(self, tmp_path):
        from repro.util.errors import RestartError

        cfg = JobConfig(nranks=2, impl="mpich", mana=True)
        with pytest.raises(RestartError, match="no checkpoints"):
            Launcher(cfg).restart(str(tmp_path / "nothing"))


class TestIntegrityFallback:
    """Torn or bit-rotted images are rejected with typed errors, and a
    generation-less restart falls back to the newest intact generation."""

    def _two_generations(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        cfg = JobConfig(nranks=2, impl="mpich", mana=True, ckpt_dir=ckdir,
                        loop_lag_window=2)
        job = Launcher(cfg).launch(lambda r: RingApp(16))
        job.checkpoint_at_iteration("main", 3, kind="loop")
        tk = job.checkpoint_at_iteration("main", 8, kind="loop", mode="exit")
        job.start()
        tk.wait(60)
        assert job.wait(60).status == "preempted"
        return job.store, cfg

    @pytest.mark.parametrize("corruption", ["truncate", "bitflip"])
    def test_corrupt_generation_falls_back_to_previous(
            self, tmp_path, corruption):
        from repro.util.errors import IntegrityError

        store, cfg = self._two_generations(tmp_path)
        path = store.image_path(2, 0)
        size = os.path.getsize(path)
        if corruption == "truncate":
            with open(path, "r+b") as f:
                f.truncate(size // 2)
            expect = "truncated"
        else:
            with open(path, "r+b") as f:
                f.seek(size - 5)
                b = f.read(1)
                f.seek(size - 5)
                f.write(bytes([b[0] ^ 0x01]))
            expect = "checksum mismatch"
        with pytest.raises(IntegrityError, match=expect):
            store.load_image(path)
        # generation 2 is no longer restorable; restart picks 1
        assert store.restorable() == [1]
        res = Launcher(cfg).restart(store).run(timeout=60)
        assert res.status == "completed", res.first_error()


class TestFabricFailures:
    def test_deadlocked_recv_detected(self):
        class DeadlockApp(MpiApplication):
            def run(self, ctx):
                if ctx.rank == 0:
                    # waits for a message nobody sends
                    buf = np.zeros(1)
                    ctx.MPI.recv(buf, 1, ctx.MPI.DOUBLE, 1, 99,
                                 ctx.MPI.COMM_WORLD)

        # Native blocking recv has a real-time deadline guard.
        cfg = JobConfig(nranks=2, impl="mpich", mana=False, deadline=20.0)
        job = Launcher(cfg).launch(lambda r: DeadlockApp())
        # shrink the guard so the test is fast
        import repro.mpi.api as api

        orig = api.BaseMpiLib._deadline
        api.BaseMpiLib._deadline = lambda self: 1.0
        try:
            res = job.run(timeout=30)
        finally:
            api.BaseMpiLib._deadline = orig
        assert res.status == "failed"
        assert "deadlock" in res.first_error()

"""Persistent requests: native semantics + survival across checkpoints."""

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.mpi.constants import UNDEFINED as MPI_UNDEFINED
from repro.mpi.objects import Status
from repro.util.errors import MpiError
from tests.conftest import ALL_IMPLS, facade_world, run_ranks


class TestNativePersistent:
    def test_start_wait_cycles(self, impl_name):
        _, mpi_for = facade_world(2, impl_name)

        def body(r):
            MPI = mpi_for(r)
            w = MPI.COMM_WORLD
            recv = np.zeros(1)
            send = np.zeros(1)
            rreq = MPI.recv_init(recv, 1, MPI.DOUBLE, 1 - r, 8, w)
            sreq = MPI.send_init(send, 1, MPI.DOUBLE, 1 - r, 8, w)
            got = []
            for it in range(5):
                send[0] = r * 100 + it
                MPI.startall([sreq, rreq])
                MPI.wait(sreq)
                MPI.wait(rreq)
                got.append(float(recv[0]))
            MPI.request_free(sreq)
            MPI.request_free(rreq)
            return got

        out = run_ranks(2, body)
        assert out[0] == [100 + i for i in range(5)]
        assert out[1] == [0 + i for i in range(5)]

    def test_buffer_contents_at_start_time(self, impl_name):
        """MPI reads the send buffer at MPI_Start, not at *_init."""
        _, mpi_for = facade_world(2, impl_name)

        def body(r):
            MPI = mpi_for(r)
            w = MPI.COMM_WORLD
            if r == 0:
                buf = np.array([1.0])
                req = MPI.send_init(buf, 1, MPI.DOUBLE, 1, 9, w)
                buf[0] = 42.0  # modified after init, before start
                MPI.start(req)
                MPI.wait(req)
                MPI.request_free(req)
                return None
            recv = np.zeros(1)
            MPI.recv(recv, 1, MPI.DOUBLE, 0, 9, w)
            return float(recv[0])

        assert run_ranks(2, body)[1] == 42.0

    def test_start_errors(self, impl_name):
        _, mpi_for = facade_world(1, impl_name)
        MPI = mpi_for(0)
        w = MPI.COMM_SELF
        req = MPI.irecv(np.zeros(1), 1, MPI.DOUBLE, MPI.PROC_NULL, 0, w)
        with pytest.raises(MpiError, match="non-persistent"):
            MPI.start(req)

    def test_double_start_rejected(self, impl_name):
        _, mpi_for = facade_world(1, impl_name)
        MPI = mpi_for(0)
        w = MPI.COMM_SELF
        req = MPI.recv_init(np.zeros(1), 1, MPI.DOUBLE, MPI.ANY_SOURCE, 1, w)
        MPI.start(req)
        with pytest.raises(MpiError, match="already-active"):
            MPI.start(req)

    def test_inactive_test_trivially_true(self, impl_name):
        _, mpi_for = facade_world(1, impl_name)
        MPI = mpi_for(0)
        req = MPI.recv_init(np.zeros(1), 1, MPI.DOUBLE, MPI.ANY_SOURCE, 1,
                            MPI.COMM_SELF)
        flag, _ = MPI.test(req)
        assert flag
        MPI.request_free(req)


class HaloPersistentApp(MpiApplication):
    """The classic persistent-request halo exchange: requests created
    once in setup, started every iteration."""

    name = "halo-persistent"

    def __init__(self, niters=20):
        self.niters = niters
        self.history = []

    def setup(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        nxt = (ctx.rank + 1) % ctx.nranks
        prv = (ctx.rank - 1) % ctx.nranks
        self.sendbuf = np.zeros(4)
        self.recvbuf = np.zeros(4)
        self.reqs = [
            MPI.recv_init(self.recvbuf, 4, MPI.DOUBLE, prv, 30, w),
            MPI.send_init(self.sendbuf, 4, MPI.DOUBLE, nxt, 30, w),
        ]

    def run(self, ctx):
        MPI = ctx.MPI
        for it in ctx.loop("main", self.niters):
            self.sendbuf[:] = ctx.rank * 1000 + it
            MPI.startall(self.reqs)
            MPI.waitall(self.reqs)
            self.history.append(float(self.recvbuf[0]))
            out = np.zeros(1)
            MPI.allreduce(self.recvbuf[:1], out, 1, MPI.DOUBLE, MPI.SUM,
                          MPI.COMM_WORLD)

    def validate(self, ctx):
        if len(self.history) != self.niters:
            return f"halo ran {len(self.history)}/{self.niters}"
        return None


class TestPersistentUnderMana:
    @pytest.mark.parametrize("impl", ALL_IMPLS)
    def test_matches_native(self, impl):
        nat = Launcher(JobConfig(nranks=4, impl=impl, mana=False)).run(
            lambda r: HaloPersistentApp(), timeout=60
        )
        man = Launcher(JobConfig(nranks=4, impl=impl, mana=True)).run(
            lambda r: HaloPersistentApp(), timeout=60
        )
        assert man.status == "completed", man.first_error()
        assert [a.history for a in man.apps()] == [
            a.history for a in nat.apps()
        ]

    @pytest.mark.parametrize("at_iter", [3, 9, 15])
    def test_survives_relaunch(self, at_iter):
        base = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
            lambda r: HaloPersistentApp(), timeout=60
        )
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: HaloPersistentApp()
        )
        tk = job.checkpoint_at_iteration("main", at_iter, mode="relaunch")
        job.start()
        tk.wait(60)
        res = job.wait(60)
        assert res.status == "completed", res.first_error()
        assert [a.history for a in res.apps()] == [
            a.history for a in base.apps()
        ]

    def test_survives_cold_cross_impl_restart(self, tmp_path):
        base = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
            lambda r: HaloPersistentApp(), timeout=60
        )
        ckdir = str(tmp_path / "ck")
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, ckpt_dir=ckdir,
                        loop_lag_window=2)
        job = Launcher(cfg).launch(lambda r: HaloPersistentApp())
        tk = job.checkpoint_at_iteration("main", 5, kind="loop", mode="exit")
        job.start()
        tk.wait(60)
        assert job.wait(60).status == "preempted"
        job2 = Launcher(cfg).restart(ckdir, impl_override="openmpi")
        res2 = job2.run(timeout=60)
        assert res2.status == "completed", res2.first_error()
        assert [a.history for a in res2.apps()] == [
            a.history for a in base.apps()
        ]


class InactiveInListsApp(MpiApplication):
    """Rank 0 mixes a never-started persistent receive ``P`` into
    any-of/all-of lists with an ordinary receive; rank 1 sends only
    after barriers that fix each outcome."""

    name = "inactive-in-lists"

    def __init__(self):
        self.seen = {}

    def run(self, ctx):
        MPI = ctx.MPI
        w, D = MPI.COMM_WORLD, MPI.DOUBLE
        if ctx.rank == 1:
            MPI.barrier(w)
            MPI.send(np.array([7.0]), 1, D, 0, 5, w)
            MPI.send(np.array([8.0]), 1, D, 0, 6, w)
            MPI.barrier(w)
            return
        seen = self.seen
        buf = np.zeros(1)
        p = MPI.recv_init(np.zeros(1), 1, D, 1, 9, w)
        r = MPI.irecv(buf, 1, D, 1, 5, w)
        seen["testany before the send"] = MPI.testany([p, r])[:2]
        MPI.barrier(w)
        i, st = MPI.waitany([p, r])
        seen["waitany"] = (i, st.tag, float(buf[0]))
        r = MPI.irecv(buf, 1, D, 1, 6, w)
        MPI.barrier(w)
        flag, sts = MPI.testall([p, r])
        seen["testall after the send"] = (flag, [s.tag for s in sts])
        seen["testany, none active"] = MPI.testany([p])
        seen["testany, empty"] = MPI.testany([])
        seen["waitany, none active"] = MPI.waitany([p])
        seen["waitany, empty"] = MPI.waitany([])
        MPI.request_free(p)


class TestInactiveInLists:
    """MPI-3.1 §3.7.5: inactive handles in an any-of/all-of list are
    ignored; with no active handle at all, waitany returns
    ``MPI_UNDEFINED`` and testany returns flag true with it."""

    @pytest.mark.parametrize("mana", [False, True], ids=["native", "mana"])
    def test_inactive_persistent_requests_are_ignored(self, impl_name, mana):
        res = Launcher(JobConfig(nranks=2, impl=impl_name, mana=mana)).run(
            lambda r: InactiveInListsApp(), timeout=60
        )
        assert res.status == "completed", res.first_error()
        undefined, empty = MPI_UNDEFINED, Status()
        assert res.apps()[0].seen == {
            "testany before the send": (False, undefined),
            "waitany": (1, 5, 7.0),
            "testall after the send": (True, [empty.tag, 6]),
            "testany, none active": (True, undefined, empty),
            "testany, empty": (True, undefined, empty),
            "waitany, none active": (undefined, empty),
            "waitany, empty": (undefined, empty),
        }

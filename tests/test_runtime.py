"""Runtime tests: launcher, job lifecycle, context, platforms."""

import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.apps import APP_CLASSES
from repro.runtime.platforms import cost_model_for
from repro.util.errors import ReproError
from tests.miniapps import RingApp


class FailingApp(MpiApplication):
    def __init__(self, fail_rank=1):
        self.fail_rank = fail_rank

    def run(self, ctx):
        MPI = ctx.MPI
        for it in ctx.loop("main", 10):
            if ctx.rank == self.fail_rank and it == 3:
                raise RuntimeError("injected failure")
            MPI.barrier(MPI.COMM_WORLD)


class ComputeOnly(MpiApplication):
    def __init__(self, per_iter=0.5, iters=4):
        self.per_iter = per_iter
        self.iters = iters

    def run(self, ctx):
        for _ in ctx.loop("main", self.iters):
            ctx.compute(self.per_iter)


class TestJobLifecycle:
    def test_native_and_mana_complete(self):
        for mana in (False, True):
            res = Launcher(
                JobConfig(nranks=3, impl="mpich", mana=mana)
            ).run(lambda r: RingApp(6), timeout=60)
            assert res.status == "completed", res.first_error()
            assert len(res.ranks) == 3

    def test_app_factory_receives_rank(self):
        seen = []

        def factory(r):
            seen.append(r)
            return RingApp(4)

        res = Launcher(JobConfig(nranks=3, impl="mpich")).run(
            factory, timeout=60
        )
        assert res.status == "completed"
        assert sorted(seen) == [0, 1, 2]

    def test_rank_failure_fails_whole_job(self):
        res = Launcher(JobConfig(nranks=3, impl="mpich", mana=True)).run(
            lambda r: FailingApp(), timeout=60
        )
        assert res.status == "failed"
        assert "injected failure" in res.first_error()

    def test_native_failure_aborts_peers(self):
        res = Launcher(JobConfig(nranks=3, impl="mpich")).run(
            lambda r: FailingApp(), timeout=60
        )
        assert res.status == "failed"

    def test_double_start_rejected(self):
        job = Launcher(JobConfig(nranks=1, impl="mpich")).launch(
            lambda r: RingApp(2)
        )
        job.start()
        with pytest.raises(ReproError):
            job.start()
        job.wait(60)

    def test_checkpoint_on_native_job_rejected(self):
        job = Launcher(JobConfig(nranks=1, impl="mpich", mana=False)).launch(
            lambda r: RingApp(2)
        )
        with pytest.raises(ReproError, match="mana=True"):
            job.request_checkpoint()
        job.run(timeout=60)

    def test_factory_or_images_exclusive(self):
        from repro.runtime.launcher import Job

        with pytest.raises(ValueError):
            Job(JobConfig(nranks=1), app_factory=None, images=None)

    def test_ckpt_format_must_be_5(self):
        assert JobConfig(nranks=1, ckpt_format=5).ckpt_format == 5
        for bad in (3, 4, 6):
            with pytest.raises(ValueError, match="checkpoint format"):
                JobConfig(nranks=1, ckpt_format=bad)

    def test_epoch_is_not_configurable(self):
        with pytest.raises(TypeError, match="epoch"):
            JobConfig(nranks=1, epoch=1)

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError, match="unknown implementation"):
            Launcher(JobConfig(nranks=1, impl="fakempi")).run(
                lambda r: RingApp(1), timeout=30
            )

    def test_own_ckpt_dir_removed_unless_checkpointed(
            self, tmp_path, monkeypatch):
        """Given no ckpt_dir, a MANA job takes a temp dir, and gives it
        back unless a checkpoint in it can be restarted from."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        res = Launcher(JobConfig(nranks=2, impl="mpich", mana=True)).run(
            lambda r: RingApp(4), timeout=60
        )
        assert res.status == "completed", res.first_error()
        assert os.listdir(tmp_path) == []
        cfg = JobConfig(nranks=2, impl="mpich", mana=True)
        job = Launcher(cfg).launch(lambda r: RingApp(12))
        job.checkpoint_at_iteration("main", 2, kind="loop", mode="exit")
        assert job.run(timeout=60).status == "preempted"
        assert os.listdir(tmp_path) == [os.path.basename(cfg.ckpt_dir)]
        res = Launcher(cfg).restart(cfg.ckpt_dir).run(timeout=60)
        assert res.status == "completed", res.first_error()


    DEADLINE = 20.0

    @pytest.mark.parametrize("app_name, ckpt_at", [
        ("lammps", 3),   # with an in-session checkpoint
        ("hpcg", None),
    ])
    def test_jobs_finish_under_short_gil_slices(
        self, app_name, ckpt_at, tmp_path
    ):
        """No wait has a timeout that re-checks its condition: a lost
        wake-up hangs the job until the deadline fails it."""
        cls = APP_CLASSES[app_name]
        spec = replace(cls.paper_config(), nranks=8, blocks=8)
        job = Launcher(JobConfig(
            nranks=8, impl="mpich", mana=True, ckpt_dir=str(tmp_path),
        )).launch(lambda r: cls(spec))
        ticket = None
        if ckpt_at is not None:
            ticket = job.checkpoint_at_iteration(
                "main", ckpt_at, kind="in-session"
            )
        # Short GIL slices: more interleavings between a waiter's check
        # and its park, which is where a wakeup would be lost.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            t0 = time.monotonic()
            job.start()
            if ticket is not None:
                ticket.wait(self.DEADLINE)
            res = job.wait(self.DEADLINE)
        finally:
            sys.setswitchinterval(interval)
        assert res.status == "completed", res.first_error()
        assert time.monotonic() - t0 < self.DEADLINE


class TestJobResult:
    def test_runtime_is_slowest_rank(self):
        class Uneven(MpiApplication):
            def run(self, ctx):
                ctx.compute(1.0 * (ctx.rank + 1))

        res = Launcher(JobConfig(nranks=3, impl="mpich")).run(
            lambda r: Uneven(), timeout=60
        )
        assert res.runtime == pytest.approx(3.0, rel=0.01)

    def test_accounts_decompose_runtime(self):
        res = Launcher(JobConfig(nranks=2, impl="mpich", mana=True)).run(
            lambda r: RingApp(10), timeout=60
        )
        for r in res.ranks:
            total = sum(r.accounts.values())
            assert total == pytest.approx(r.runtime, rel=1e-6)

    def test_lib_call_counts_collected(self):
        res = Launcher(JobConfig(nranks=2, impl="mpich")).run(
            lambda r: RingApp(5), timeout=60
        )
        counts = res.ranks[0].lib_call_counts
        assert counts.get("send", 0) >= 5
        assert counts.get("recv", 0) >= 5


class TestContext:
    def test_loop_token_resumes(self):
        """ctx.loop skips completed iterations on re-entry."""
        from repro.runtime.context import RankContext
        from repro.simtime.clock import VirtualClock
        from repro.simtime.cost import CostModel

        ctx = RankContext(0, 1, None, VirtualClock(), CostModel.discovery())
        first = []
        for i in ctx.loop("L", 10):
            first.append(i)
            if i == 3:
                break
        # a break records iteration 3 as *incomplete* (resume re-runs it)
        assert ctx._loops["L"] == 3
        resumed = list(ctx.loop("L", 10))
        assert resumed == list(range(3, 10))
        assert ctx._loops["L"] == 10

    def test_nested_loops_tracked_separately(self):
        from repro.runtime.context import RankContext
        from repro.simtime.clock import VirtualClock
        from repro.simtime.cost import CostModel

        ctx = RankContext(0, 1, None, VirtualClock(), CostModel.discovery())
        pairs = [(i, j) for i in ctx.loop("outer", 2) for j in ctx.loop("inner", 2)]
        # inner loop completes during i=0 and stays exhausted: apps must
        # reset or uniquely name inner loops (documented behavior)
        assert pairs == [(0, 0), (0, 1)]

    def test_compute_advances_clock(self):
        res = Launcher(JobConfig(nranks=1, impl="mpich")).run(
            lambda r: ComputeOnly(0.25, 4), timeout=60
        )
        assert res.runtime == pytest.approx(1.0, rel=0.01)

    def test_perlmutter_faster_cpu(self):
        res_d = Launcher(
            JobConfig(nranks=1, impl="mpich", platform="discovery")
        ).run(lambda r: ComputeOnly(1.0, 2), timeout=60)
        res_p = Launcher(
            JobConfig(nranks=1, impl="craympi", platform="perlmutter")
        ).run(lambda r: ComputeOnly(1.0, 2), timeout=60)
        assert res_p.runtime < res_d.runtime


class TestPlatforms:
    def test_known_platforms(self):
        for impl in ("mpich", "openmpi", "exampi", "craympi"):
            cm = cost_model_for("discovery", impl)
            assert not cm.kernel.fsgsbase
        cm = cost_model_for("perlmutter", "craympi")
        assert cm.kernel.fsgsbase

    def test_openmpi_software_path_slower_on_discovery(self):
        m = cost_model_for("discovery", "mpich")
        o = cost_model_for("discovery", "openmpi")
        assert o.network.per_call_overhead > m.network.per_call_overhead
        assert o.network.latency > m.network.latency

    def test_unknown_platform_and_impl(self):
        with pytest.raises(ValueError, match="unknown platform"):
            cost_model_for("frontier", "mpich")
        with pytest.raises(ValueError, match="unknown implementation"):
            cost_model_for("discovery", "mvapich")

"""Integration: transparent checkpoint/restart across all implementations.

The contract under test: for any checkpoint kind/mode, the final
application state equals that of an uninterrupted run — no lost messages,
no duplicated work, all MPI objects semantically reconstructed.
"""

import threading

import numpy as np
import pytest

from repro import (
    CheckpointKind, CheckpointMode, JobConfig, Launcher, MpiApplication,
)
from repro.util.errors import CheckpointError
from tests.conftest import ALL_IMPLS
from tests.miniapps import PendingIrecvApp, RingApp, SkewedSendersApp

NRANKS = 4


def run_baseline(app_factory, impl, **cfg_kw):
    res = Launcher(
        JobConfig(nranks=NRANKS, impl=impl, mana=True, **cfg_kw)
    ).run(app_factory, timeout=120)
    assert res.status == "completed", res.first_error()
    return res


def run_with_checkpoint(app_factory, impl, at_iter, kind, mode, **cfg_kw):
    job = Launcher(
        JobConfig(nranks=NRANKS, impl=impl, mana=True, **cfg_kw)
    ).launch(app_factory)
    ticket = job.checkpoint_at_iteration("main", at_iter, kind=kind, mode=mode)
    job.start()
    info = ticket.wait(120)
    res = job.wait(120)
    return res, info


@pytest.mark.parametrize("impl", ALL_IMPLS)
@pytest.mark.parametrize("mode", [CheckpointMode.CONTINUE, CheckpointMode.RELAUNCH])
def test_in_session_checkpoint_preserves_results(impl, mode):
    base = run_baseline(lambda r: RingApp(30), impl)
    expect = [a.acc[0] for a in base.apps()]
    res, info = run_with_checkpoint(
        lambda r: RingApp(30), impl, 11, CheckpointKind.IN_SESSION, mode
    )
    assert res.status == "completed", res.first_error()
    assert [a.acc[0] for a in res.apps()] == expect
    assert info["generation"] == 1
    assert info["ckpt_time"] > 0


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_relaunch_rebinds_physical_ids(impl):
    """After a relaunch, the lower half is a NEW library instance; the
    app continues using its old virtual handles untouched."""
    job = Launcher(JobConfig(nranks=NRANKS, impl=impl, mana=True)).launch(
        lambda r: RingApp(24)
    )
    tk = job.checkpoint_at_iteration(
        "main", 8, kind=CheckpointKind.IN_SESSION, mode=CheckpointMode.RELAUNCH
    )
    job.start()
    tk.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    for mana in job.manas:
        assert mana.epoch == 1  # lower half was replaced exactly once


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_in_flight_messages_drained_and_replayed(impl):
    base = run_baseline(lambda r: SkewedSendersApp(20), impl)
    expect = [a.received for a in base.apps()]
    res, info = run_with_checkpoint(
        lambda r: SkewedSendersApp(20), impl, 7,
        CheckpointKind.IN_SESSION, CheckpointMode.RELAUNCH,
    )
    assert res.status == "completed", res.first_error()
    got = [a.received for a in res.apps()]
    assert got == expect
    for app in res.apps():
        assert app.validate(None) is None  # ordering preserved


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_pending_irecv_survives_relaunch(impl):
    res, _ = run_with_checkpoint(
        lambda r: PendingIrecvApp(24), impl, 9,
        CheckpointKind.IN_SESSION, CheckpointMode.RELAUNCH,
    )
    assert res.status == "completed", res.first_error()
    for app in res.apps():
        assert app.validate(None) is None


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_preempt_and_cold_restart(impl, tmp_path):
    base = run_baseline(lambda r: RingApp(26), impl)
    expect = [a.acc[0] for a in base.apps()]

    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl=impl, mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(26))
    tk = job.checkpoint_at_iteration(
        "main", 6, kind=CheckpointKind.LOOP, mode=CheckpointMode.EXIT
    )
    job.start()
    info = tk.wait(120)
    res = job.wait(120)
    assert res.status == "preempted"
    # Work done so far is bounded by the elected target iteration.
    assert all(len(a.trace) <= info["loop_target"] for a in res.apps())

    job2 = Launcher(cfg).restart(ckdir)
    res2 = job2.run(timeout=120)
    assert res2.status == "completed", res2.first_error()
    assert [a.acc[0] for a in res2.apps()] == expect


def test_multiple_checkpoints_same_run():
    base = run_baseline(lambda r: RingApp(36), "mpich")
    expect = [a.acc[0] for a in base.apps()]
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(36)
    )
    t1 = job.checkpoint_at_iteration("main", 6, mode=CheckpointMode.RELAUNCH)
    job.start()
    i1 = t1.wait(120)
    t2 = job.coordinator.checkpoint_at_iteration(
        "main", 20, mode=CheckpointMode.RELAUNCH
    )
    i2 = t2.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    assert (i1["generation"], i2["generation"]) == (1, 2)
    assert [a.acc[0] for a in res.apps()] == expect
    assert all(m.epoch == 2 for m in job.manas)


def test_restart_then_checkpoint_again(tmp_path):
    """Cold restart followed by another preemption and another restart."""
    base = run_baseline(lambda r: RingApp(30), "mpich")
    expect = [a.acc[0] for a in base.apps()]

    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(30))
    tk = job.checkpoint_at_iteration("main", 4, kind="loop", mode="exit")
    job.start()
    tk.wait(120)
    assert job.wait(120).status == "preempted"

    job2 = Launcher(cfg).restart(ckdir)
    tk2 = job2.coordinator.checkpoint_at_iteration(
        "main", 18, kind="loop", mode="exit"
    )
    job2.start()
    tk2.wait(120)
    assert job2.wait(120).status == "preempted"

    job3 = Launcher(cfg).restart(ckdir)  # latest generation
    res3 = job3.run(timeout=120)
    assert res3.status == "completed", res3.first_error()
    assert [a.acc[0] for a in res3.apps()] == expect


def test_in_session_image_not_cold_restartable(tmp_path):
    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(20))
    tk = job.checkpoint_at_iteration("main", 5, kind="in-session")
    job.start()
    tk.wait(120)
    assert job.wait(120).status == "completed"
    from repro.util.errors import RestartError

    with pytest.raises(RestartError, match="cold-restartable"):
        Launcher(cfg).restart(ckdir)


def test_loop_checkpoint_past_end_is_cancelled():
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(10)
    )
    # target = 9 + lag(8) = beyond the loop end -> must cancel, not hang
    tk = job.checkpoint_at_iteration("main", 9, kind="loop", mode="exit")
    job.start()
    with pytest.raises(CheckpointError, match="cancelled"):
        tk.wait(120)
    assert job.wait(120).status == "completed"


def test_checkpoint_after_completion_is_cancelled():
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(6)
    )
    res = job.start().wait(120)
    assert res.status == "completed"
    ticket = job.request_checkpoint()
    # the job already cancelled pending work at wait(); a fresh request
    # must fail fast at the next wait() rather than hang
    job.coordinator.cancel_pending("test cleanup")
    with pytest.raises(CheckpointError):
        ticket.wait(5)


def test_clock_includes_checkpoint_cost():
    base = run_baseline(lambda r: RingApp(20), "mpich")
    res, info = run_with_checkpoint(
        lambda r: RingApp(20), "mpich", 8,
        CheckpointKind.IN_SESSION, CheckpointMode.CONTINUE,
    )
    assert res.runtime >= base.runtime + info["ckpt_time"] * 0.9


def test_checkpoint_image_sizes_reported():
    res, info = run_with_checkpoint(
        lambda r: RingApp(20), "mpich", 8,
        CheckpointKind.IN_SESSION, CheckpointMode.CONTINUE,
    )
    assert len(info["bytes_per_rank"]) == NRANKS
    assert all(b > 100 for b in info["bytes_per_rank"])


class _StagedCollectiveApp(MpiApplication):
    """Calls one communicator-creating or collective wrapper after
    announcing it in ``stage``; ``result`` keeps what it computed."""

    def __init__(self, stage: str):
        self.stage = ""
        self._target = stage
        self.result = None

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        dup = MPI.comm_dup(w)
        group = MPI.comm_group(w)
        self.stage = self._target
        if self._target == "comm_create":
            sub = MPI.comm_create(dup, group)
            self.result = MPI.comm_size(sub)
            MPI.comm_free(sub)
        else:
            out = np.zeros(1)
            MPI.allreduce(np.array([ctx.rank + 1.0]), out, 1, MPI.DOUBLE,
                          MPI.SUM, dup)
            self.result = out[0]
        self.stage = ""
        MPI.group_free(group)
        MPI.comm_free(dup)


def _relaunch_inside_barrier(stage: str, impl: str, vid_design: str):
    """Arm an in-session RELAUNCH checkpoint the moment the first rank
    reaches ``stage``'s two-phase barrier: that rank detours into the
    round from inside the barrier, with the lower half rebuilt under it."""
    apps = []

    def factory(rank):
        apps.append(_StagedCollectiveApp(stage))
        return apps[-1]

    job = Launcher(
        JobConfig(nranks=2, impl=impl, mana=True, vid_design=vid_design)
    ).launch(factory)
    coord = job.coordinator
    barrier = coord.trivial_barrier
    tickets = []
    lock = threading.Lock()

    def arm_then_wait(comm_key, seq, rank, member_world_ranks, park_check):
        with lock:
            if not tickets and apps[rank].stage == stage:
                tickets.append(job.request_checkpoint(
                    kind=CheckpointKind.IN_SESSION,
                    mode=CheckpointMode.RELAUNCH,
                ))
        barrier(comm_key, seq, rank, member_world_ranks, park_check)

    coord.trivial_barrier = arm_then_wait
    res = job.start().wait(120)
    assert res.status == "completed", res.first_error()
    assert len(tickets) == 1 and tickets[0].wait(5)["generation"] == 1
    assert all(m.epoch == 1 for m in job.manas)
    return [a.result for a in res.apps()]


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_relaunch_inside_comm_create_barrier(impl):
    """The group handle is translated after the barrier, so comm_create
    hands the rebuilt library its own handle, not the old library's."""
    assert _relaunch_inside_barrier("comm_create", impl, "new") == [2, 2]


@pytest.mark.parametrize("impl", ["mpich", "craympi"])
def test_relaunch_inside_allreduce_barrier_legacy(impl):
    """Legacy lookups return entry copies; a collective must not use a
    physical id read before its barrier rebuilt the lower half."""
    assert _relaunch_inside_barrier("allreduce", impl, "legacy") == [3.0, 3.0]

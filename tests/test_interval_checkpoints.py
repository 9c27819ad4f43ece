"""Interval (periodic) checkpointing — production MANA's --ckpt-interval."""

import pytest

from repro import JobConfig, Launcher
from tests.miniapps import RingApp


def test_periodic_checkpoints_fire(tmp_path):
    ckdir = str(tmp_path / "ck")
    base = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
        lambda r: RingApp(30, compute=0.05), timeout=120
    )
    expect = [a.acc[0] for a in base.apps()]

    cfg = JobConfig(
        nranks=4, impl="mpich", mana=True, ckpt_dir=ckdir,
        ckpt_interval=0.4, loop_lag_window=2,
    )
    job = Launcher(cfg).launch(lambda r: RingApp(30, compute=0.05))
    res = job.run(timeout=120)
    assert res.status == "completed", res.first_error()
    # ~1.5s of app time at a 0.4s interval: several checkpoints fired.
    gens = job.store.generations()
    assert len(gens) >= 2, gens
    # every written generation has a ticket (one extra ticket may have
    # been armed near job end and cancelled)
    assert len(job.coordinator.interval_tickets) >= len(gens)
    # Results unchanged by the periodic interruptions.
    assert [a.acc[0] for a in res.apps()] == expect
    # Runtime includes the checkpoint costs.
    assert res.runtime > base.runtime


def test_interval_images_cold_restartable(tmp_path):
    ckdir = str(tmp_path / "ck")
    base = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).run(
        lambda r: RingApp(24, compute=0.05), timeout=120
    )
    expect = [a.acc[0] for a in base.apps()]

    cfg = JobConfig(
        nranks=4, impl="mpich", mana=True, ckpt_dir=ckdir,
        ckpt_interval=0.5, loop_lag_window=2,
    )
    job = Launcher(cfg).launch(lambda r: RingApp(24, compute=0.05))
    res = job.run(timeout=120)
    assert res.status == "completed", res.first_error()
    assert job.store.generations()

    # Restart from the latest periodic image: re-runs the tail of the
    # job, ending in the same state.
    job2 = Launcher(cfg).restart(ckdir)
    # disable further periodic checkpoints for a clean comparison
    job2.coordinator._interval = None
    res2 = job2.run(timeout=120)
    assert res2.status == "completed", res2.first_error()
    assert [a.acc[0] for a in res2.apps()] == expect


def test_invalid_interval_rejected():
    from repro.mana.coordinator import CheckpointCoordinator
    from repro.simtime.cost import FilesystemProfile

    c = CheckpointCoordinator(1, None, FilesystemProfile.discovery_nfsv3(),
                              loop_lag_window=4)
    with pytest.raises(ValueError):
        c.enable_interval_checkpoints(0)

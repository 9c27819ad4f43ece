"""Paper-scale rank counts: 27- and 56-rank jobs, with checkpoints.

Everything else in the suite runs at 2-8 ranks for speed; these tests
exercise the thread scaling, the 3x3x3 / 56-rank decompositions of
Table 1, and a full drain/replay at those sizes.
"""

from dataclasses import replace

import pytest

from repro import JobConfig, Launcher
from repro.apps import CoMDProxy, LammpsLJProxy
from repro.mpi import constants as C
from repro.mpi.api import constant_kind


def test_comd_27_ranks_native_and_mana():
    spec = replace(CoMDProxy.paper_config(), blocks=3)  # 27 ranks
    assert spec.nranks == 27
    nat = Launcher(JobConfig(nranks=27, impl="mpich")).run(
        lambda r: CoMDProxy(spec), timeout=240
    )
    assert nat.status == "completed", nat.first_error()
    man = Launcher(JobConfig(nranks=27, impl="mpich", mana=True)).run(
        lambda r: CoMDProxy(spec), timeout=240
    )
    assert man.status == "completed", man.first_error()
    assert [a.checksum for a in man.apps()] == [
        a.checksum for a in nat.apps()
    ]


def test_lammps_56_ranks_checkpoint_relaunch():
    spec = replace(LammpsLJProxy.paper_config(), blocks=4)  # 56 ranks
    assert spec.nranks == 56
    base = Launcher(JobConfig(nranks=56, impl="mpich", mana=True)).run(
        lambda r: LammpsLJProxy(spec), timeout=300
    )
    assert base.status == "completed", base.first_error()

    job = Launcher(JobConfig(nranks=56, impl="mpich", mana=True)).launch(
        lambda r: LammpsLJProxy(spec)
    )
    tk = job.checkpoint_at_iteration("main", 2, mode="relaunch")
    job.start()
    info = tk.wait(300)
    res = job.wait(300)
    assert res.status == "completed", res.first_error()
    assert len(info["bytes_per_rank"]) == 56
    assert [a.checksum for a in res.apps()] == [
        a.checksum for a in base.apps()
    ]


def test_constant_kind_covers_all_names():
    for name in C.ALL_CONSTANT_NAMES:
        assert constant_kind(name) is not None
    assert constant_kind("MPI_BOGUS") is None

"""ExaMPI's lazy, aliased constants under MANA (paper §4.3).

MPI_INT8_T and MPI_CHAR share one physical pointer in ExaMPI.  MANA must
(a) not require distinct physical ids for distinct constant names, and
(b) keep both names usable — including across a relaunch, where the lazy
constants materialize in a brand-new lower half on demand.  MANA must
also (c) resolve no constant the application did not touch, beyond the
few its own protocols use (``MANA_CONSTANTS``), and (d) record a named
datatype by the name the application used, so a descriptor is the same
on every implementation.
"""

import pickle

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.impls.exampi import ExaMpiLib
from repro.mana.virtid import VirtualIdTable
from repro.mpi.datatypes import NamedType, VectorType
from tests.conftest import ALL_IMPLS
from tests.miniapps import EntryPointsApp, UniformCollectivesApp
from tests.test_wrappers import CallEveryWrapperApp

#: The constants MANA resolves for itself, on top of those the
#: application touches; each row names the MANA code that asks for it.
MANA_CONSTANTS = {
    "MPI_COMM_WORLD": "the drain, replay's communicator splits, "
                      "allgather_blob and every communicator's "
                      "world-rank membership run on it",
    "MPI_BYTE": "the drain's and allgather_blob's payloads are bytes",
    "MPI_INT64_T": "the drain exchanges its per-peer message counts "
                   "as int64",
}


class AliasApp(MpiApplication):
    def __init__(self):
        self.ok_rounds = 0

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        peer = 1 - ctx.rank
        for it in ctx.loop("main", 10):
            # send as INT8_T, receive as CHAR (same layout, aliased ptr)
            if ctx.rank == 0:
                MPI.send(np.arange(4, dtype=np.int8), 4, MPI.INT8_T,
                         peer, 60, w)
                buf = np.zeros(4, dtype=np.int8)
                MPI.recv(buf, 4, MPI.CHAR, peer, 61, w)
                if buf.tolist() == [9, 8, 7, 6]:
                    self.ok_rounds += 1
            else:
                buf = np.zeros(4, dtype=np.int8)
                MPI.recv(buf, 4, MPI.CHAR, peer, 60, w)
                MPI.send(np.array([9, 8, 7, 6], dtype=np.int8), 4,
                         MPI.INT8_T, peer, 61, w)
                if buf.tolist() == [0, 1, 2, 3]:
                    self.ok_rounds += 1
            MPI.barrier(w)


def test_aliased_constants_work_under_mana():
    job = Launcher(JobConfig(nranks=2, impl="exampi", mana=True)).launch(
        lambda r: AliasApp()
    )
    res = job.run(timeout=60)
    assert res.status == "completed", res.first_error()
    assert all(a.ok_rounds == 10 for a in res.apps())
    # Distinct virtual ids for the aliased names...
    mana = job.manas[0]
    v_int8 = mana.vids.constant_vid("MPI_INT8_T")
    v_char = mana.vids.constant_vid("MPI_CHAR")
    assert v_int8 != v_char
    # ...bound to the SAME physical pointer.
    assert mana.vids.lookup(v_int8).phys == mana.vids.lookup(v_char).phys


def test_aliases_survive_relaunch():
    job = Launcher(JobConfig(nranks=2, impl="exampi", mana=True)).launch(
        lambda r: AliasApp()
    )
    tk = job.checkpoint_at_iteration("main", 4, mode="relaunch")
    job.start()
    tk.wait(60)
    res = job.wait(60)
    assert res.status == "completed", res.first_error()
    assert all(a.ok_rounds == 10 for a in res.apps())
    mana = job.manas[0]
    assert (
        mana.vids.lookup(mana.vids.constant_vid("MPI_INT8_T")).phys
        == mana.vids.lookup(mana.vids.constant_vid("MPI_CHAR")).phys
    )


def _int8_ids(job):
    """Run ``job``; rank 0's epoch and MPI_INT8_T's virtual and physical
    ids."""
    res = job.run(timeout=60)
    assert res.status == "completed", res.first_error()
    mana = job.manas[0]
    vid = mana.vids.constant_vid("MPI_INT8_T")
    return mana.epoch, VirtualIdTable.extract(vid), mana.vids.lookup(vid).phys


def test_virtual_ids_stable_while_lazy_pointers_move(tmp_path):
    """Across two sessions — a cold start and a cold restart from its
    checkpoint — the lazy physical pointers may differ, but the
    name-derived virtual ids are identical."""
    launcher = Launcher(JobConfig(nranks=2, impl="exampi", mana=True,
                                  ckpt_dir=str(tmp_path), loop_lag_window=2))
    job = launcher.launch(lambda r: AliasApp())
    job.checkpoint_at_iteration("main", 3, kind="loop")
    epoch_a, vid_a, phys_a = _int8_ids(job)
    epoch_b, vid_b, phys_b = _int8_ids(launcher.restart(str(tmp_path)))
    assert (epoch_a, epoch_b) == (0, 1)
    assert vid_a == vid_b           # virtual: stable by name
    # physical enum values of primitives are session-stable in ExaMPI
    # (the enum is part of its source); ops/groups pointers move instead.
    assert phys_a == phys_b


@pytest.fixture
def exampi_libs(monkeypatch):
    """Every ExaMPI library the test starts: native libraries and every
    lower half, the ones a relaunch or a restart replaces included."""
    libs = []
    create = ExaMpiLib._create_builtins

    def record(lib):
        libs.append(lib)
        create(lib)

    monkeypatch.setattr(ExaMpiLib, "_create_builtins", record)
    return libs


def _resolved(libs):
    """World rank -> every constant name one of ``libs`` resolved;
    empties ``libs`` for the next run."""
    out = {}
    for lib in libs:
        out.setdefault(lib.world_rank, set()).update(
            lib.resolved_constant_names())
    libs.clear()
    return out


def _assert_mana_adds_only_its_own(native, under_mana):
    assert set(under_mana) == set(native)
    for rank, names in under_mana.items():
        assert names <= native[rank] | set(MANA_CONSTANTS), (
            rank, sorted(names - native[rank]))


APPS = {
    "entry-points": (3, EntryPointsApp),
    "every-wrapper": (2, CallEveryWrapperApp),
    "uniform-collectives": (3, lambda: UniformCollectivesApp(False)),
}


@pytest.mark.parametrize("app", sorted(APPS))
def test_mana_resolves_no_constant_the_app_did_not(app, exampi_libs):
    nranks, make = APPS[app]
    resolved = []
    for mana in (False, True):
        res = Launcher(JobConfig(nranks=nranks, impl="exampi", mana=mana)) \
            .run(lambda r: make(), timeout=60)
        assert res.status == "completed", res.first_error()
        resolved.append(_resolved(exampi_libs))
    _assert_mana_adds_only_its_own(*resolved)


@pytest.mark.parametrize("restart", ["relaunch", "cold"])
def test_restarts_resolve_no_constant_the_app_did_not(
        restart, exampi_libs, tmp_path):
    res = Launcher(JobConfig(nranks=2, impl="exampi")).run(
        lambda r: AliasApp(), timeout=60)
    assert res.status == "completed", res.first_error()
    native = _resolved(exampi_libs)

    cfg = JobConfig(nranks=2, impl="exampi", mana=True,
                    ckpt_dir=str(tmp_path), loop_lag_window=2)
    job = Launcher(cfg).launch(lambda r: AliasApp())
    mode = "relaunch" if restart == "relaunch" else "exit"
    tk = job.checkpoint_at_iteration("main", 3, kind="loop", mode=mode)
    job.start()
    tk.wait(60)
    res = job.wait(60)
    if restart == "cold":
        assert res.status == "preempted"
        res = Launcher(cfg).restart(cfg.ckpt_dir).run(timeout=60)
    assert res.status == "completed", res.first_error()
    assert all(a.ok_rounds == 10 for a in res.apps())
    assert len(exampi_libs) == 4  # each rank's lower half, then its new one
    _assert_mana_adds_only_its_own(native, _resolved(exampi_libs))


class Int8VectorApp(MpiApplication):
    """Two ranks swap a ``type_vector(2, 1, 2, MPI_INT8_T)`` element of
    a three-byte buffer once per iteration; ``got`` holds what each
    iteration received."""

    def setup(self, ctx):
        MPI = ctx.MPI
        self.vec = MPI.type_vector(2, 1, 2, MPI.INT8_T)
        MPI.type_commit(self.vec)
        self.got = []

    def run(self, ctx):
        MPI = ctx.MPI
        peer = 1 - ctx.rank
        for it in ctx.loop("main", 6):
            out = np.arange(3, dtype=np.int8) + 10 * ctx.rank + it
            buf = np.full(3, -1, dtype=np.int8)
            MPI.sendrecv(out, 1, self.vec, peer, 7,
                         buf, 1, self.vec, peer, 7, MPI.COMM_WORLD)
            self.got.append(buf.tolist())


INT8_VECTOR = VectorType(2, 1, 2, NamedType("MPI_INT8_T", "i1"))


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_int8_vector_records_one_descriptor(impl, tmp_path):
    """A committed vector of MPI_INT8_T records the same descriptor
    bytes on every implementation — ExaMPI's pointer, shared with
    MPI_CHAR, does not rename it — and restores on another one."""
    def descriptors(job, apps):
        return [pickle.dumps(mana.vids.lookup(app.vec).record.descriptor)
                for mana, app in zip(job.manas, apps)]

    cfg = JobConfig(nranks=2, impl=impl, mana=True,
                    ckpt_dir=str(tmp_path), loop_lag_window=2)
    job = Launcher(cfg).launch(lambda r: Int8VectorApp())
    tk = job.checkpoint_at_iteration("main", 1, kind="loop", mode="exit")
    job.start()
    tk.wait(60)
    res = job.wait(60)
    assert res.status == "preempted"
    assert descriptors(job, res.apps()) == [pickle.dumps(INT8_VECTOR)] * 2

    other = "mpich" if impl == "exampi" else "exampi"
    job = Launcher(cfg).restart(cfg.ckpt_dir, impl_override=other)
    res = job.run(timeout=60)
    assert res.status == "completed", res.first_error()
    assert descriptors(job, res.apps()) == [pickle.dumps(INT8_VECTOR)] * 2
    for rank, app in enumerate(res.apps()):
        peer = 10 * (1 - rank)
        assert app.got == [[peer + it, -1, peer + it + 2] for it in range(6)]

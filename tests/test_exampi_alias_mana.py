"""ExaMPI constant aliasing under MANA (paper §4.3).

MPI_INT8_T and MPI_CHAR share one physical pointer in ExaMPI.  MANA must
(a) not require distinct physical ids for distinct constant names, and
(b) keep both names usable — including across a relaunch, where the lazy
constants materialize in a brand-new lower half on demand.
"""

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.mana.virtid import VirtualIdTable


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

"""Native and MANA runs of one application see the same values.

``tests.miniapps.EntryPointsApp`` calls the MPI entry points that no
other test reaches (``initialized``/``finalized``/``wtime``,
``comm_rank``, ``cart_rank``, ``get_count``, ``type_dup``,
``type_get_contents``, the keyval and attribute calls, ``MINLOC``), and
``get_processor_name``, which no other test calls on Cray MPI.  It
runs natively and under MANA on every implementation, with the legacy
virtual-id design too where it can run (32-bit handles: MPICH and Cray
MPI); every value each rank sees must be equal.  Refused calls compare
by exception and MPI error class, not message: keyvals are opaque, and
native and MANA number them differently.

``tests.miniapps.UniformCollectivesApp`` runs gather, scatter and
alltoall of a gapped vector type and, in a second job, their v-forms at
uniform counts, natively and under MANA on every implementation that
has the v-forms: the receive buffers must be byte-equal, the holes
untouched, and the virtual clocks equal.

``tests.miniapps.DrainedRestartApp`` receives two messages that a LOOP
checkpoint drained, after a cold restart under the same or another
implementation: ``irecv`` and a persistent ``start`` are served from
MANA's drain buffer and must deliver what a native run delivers.
"""

import numpy as np
import pytest

from repro import JobConfig, Launcher
from tests.conftest import ALL_IMPLS
from tests.miniapps import (
    DrainedRestartApp,
    EntryPointsApp,
    UniformCollectivesApp,
)

REFUSED = ["UnsupportedFunctionError", "MPI_ERR_UNSUPPORTED_OPERATION"]


def seen(**config):
    res = Launcher(JobConfig(**config)).run(lambda r: EntryPointsApp(),
                                           timeout=60)
    assert res.status == "completed", res.first_error()
    return [app.seen for app in res.apps()]


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_entry_points_agree(impl):
    native = seen(nranks=3, impl=impl)
    designs = ("new", "legacy") if impl in ("mpich", "craympi") else ("new",)
    for design in designs:
        assert seen(nranks=3, impl=impl, mana=True, vid_design=design) \
            == native, design
    # What the app saw is right, not merely the same twice.
    rank1 = native[1]
    # Every implementation names the node comm_split_type(SHARED) uses.
    assert rank1[0] == [True, False, "node000"]
    assert rank1[1] == [1, 1]
    assert native[0][1] == [0, 2]
    assert ["MpiError", "MPI_ERR_KEYVAL"] in rank1
    assert rank1[-2:] == [[1.0, 1], True]
    if impl == "exampi":
        assert rank1.count(REFUSED) == 2
    else:
        assert REFUSED not in rank1
        assert rank1[2] == [2, 0, 1, 2, 0]
        assert rank1[4] == [0, 2, 16, [0.0, 0.0, 2.0, 0.0]]


def _uniform_collectives(v_form, **config):
    res = Launcher(JobConfig(nranks=3, **config)).run(
        lambda r: UniformCollectivesApp(v_form), timeout=60
    )
    assert res.status == "completed", res.first_error()
    return [app.seen for app in res.apps()]


def _expected_uniform(rank, n=3):
    """What ``UniformCollectivesApp`` must receive on ``rank``: every
    rank sends ``arange + 100 * rank``; a vector element keeps doubles 0
    and 3 of every 4, the holes keep ``GAP``."""
    w = 4 * UniformCollectivesApp.K  # doubles per rank's block
    j = np.arange(w, dtype=np.float64)
    gap = np.isin(np.arange(w) % 4, (1, 2))
    root = UniformCollectivesApp.ROOT

    def block(values):
        return np.where(gap, UniformCollectivesApp.GAP, values)

    gather = (np.concatenate([block(100 * i + j) for i in range(n)])
              if rank == root else np.full(n * w, UniformCollectivesApp.GAP))
    scatter = block(100 * root + rank * w + j)
    alltoall = np.concatenate([block(100 * i + rank * w + j)
                               for i in range(n)])
    return [gather, scatter, alltoall]


# ExaMPI provides none of the v-forms.
@pytest.mark.parametrize("impl", [i for i in ALL_IMPLS if i != "exampi"])
@pytest.mark.parametrize("mana", [False, True])
def test_uniform_collectives_match_their_v_forms(impl, mana):
    """gather/scatter/alltoall of a gapped vector type receive the same
    bytes as their v-forms at uniform counts, leave the holes alone, and
    cost the same virtual time."""
    uniform = _uniform_collectives(False, impl=impl, mana=mana)
    v_form = _uniform_collectives(True, impl=impl, mana=mana)
    for rank, (u, v) in enumerate(zip(uniform, v_form)):
        for got, vgot, want in zip(u, v, _expected_uniform(rank)):
            assert got.tobytes() == vgot.tobytes() == want.tobytes()
        assert u[-1] == v[-1], f"rank {rank} virtual clocks differ"


def _native_drained(early):
    res = Launcher(JobConfig(nranks=2, impl="mpich")).run(
        lambda r: DrainedRestartApp(early), timeout=60)
    assert res.status == "completed", res.first_error()
    return res.apps()[0].seen


@pytest.mark.parametrize("early", [False, True], ids=["late", "early"])
@pytest.mark.parametrize("dst", ["mpich", "openmpi"])
def test_drained_messages_after_cold_restart(dst, early, tmp_path):
    cfg = JobConfig(nranks=2, impl="mpich", mana=True,
                    ckpt_dir=str(tmp_path / "ck"))
    job = Launcher(cfg).launch(lambda r: DrainedRestartApp(early))
    tk = job.checkpoint_at_iteration("main", 2, kind="loop", mode="exit")
    job.start()
    tk.wait(60)
    assert job.wait(60).status == "preempted"
    assert job.manas[0].drain_buffer  # the messages were drained

    res = Launcher(cfg).restart(cfg.ckpt_dir, impl_override=dst).run(
        timeout=60)
    assert res.status == "completed", res.first_error()
    got = res.apps()[0].seen
    assert got == _native_drained(early)
    # Both tests succeed on their first call, with rank 1's payloads.
    assert got == [[True, 1, 1, 8], [True, 1, 2, 8], [1.5, 2.5]]

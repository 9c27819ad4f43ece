"""Section 5 audit: MANA itself uses only the declared MPI subset.

The paper specifies three categories of MPI functions MANA requires of
any implementation:

1. message drain:  MPI_Iprobe, MPI_Recv, MPI_Test;
2. object decoding: MPI_Comm_group, MPI_Group_translate_ranks,
   MPI_Type_get_envelope, MPI_Type_get_contents;
3. MANA-internal communication: MPI_Send, MPI_Recv, MPI_Alltoall.

Restart replay additionally invokes the constructors of the objects
being rebuilt (Comm_split, Group_incl, Type_*, Op_create, Irecv) — the
calls whose *results* it is recreating.  This test runs real checkpoints
and restarts and asserts MANA's lower-half traffic stays inside that
envelope.
"""

import pytest

from repro import JobConfig, Launcher
from tests.conftest import ALL_IMPLS
from tests.miniapps import RingApp, SkewedSendersApp

#: §5's three categories.
CORE_SUBSET = {
    "iprobe", "recv", "test",                       # category 1
    "comm_group", "group_translate_ranks",          # category 2
    "type_get_envelope", "type_get_contents",
    "send", "alltoall", "probe",                    # category 3 (+probe)
    "group_size", "group_free",                     # group decode helpers
    "constant",                                     # mpi.h constant access
}

#: Constructors replay may call — one per object kind it rebuilds.
REPLAY_CONSTRUCTORS = {
    "comm_split", "comm_dup", "group_incl",
    "type_contiguous", "type_vector", "type_indexed",
    "type_create_struct", "type_commit", "type_free",
    "op_create", "irecv", "init", "barrier",
}

ALLOWED_DRAIN = CORE_SUBSET
ALLOWED_REPLAY = CORE_SUBSET | REPLAY_CONSTRUCTORS


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_drain_uses_only_core_subset(impl):
    job = Launcher(JobConfig(nranks=4, impl=impl, mana=True)).launch(
        lambda r: SkewedSendersApp(16)
    )
    tk = job.checkpoint_at_iteration("main", 6, mode="continue")
    job.start()
    tk.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    for mana in job.manas:
        used = set(mana.last_internal_calls)
        extra = used - ALLOWED_DRAIN
        assert not extra, (
            f"{impl}: MANA's drain used functions outside the §5 "
            f"subset: {sorted(extra)}"
        )


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_replay_uses_only_subset_plus_constructors(impl):
    job = Launcher(JobConfig(nranks=4, impl=impl, mana=True)).launch(
        lambda r: RingApp(20)
    )
    tk = job.checkpoint_at_iteration("main", 7, mode="relaunch")
    job.start()
    tk.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    for mana in job.manas:
        used = set(mana.last_internal_calls)
        extra = used - ALLOWED_REPLAY
        assert not extra, (
            f"{impl}: MANA's restart replay used functions outside the "
            f"allowed envelope: {sorted(extra)}"
        )


def test_drain_actually_used_the_required_functions():
    """Not vacuous: the drain really exercises Iprobe/Recv/Alltoall.  A
    LOOP round parks every rank at one iteration top, where rank 0 has
    always sent more than rank 1 has received."""
    job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
        lambda r: SkewedSendersApp(16)
    )
    tk = job.checkpoint_at_iteration("main", 6, kind="loop", mode="continue")
    job.start()
    tk.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    receiver = job.manas[1]  # rank 1 lags; messages were drained
    used = receiver.last_internal_calls
    assert used.get("alltoall", 0) >= 1   # count exchange
    assert used.get("iprobe", 0) >= 1     # pending-message detection
    assert used.get("recv", 0) >= 1       # the drain itself


def test_exampi_subset_covers_mana_requirements():
    """§5's conclusion: the subset sufficient for MANA must be inside
    what even the most restricted implementation (ExaMPI) provides."""
    from repro.impls.exampi import ExaMpiLib

    overlap = (CORE_SUBSET - {"constant"}) & ExaMpiLib.UNSUPPORTED
    assert not overlap

"""Odds and ends: gatherv/scatterv, comm_split_type, reduce errors,
fabric jitter, concurrent jobs in one process."""

import numpy as np
import pytest

from repro import JobConfig, Launcher
from repro.util.errors import MpiError
from tests.conftest import facade_world, run_ranks
from repro import MpiApplication
from tests.miniapps import RingApp


class NodeApp(MpiApplication):
    """Shared-memory-node communicator exercised across a relaunch."""

    def __init__(self):
        self.sizes = []

    def setup(self, ctx):
        MPI = ctx.MPI
        self.node = MPI.comm_split_type(
            MPI.COMM_WORLD, MPI.COMM_TYPE_SHARED, ctx.rank
        )

    def run(self, ctx):
        MPI = ctx.MPI
        for it in ctx.loop("main", 8):
            self.sizes.append(MPI.comm_size(self.node))
            MPI.barrier(self.node)


class TestGathervScatterv:
    def test_gatherv_variable_counts(self):
        _, mpi_for = facade_world(3, "mpich")

        def body(r):
            MPI = mpi_for(r)
            w = MPI.COMM_WORLD
            counts = [1, 2, 3]
            displs = [0, 2, 4]       # with a hole at index 1
            send = np.full(counts[r], float(r + 1))
            recv = np.full(7, -1.0)
            MPI.gatherv(send, counts[r], MPI.DOUBLE,
                        recv, counts, displs, MPI.DOUBLE, 0, w)
            return recv.tolist() if r == 0 else None

        got = run_ranks(3, body)[0]
        assert got == [1.0, -1.0, 2.0, 2.0, 3.0, 3.0, 3.0]

    def test_scatterv_variable_counts(self):
        _, mpi_for = facade_world(3, "mpich")

        def body(r):
            MPI = mpi_for(r)
            w = MPI.COMM_WORLD
            counts = [2, 1, 3]
            displs = [0, 2, 3]
            send = np.arange(6, dtype=np.float64) if r == 0 else np.zeros(6)
            recv = np.zeros(counts[r])
            MPI.scatterv(send, counts, displs, MPI.DOUBLE,
                         recv, counts[r], MPI.DOUBLE, 0, w)
            return recv.tolist()

        out = run_ranks(3, body)
        assert out == [[0.0, 1.0], [2.0], [3.0, 4.0, 5.0]]


class TestCommSplitType:
    def test_single_node_everyone_shares(self):
        _, mpi_for = facade_world(4, "mpich")

        def body(r):
            MPI = mpi_for(r)
            node = MPI.comm_split_type(MPI.COMM_WORLD,
                                       MPI.COMM_TYPE_SHARED, r)
            return MPI.comm_size(node), MPI.comm_rank(node)

        out = run_ranks(4, body)
        assert [o[0] for o in out] == [4] * 4  # 4 ranks < 56/node

    def test_unsupported_split_type(self):
        _, mpi_for = facade_world(1, "mpich")
        MPI = mpi_for(0)
        with pytest.raises(MpiError, match="split_type"):
            MPI.comm_split_type(MPI.COMM_WORLD, 999, 0)

    def test_under_mana_with_checkpoint(self):
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: NodeApp()
        )
        tk = job.checkpoint_at_iteration("main", 3, mode="relaunch")
        job.start()
        tk.wait(60)
        res = job.wait(60)
        assert res.status == "completed", res.first_error()
        assert all(set(a.sizes) == {4} for a in res.apps())


class TestReduceErrors:
    def test_reduce_on_gapped_derived_type_rejected(self):
        _, mpi_for = facade_world(1, "mpich")
        MPI = mpi_for(0)
        v = MPI.type_vector(2, 1, 3, MPI.DOUBLE)  # gapped
        MPI.type_commit(v)
        with pytest.raises(MpiError, match="reduction"):
            MPI.allreduce(np.zeros(8), np.zeros(8), 1, v, MPI.SUM,
                          MPI.COMM_SELF)

    def test_reduce_on_contiguous_derived_type_ok(self):
        _, mpi_for = facade_world(1, "mpich")
        MPI = mpi_for(0)
        c = MPI.type_contiguous(3, MPI.DOUBLE)
        MPI.type_commit(c)
        out = np.zeros(3)
        MPI.allreduce(np.arange(3.0), out, 1, c, MPI.SUM, MPI.COMM_SELF)
        assert out.tolist() == [0.0, 1.0, 2.0]


class TestConcurrentJobs:
    def test_two_jobs_isolated(self):
        """Two simulated jobs in one process must not share any state
        (separate fabrics, coordinators, virtual-id tables)."""
        job_a = Launcher(JobConfig(nranks=3, impl="mpich", mana=True)).launch(
            lambda r: RingApp(15)
        )
        job_b = Launcher(JobConfig(nranks=4, impl="openmpi", mana=True)).launch(
            lambda r: RingApp(15)
        )
        job_a.start()
        job_b.start()
        ra = job_a.wait(120)
        rb = job_b.wait(120)
        assert ra.status == "completed", ra.first_error()
        assert rb.status == "completed", rb.first_error()
        assert job_a.fabric is not job_b.fabric
        assert len(ra.ranks) == 3 and len(rb.ranks) == 4

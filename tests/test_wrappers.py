"""Wrapper-layer behavior: virtualization, accounting, facade semantics."""

import inspect
import json
import pathlib

import numpy as np
import pytest

from repro import JobConfig, Launcher, MpiApplication
from repro.impls.facade import FacadeBase, NativeFacade
from repro.mpi.api import (
    COLLECTIVE, COMM, DTYPE, MPI_FUNCTIONS, OP, SIGNATURES, BaseMpiLib,
)
from repro.mana.virtid import MANA_MAGIC, VirtualIdTable
from repro.util.errors import (
    IncompatibleHandleError, MpiError, UnsupportedFunctionError,
)
from tests.conftest import ALL_IMPLS, make_world
from tests.miniapps import RingApp, weighted_sum


class HandleWitness(MpiApplication):
    """Collects every handle the app ever sees, for leak checks."""

    name = "witness"

    def __init__(self):
        self.seen = {}

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        sub = MPI.comm_split(w, 0, ctx.rank)
        g = MPI.comm_group(w)
        t = MPI.type_contiguous(2, MPI.DOUBLE)
        MPI.type_commit(t)
        req = MPI.irecv(np.zeros(2), 2, MPI.DOUBLE, (ctx.rank + 1) % ctx.nranks, 1, w)
        MPI.send(np.zeros(2), 2, MPI.DOUBLE, (ctx.rank - 1) % ctx.nranks, 1, w)
        MPI.wait(req)
        self.seen = {
            "world": w, "sub": sub, "group": g, "dtype": t,
            "double": MPI.DOUBLE, "sum_op": MPI.SUM,
        }
        MPI.barrier(w)


class TestVirtualization:
    @pytest.mark.parametrize("impl", ALL_IMPLS)
    def test_app_never_sees_physical_ids(self, impl):
        job = Launcher(JobConfig(nranks=2, impl=impl, mana=True)).launch(
            lambda r: HandleWitness()
        )
        res = job.run(timeout=60)
        assert res.status == "completed", res.first_error()
        for rank, app in enumerate(res.apps()):
            mana = job.manas[rank]
            for name, vh in app.seen.items():
                vid = VirtualIdTable.extract(vh)
                # every handle decodes as a virtual id known to the table
                entry = mana.vids.lookup(vid)
                assert entry is not None, name
                if mana.lower.handles.handle_bits == 64:
                    assert (vh >> 32) == MANA_MAGIC

    def test_comm_world_vid_identical_on_all_ranks(self):
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: HandleWitness()
        )
        res = job.run(timeout=60)
        assert res.status == "completed", res.first_error()
        worlds = {a.seen["world"] for a in res.apps()}
        assert len(worlds) == 1  # ggid-derived: same vid everywhere

    def test_sub_comm_vid_identical_on_members(self):
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: HandleWitness()
        )
        res = job.run(timeout=60)
        subs = {a.seen["sub"] for a in res.apps()}
        assert len(subs) == 1

    def test_legacy_design_works_on_32bit_impls(self):
        for impl in ("mpich", "craympi"):
            res = Launcher(
                JobConfig(nranks=2, impl=impl, mana=True, vid_design="legacy")
            ).run(lambda r: RingApp(8), timeout=60)
            assert res.status == "completed", res.first_error()

    @pytest.mark.parametrize("impl", ["openmpi", "exampi"])
    def test_legacy_design_fails_on_pointer_impls(self, impl):
        res = Launcher(
            JobConfig(nranks=2, impl=impl, mana=True, vid_design="legacy")
        ).run(lambda r: RingApp(8), timeout=60)
        assert res.status == "failed"
        assert "IncompatibleHandleError" in res.first_error()


class TestAccounting:
    def test_cs_count_includes_call_weight(self):
        class Weighted(MpiApplication):
            def run(self, ctx):
                ctx.set_call_weight(100)
                ctx.MPI.barrier(ctx.MPI.COMM_WORLD)

        job = Launcher(JobConfig(nranks=2, impl="mpich", mana=True)).launch(
            lambda r: Weighted()
        )
        res = job.run(timeout=60)
        assert res.status == "completed", res.first_error()
        # barrier: 1 wrapped crossing + 1 extra internal call, both x100,
        # plus bootstrap/init/finalize small-weight calls.
        assert res.ranks[0].cs_count >= 200

    def test_native_run_has_zero_cs(self):
        res = Launcher(JobConfig(nranks=2, impl="mpich", mana=False)).run(
            lambda r: RingApp(5), timeout=60
        )
        assert res.status == "completed"
        assert res.total_cs == 0

    def test_mana_overhead_account_populated(self):
        res = Launcher(JobConfig(nranks=2, impl="mpich", mana=True)).run(
            lambda r: RingApp(10), timeout=60
        )
        assert res.status == "completed"
        assert all(r.accounts.get("mana-overhead", 0) > 0 for r in res.ranks)

    def test_legacy_vid_design_slower(self):
        """§6.1: the new design's lookup is cheaper per call."""
        def go(design):
            res = Launcher(
                JobConfig(nranks=2, impl="mpich", mana=True, vid_design=design)
            ).run(lambda r: RingApp(20, compute=0.0001), timeout=60)
            assert res.status == "completed", res.first_error()
            return res.runtime

        assert go("legacy") > go("new")

    def test_invalid_call_weight(self):
        class Bad(MpiApplication):
            def run(self, ctx):
                ctx.set_call_weight(0)

        res = Launcher(JobConfig(nranks=1, impl="mpich", mana=True)).run(
            lambda r: Bad(), timeout=60
        )
        assert res.status == "failed"
        assert "call weight" in res.first_error()


class CartApp(MpiApplication):
    def __init__(self):
        self.coords = []

    def run(self, ctx):
        MPI = ctx.MPI
        cart = MPI.cart_create(MPI.COMM_WORLD, [2, 2], [True, False])
        for it in ctx.loop("main", 12):
            self.coords.append(MPI.cart_coords(cart, ctx.rank))
            MPI.barrier(cart)


def _both_facades():
    from repro.mana.wrappers import ManaFacade

    job = Launcher(JobConfig(nranks=1, impl="mpich", mana=True)).launch(
        lambda r: HandleWitness()
    )
    job.run(timeout=60)
    return ManaFacade(job.manas[0]), NativeFacade(job.manas[0].lower)


class TestFacade:
    def test_mana_facade_surface_matches_native(self):
        for facade in _both_facades():
            for name in MPI_FUNCTIONS:
                assert callable(getattr(facade, name)), name

    def test_signature_rows_match_library_arity(self):
        from repro.mpi import collectives

        for name, sig in SIGNATURES.items():
            if sig.sync == COLLECTIVE:
                # The library passes the row's arguments but the comm, in
                # order, after (lib, comm) to the algorithm of its name.
                fn, skip = getattr(collectives, name), 2
                nargs = len(sig.args) - 1
            else:
                fn, skip = getattr(BaseMpiLib, name).__wrapped__, 1
                nargs = len(sig.args)
            params = list(inspect.signature(fn).parameters.values())[skip:]
            # A defaulted parameter (scan's ``inclusive``) is not the row's.
            required = [p for p in params if p.default is p.empty]
            assert nargs == len(required), name
            if sig.sync != COLLECTIVE:
                assert required == params, name

    def test_facades_expose_only_mpi_functions(self):
        # Any other name either half defines stays hidden (dims_create
        # and the scalar constants live on FacadeBase itself).
        from repro.mana.wrappers import ManaRank

        others = (
            {n for n in dir(BaseMpiLib) + dir(ManaRank) if n[0] != "_"}
            - MPI_FUNCTIONS - set(dir(FacadeBase))
        )
        assert "checkpoint_participate" in others
        for facade in _both_facades():
            for name in others:
                with pytest.raises(AttributeError):
                    getattr(facade, name)

    def test_null_handles_distinct_per_kind(self):
        job = Launcher(JobConfig(nranks=1, impl="mpich", mana=True)).launch(
            lambda r: HandleWitness()
        )
        res = job.run(timeout=60)
        assert res.status == "completed"
        mana = job.manas[0]
        from repro.mpi.api import HandleKind

        nulls = {k: mana.null_vhandle(k) for k in HandleKind.ALL}
        assert len(set(nulls.values())) == 5
        assert all(mana.is_null_vhandle(v) for v in nulls.values())

    def test_unknown_attr_raises(self):
        job = Launcher(JobConfig(nranks=1, impl="mpich", mana=True)).launch(
            lambda r: HandleWitness()
        )
        job.run(timeout=60)
        from repro.mana.wrappers import ManaFacade

        facade = ManaFacade(job.manas[0])
        with pytest.raises(AttributeError):
            facade.NOT_A_THING

    def test_unregistered_user_op_rejected_under_mana(self):
        class BadOp(MpiApplication):
            def run(self, ctx):
                ctx.MPI.op_create(lambda a, b: None, True)

        res = Launcher(JobConfig(nranks=1, impl="mpich", mana=True)).run(
            lambda r: BadOp(), timeout=60
        )
        assert res.status == "failed"
        assert "registered" in res.first_error()

    def test_cart_served_from_records(self):
        """Topology queries answered from MANA metadata keep working
        after a relaunch (where comm_split loses lib-level topology)."""
        job = Launcher(JobConfig(nranks=4, impl="mpich", mana=True)).launch(
            lambda r: CartApp()
        )
        tk = job.checkpoint_at_iteration("main", 5, mode="relaunch")
        job.start()
        tk.wait(60)
        res = job.wait(60)
        assert res.status == "completed", res.first_error()
        for app in res.apps():
            assert len(set(app.coords)) == 1  # stable across relaunch


class TestLowerHalfCollectives:
    """The library's collectives, called natively with bad arguments."""

    @pytest.mark.parametrize("impl", ["mpich", "openmpi", "exampi"])
    def test_comm_resolves_first_and_arity_is_checked(self, impl):
        lib = make_world(1, impl)[1](0)
        comm = lib.comm_dup(lib.constant("MPI_COMM_WORLD"))
        dtype = lib.type_contiguous(1, lib.constant("MPI_DOUBLE"))
        lib.comm_free(comm)
        lib.type_free(dtype)
        with pytest.raises(MpiError) as comm_error:
            lib.comm_size(comm)
        handles = {COMM: comm, DTYPE: dtype, OP: lib.constant("MPI_SUM")}
        for name, sig in SIGNATURES.items():
            if sig.sync != COLLECTIVE:
                continue
            fn = getattr(lib, name)
            args = [handles.get(kind) for kind in sig.args]
            if name in lib.UNSUPPORTED:
                bad_call = bad_arity = UnsupportedFunctionError
            else:
                bad_call, bad_arity = type(comm_error.value), TypeError
            with pytest.raises(bad_call) as got:
                fn(*args)
            if name not in lib.UNSUPPORTED:
                assert str(got.value) == str(comm_error.value), name
            with pytest.raises(bad_arity):
                fn(*args[:-1])


class CallEveryWrapperApp(MpiApplication):
    """Calls every table-driven wrapper at least once (and the
    communicator constructors), recording each failing call."""

    name = "every-wrapper"

    def __init__(self):
        self.errors = []

    def _try(self, name, fn, *args):
        try:
            return fn(*args)
        except MpiError as exc:
            self.errors.append([name, type(exc).__name__, str(exc)])
            return None

    def run(self, ctx):
        MPI = ctx.MPI
        w, r, n = MPI.COMM_WORLD, ctx.rank, ctx.nranks
        D = MPI.DOUBLE
        MPI.get_processor_name()
        MPI.comm_compare(w, w)
        dup = MPI.comm_dup(w)
        half = MPI.comm_split(w, r % 2, r)
        node = MPI.comm_split_type(w, MPI.COMM_TYPE_SHARED, r)
        g = MPI.comm_group(w)
        created = MPI.comm_create(dup, g)
        MPI.group_size(g)
        MPI.group_rank(g)
        g0 = MPI.group_incl(g, [0])
        g1 = MPI.group_excl(g, [0])
        gu = MPI.group_union(g0, g1)
        gi = MPI.group_intersection(g, g0)
        gd = MPI.group_difference(g, g0)
        MPI.group_translate_ranks(g0, [0], g)
        MPI.group_compare(gu, g)
        for h in (g0, g1, gu, gi, gd):
            MPI.group_free(h)
        t = MPI.type_contiguous(2, D)
        v = MPI.type_vector(2, 1, 2, D)
        ix = self._try("type_indexed", MPI.type_indexed, [1, 1], [0, 2], D)
        st = MPI.type_create_struct([1, 1], [0, 8], [MPI.INT, D])
        types = [h for h in (t, v, ix, st) if h is not None]
        for h in types:
            MPI.type_commit(h)
        MPI.type_size(t)
        MPI.type_get_extent(v)
        MPI.type_get_envelope(st)
        packed = np.zeros(64, np.uint8)
        MPI.pack(np.arange(2.0), 1, t, packed, 0)
        MPI.pack_size(1, t)
        MPI.unpack(packed, 0, np.zeros(2), 1, t)
        op = MPI.op_create(weighted_sum, True)
        x = np.arange(2 * n, dtype=float) + r
        y = np.zeros(2 * n)
        counts, displs = [2] * n, [2 * i for i in range(n)]
        MPI.barrier(w)
        MPI.bcast(x, 2, D, 0, dup)
        MPI.reduce(x, y, 2, D, MPI.SUM, 0, w)
        MPI.allreduce(x, y, 2, D, op, half)
        MPI.alltoall(x, 2, D, y, 2, D, w)
        self._try("alltoallv", MPI.alltoallv, x, counts, displs, D,
                  y, counts, displs, D, w)
        MPI.gather(x, 2, D, y, 2, D, 0, w)
        self._try("gatherv", MPI.gatherv, x, 2, D, y, counts, displs, D, 0, w)
        MPI.scatter(x, 2, D, y, 2, D, 0, w)
        self._try("scatterv", MPI.scatterv, x, counts, displs, D,
                  y, 2, D, 0, w)
        MPI.allgather(x, 2, D, y, 2, D, created)
        self._try("allgatherv", MPI.allgatherv, x, 2, D, y, counts, displs,
                  D, w)
        MPI.scan(x, y, 2, D, MPI.SUM, node)
        self._try("exscan", MPI.exscan, x, y, 2, D, MPI.SUM, w)
        self._try("reduce_scatter_block", MPI.reduce_scatter_block,
                  x, y, 2, D, MPI.SUM, w)
        for h in types:
            MPI.type_free(h)
        MPI.op_free(op)
        self._try("group_free", MPI.group_free, MPI.GROUP_EMPTY)
        self._try("type_free", MPI.type_free, D)
        self._try("op_free", MPI.op_free, MPI.SUM)
        MPI.group_free(g)
        for c in (created, node, half, dup):
            MPI.comm_free(c)


class AbortApp(MpiApplication):
    name = "abort"

    def run(self, ctx):
        ctx.MPI.abort(ctx.MPI.COMM_WORLD, 3)


GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_wrapper_calls.json").read_text()
)


class TestGoldenCallCounts:
    """The wrapper layer's oracle: per-rank call and crossing counts,
    virtual runtimes, the lower half's call counts and every failing
    call's error, pinned for each implementation and vid design.  A
    change to a wrapper that moves any of them shows up here."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_counts_unchanged(self, case):
        impl, what = case.split("/")
        abort = what == "abort"
        res = Launcher(JobConfig(
            nranks=1 if abort else 2, impl=impl, mana=True,
            vid_design="new" if abort else what,
        )).run(lambda r: AbortApp() if abort else CallEveryWrapperApp(),
               timeout=60)
        got = {
            "status": res.status,
            "error": (
                None if res.status == "completed"
                else res.first_error().strip().splitlines()[-1]
            ),
            "ranks": [
                {
                    "wrapped_calls": o.wrapped_calls,
                    "cs_count": o.cs_count,
                    "runtime": repr(o.runtime),
                    "lib_call_counts": dict(o.lib_call_counts),
                    "errors": getattr(o.app, "errors", None),
                }
                for o in res.ranks
            ],
        }
        assert got == GOLDEN[case]

"""Restart replay: datatype decode/rebuild and object reconstruction.

decode_datatype/create_datatype use only the §5 standard-call subset, so
they must work identically on every implementation.
"""

import time

import numpy as np
import pytest

from repro.mana.replay import allgather_blob, create_datatype, decode_datatype
from repro.mpi import datatypes as dt
from repro.mpi.api import HandleKind
from repro.mpi import constants as C
from tests.conftest import ALL_IMPLS, make_world, run_ranks


def named(lib):
    """A bare library's named-handle lookup over the few names these
    tests use (under MANA, the vid table's bound constants)."""
    table = {lib.constant(n): dt.NamedType(n, C.PREDEFINED_DATATYPES[n])
             for n in ("MPI_BYTE", "MPI_INT", "MPI_INT8_T", "MPI_DOUBLE")}
    return table.__getitem__


class TestDecodeDatatype:
    def test_named(self, impl_name):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        desc = decode_datatype(lib, lib.constant("MPI_DOUBLE"), named(lib))
        assert isinstance(desc, dt.NamedType)
        assert desc.np_dtype == np.dtype("f8")

    def test_vector(self, impl_name):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        h = lib.type_vector(3, 2, 5, lib.constant("MPI_INT"))
        desc = decode_datatype(lib, h, named(lib))
        assert desc == dt.VectorType(
            3, 2, 5, dt.NamedType("MPI_INT", "i4")
        )

    def test_nested_contiguous_of_vector(self, impl_name):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        inner = lib.type_vector(2, 1, 3, lib.constant("MPI_DOUBLE"))
        outer = lib.type_contiguous(4, inner)
        desc = decode_datatype(lib, outer, named(lib))
        expect = dt.ContiguousType(
            4, dt.VectorType(2, 1, 3, dt.NamedType("MPI_DOUBLE", "f8"))
        )
        assert desc == expect

    def test_struct(self, impl_name):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        h = lib.type_create_struct(
            [1, 2], [0, 8],
            [lib.constant("MPI_DOUBLE"), lib.constant("MPI_INT")],
        )
        desc = decode_datatype(lib, h, named(lib))
        assert isinstance(desc, dt.StructType)
        assert desc.byte_displacements == (0, 8)

    def test_decode_does_not_leak_handles(self, impl_name):
        """get_contents creates inner handles; decode must free them."""
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        inner = lib.type_vector(2, 1, 3, lib.constant("MPI_DOUBLE"))
        outer = lib.type_contiguous(4, inner)
        if impl_name in ("mpich", "craympi"):
            before = len(lib.handles._pages[HandleKind.DATATYPE].get(1, []) or [])
        decode_datatype(lib, outer, named(lib))
        # decoding twice must not error (stale/dangling handles would)
        decode_datatype(lib, outer, named(lib))

    def test_exampi_aliased_type_decodes(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        h = lib.constant("MPI_INT8_T")  # aliases MPI_CHAR
        desc = decode_datatype(lib, h, named(lib))
        assert desc.is_named()
        assert desc.np_dtype.itemsize == 1


class TestCreateDatatype:
    @pytest.mark.parametrize(
        "desc",
        [
            dt.ContiguousType(3, dt.NamedType("MPI_DOUBLE", "f8")),
            dt.VectorType(2, 2, 4, dt.NamedType("MPI_INT", "i4")),
            dt.StructType(
                [1, 1], [0, 8],
                [dt.NamedType("MPI_DOUBLE", "f8"), dt.NamedType("MPI_INT", "i4")],
            ),
            dt.ContiguousType(
                2, dt.VectorType(2, 1, 2, dt.NamedType("MPI_BYTE", "u1"))
            ),
        ],
    )
    def test_rebuild_then_decode_roundtrip(self, impl_name, desc):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        h = create_datatype(lib, desc)
        assert decode_datatype(lib, h, named(lib)) == desc

    def test_indexed_on_full_impls(self):
        desc = dt.IndexedType([1, 2], [0, 4], dt.NamedType("MPI_INT", "i4"))
        for impl in ("mpich", "openmpi", "craympi"):
            _, lib_for = make_world(1, impl)
            lib = lib_for(0)
            h = create_datatype(lib, desc)
            assert decode_datatype(lib, h, named(lib)) == desc

    @pytest.mark.parametrize("impl", ["mpich", "openmpi", "craympi"])
    def test_frees_every_temporary(self, impl):
        """One constructor call per derived node, one type_free per
        derived child: a struct of (DOUBLE, vector of a vector)."""
        D = dt.NamedType("MPI_DOUBLE", "f8")
        desc = dt.StructType(
            [1, 1], [0, 64], [D, dt.VectorType(2, 1, 3, dt.VectorType(2, 1, 2, D))]
        )
        _, lib_for = make_world(1, impl)
        lib = lib_for(0)
        before = dict(lib.call_counts)
        h = create_datatype(lib, desc)
        delta = {name: n - before.get(name, 0)
                 for name, n in lib.call_counts.items()
                 if n != before.get(name, 0)}
        assert delta == {"type_create_struct": 1, "type_vector": 2,
                         "type_free": 2}
        assert decode_datatype(lib, h, named(lib)) == desc

    def test_named_returns_constant(self, impl_name):
        _, lib_for = make_world(1, impl_name)
        lib = lib_for(0)
        h = create_datatype(lib, dt.NamedType("MPI_INT", "i4"))
        assert h == lib.constant("MPI_INT")


class TestAllgatherBlob:
    @pytest.mark.parametrize("nranks", [1, 2, 5])
    def test_gathers_in_rank_order(self, impl_name, nranks):
        _, lib_for = make_world(nranks, impl_name)

        def body(r):
            lib = lib_for(r)
            return allgather_blob(lib, {"rank": r, "data": list(range(r))})

        out = run_ranks(nranks, body)
        expect = [{"rank": r, "data": list(range(r))} for r in range(nranks)]
        assert all(o == expect for o in out)

    def test_rank_zero_clock_ignores_arrival_order(self):
        """Rank 0 takes the blobs in rank order, so its virtual clock —
        and every rank's, through the broadcast back — is the same
        whichever sender's message reaches it first in wall-clock."""
        def clocks(first):
            _, lib_for = make_world(3, "openmpi")

            def body(r):
                lib = lib_for(r)
                lib.clock.advance(1e-5 * r, "compute")   # offset clocks
                if r not in (0, first):
                    time.sleep(0.1)      # the other sender arrives later
                allgather_blob(lib, r)
                return lib.clock.now

            return run_ranks(3, body)

        assert clocks(first=1) == clocks(first=2)

    def test_large_objects(self):
        _, lib_for = make_world(3, "mpich")

        def body(r):
            lib = lib_for(r)
            return allgather_blob(lib, np.full(10_000, r))

        out = run_ranks(3, body)
        for gathered in out:
            for r, arr in enumerate(gathered):
                assert np.all(arr == r)

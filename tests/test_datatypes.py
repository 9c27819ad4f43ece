"""Datatype algebra: geometry, packing, envelopes, reconstruction.

These invariants carry MANA's restart correctness: a datatype decoded
via envelope/contents and rebuilt must pack identically.
"""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import constants as C
from repro.mpi.datatypes import (
    ContiguousType,
    IndexedType,
    NamedType,
    StructType,
    TypeDescriptor,
    VectorType,
    descriptor_from_contents,
    make_predefined_types,
)
from repro.util.errors import MpiError, TruncationError

DOUBLE = NamedType("MPI_DOUBLE", "f8")
INT = NamedType("MPI_INT", "i4")
BYTE = NamedType("MPI_BYTE", "u1")
INT16 = NamedType("MPI_INT16_T", C.PREDEFINED_DATATYPES["MPI_INT16_T"])


class TestNamedTypes:
    def test_all_predefined_construct(self):
        table = make_predefined_types()
        assert set(table) == set(C.PREDEFINED_DATATYPES)
        for t in table.values():
            assert t.size() == t.extent() > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(MpiError):
            NamedType("MPI_BOGUS", "f8")

    def test_pair_type_layout(self):
        di = NamedType("MPI_DOUBLE_INT", C.PREDEFINED_DATATYPES["MPI_DOUBLE_INT"])
        assert di.size() == 12  # unaligned f8 + i4

    def test_named_contents_is_erroneous(self):
        with pytest.raises(MpiError):
            DOUBLE.contents()

    def test_envelope_named(self):
        env = INT.envelope()
        assert env.combiner == C.COMBINER_NAMED
        assert (env.num_integers, env.num_addresses, env.num_datatypes) == (0, 0, 0)


class TestGeometry:
    def test_contiguous(self):
        t = ContiguousType(5, DOUBLE)
        assert t.size() == 40
        assert t.extent() == 40
        assert t.plan().dense

    def test_vector_gapped(self):
        t = VectorType(3, 2, 4, DOUBLE)  # 3 blocks of 2, stride 4
        assert t.size() == 6 * 8
        # span: last block starts at 8*4*2=64, covers 2 doubles -> 80
        assert t.extent() == (2 * 4 + 2) * 8
        assert not t.plan().dense

    def test_vector_stride_equal_blocklength_is_dense_sized(self):
        t = VectorType(4, 2, 2, DOUBLE)
        assert t.size() == t.extent() == 64

    def test_indexed(self):
        t = IndexedType([2, 1], [0, 5], INT)
        assert t.size() == 12
        assert t.extent() == 6 * 4

    def test_struct_mixed(self):
        t = StructType([2, 3], [0, 16], [DOUBLE, INT])
        assert t.size() == 2 * 8 + 3 * 4
        assert t.extent() == 16 + 3 * 4

    def test_empty_counts(self):
        assert ContiguousType(0, DOUBLE).size() == 0
        assert VectorType(0, 3, 4, INT).size() == 0
        assert IndexedType([], [], INT).size() == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(MpiError):
            ContiguousType(-1, DOUBLE)
        with pytest.raises(MpiError):
            VectorType(-1, 1, 1, INT)
        with pytest.raises(MpiError):
            IndexedType([-2], [0], INT)

    def test_mismatched_indexed_arrays(self):
        with pytest.raises(MpiError):
            IndexedType([1, 2], [0], INT)


class TestPacking:
    def test_contiguous_roundtrip(self):
        src = np.arange(10, dtype=np.float64)
        t = ContiguousType(10, DOUBLE)
        payload = t.pack(src, 1)
        dst = np.zeros(10)
        t.unpack(payload, dst, 1)
        assert np.array_equal(src, dst)

    def test_vector_selects_strided(self):
        src = np.arange(8, dtype=np.float64)
        t = VectorType(4, 1, 2, DOUBLE)
        payload = t.pack(src, 1)
        assert np.array_equal(
            np.frombuffer(payload, np.float64), src[::2]
        )

    def test_vector_unpack_scatters(self):
        t = VectorType(4, 1, 2, DOUBLE)
        payload = np.array([9.0, 8.0, 7.0, 6.0]).tobytes()
        dst = np.zeros(8)
        t.unpack(payload, dst, 1)
        assert np.array_equal(dst[::2], [9, 8, 7, 6])
        assert np.array_equal(dst[1::2], np.zeros(4))

    def test_indexed_roundtrip(self):
        src = np.arange(12, dtype=np.int32)
        t = IndexedType([2, 3], [1, 6], INT)
        payload = t.pack(src, 1)
        vals = np.frombuffer(payload, np.int32)
        assert list(vals) == [1, 2, 6, 7, 8]

    def test_struct_roundtrip(self):
        t = StructType([2, 2], [0, 16], [DOUBLE, INT])
        buf = np.zeros(24, dtype=np.uint8)
        buf[:16] = np.frombuffer(
            np.array([1.5, -2.5]).tobytes(), np.uint8
        )
        buf[16:24] = np.frombuffer(
            np.array([7, 9], dtype=np.int32).tobytes(), np.uint8
        )
        payload = t.pack(buf, 1)
        out = np.zeros(24, dtype=np.uint8)
        t.unpack(payload, out, 1)
        assert np.array_equal(out, buf)

    def test_multi_element_pack(self):
        src = np.arange(16, dtype=np.float64)
        t = VectorType(2, 1, 2, DOUBLE)  # extent 3 doubles? no: 2 blocks stride 2
        payload = t.pack(src, 2)
        vals = np.frombuffer(payload, np.float64)
        # element 0 -> indices 0,2 ; element 1 starts at extent boundary
        assert vals[0] == 0.0 and vals[1] == 2.0
        assert len(vals) == 4

    def test_pack_buffer_too_small(self):
        t = ContiguousType(100, DOUBLE)
        with pytest.raises(MpiError):
            t.pack(np.zeros(10), 1)

    def test_unpack_truncation(self):
        t = ContiguousType(2, DOUBLE)
        with pytest.raises(TruncationError):
            t.unpack(b"\0" * 100, np.zeros(64), 1)

    def test_unpack_partial_element(self):
        # MPI allows receiving fewer bytes than count*size.
        t = ContiguousType(4, DOUBLE)
        dst = np.zeros(4)
        consumed = t.unpack(np.array([5.0]).tobytes(), dst, 1)
        assert consumed == 8
        assert dst[0] == 5.0 and dst[1] == 0.0

    @pytest.mark.parametrize(
        "t",
        [
            VectorType(3, 2, 3, INT),
            IndexedType([2, 1, 3], [6, 0, 2], INT),
            StructType([1, 2, 1], [20, 0, 12], [DOUBLE, INT, INT16]),
        ],
        ids=repr,
    )
    def test_unpack_partial_element_noncontiguous(self, t):
        # Two full elements and part of a third land where the typemap
        # walk puts them; nothing else is written.
        nbytes = 2 * t.size() + t.size() // 2 + 1
        payload = bytes(range(1, nbytes + 1))
        dst = np.zeros(3 * t.extent() + 8, dtype=np.uint8)
        assert t.unpack(payload, dst, 3) == nbytes
        expected = np.zeros_like(dst)
        expected[_walk(t, 3)[:nbytes]] = np.frombuffer(payload, np.uint8)
        assert np.array_equal(dst, expected)

    def test_descending_struct_checks_largest_index(self):
        # The typemap's last byte is not its largest: the bounds check
        # must still refuse a buffer that misses the first field.
        t = StructType([1, 1], [8, 0], [DOUBLE, DOUBLE])
        with pytest.raises(MpiError) as err:
            t.pack(np.zeros(12, dtype=np.uint8), 1)
        assert err.value.error_class == "MPI_ERR_BUFFER"

    def test_descending_struct_unpack_checks_largest_index(self):
        t = StructType([1, 1], [8, 0], [DOUBLE, DOUBLE])
        with pytest.raises(MpiError) as err:
            t.unpack(bytes(16), np.zeros(12, dtype=np.uint8), 1)
        assert err.value.error_class == "MPI_ERR_BUFFER"

    def test_negative_lower_bound_refused_only_when_touched(self):
        t = StructType([1], [-8], [DOUBLE])
        assert t.pack(np.zeros(4), 0) == b""
        assert t.unpack(b"", np.zeros(4), 1) == 0
        with pytest.raises(MpiError) as err:
            t.pack(np.zeros(4), 1)
        assert err.value.error_class == "MPI_ERR_TYPE"

    @pytest.mark.parametrize(
        "t",
        [
            DOUBLE,
            ContiguousType(3, INT),
            VectorType(4096, 1, 2, DOUBLE),
            IndexedType([2, 1], [5, 0], INT),
            StructType([1, 1], [8, 0], [DOUBLE, INT]),
        ],
        ids=lambda t: type(t).__name__,
    )
    def test_pickle_excludes_pack_plan(self, t):
        # MANA pickles the upper half's descriptors into every image; the
        # compiled plan is derived data and must not ride along.
        before = pickle.dumps(t)
        buf = np.zeros(t.extent() * 2, dtype=np.uint8)
        t.unpack(t.pack(buf, 2), buf, 2)
        assert pickle.dumps(t) == before
        assert pickle.loads(before).pack(buf, 2) == t.pack(buf, 2)

    def test_first_pack_of_large_vector_is_fast(self):
        # Compiling a 262,144-block typemap must be numpy work, not a
        # Python loop per block (~30 ms against > 1 s on a 2-vCPU box).
        t = VectorType(262_144, 1, 2, DOUBLE)
        src = np.arange(2 * 262_144, dtype=np.float64)
        start = time.perf_counter()
        payload = t.pack(src, 1)
        assert time.perf_counter() - start < 0.5
        assert np.array_equal(np.frombuffer(payload, np.float64), src[::2])

    def test_noncontiguous_buffer_rejected(self):
        t = ContiguousType(2, DOUBLE)
        arr = np.zeros((4, 4))[:, 0]  # non-contiguous view
        with pytest.raises(MpiError, match="contiguous"):
            t.pack(arr, 1)

    def test_count_elements(self):
        t = ContiguousType(3, INT)
        assert t.count_elements(24) == 2
        assert t.count_elements(0) == 0
        assert t.count_elements(7) == C.UNDEFINED


class TestEnvelopeContents:
    def test_contiguous_roundtrip(self):
        t = ContiguousType(7, DOUBLE)
        env = t.envelope()
        assert env.combiner == C.COMBINER_CONTIGUOUS
        c = t.contents()
        rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
        assert rebuilt == t

    def test_nested_roundtrip(self):
        inner = VectorType(2, 3, 5, INT)
        t = ContiguousType(4, inner)
        c = t.contents()
        rebuilt = descriptor_from_contents(
            t.envelope().combiner, c.integers, c.addresses, c.datatypes
        )
        assert rebuilt == t
        assert rebuilt.signature() == t.signature()

    def test_struct_roundtrip(self):
        t = StructType([1, 2], [0, 8], [DOUBLE, INT])
        env = t.envelope()
        assert env.num_addresses == 2
        c = t.contents()
        rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
        assert rebuilt == t

    def test_indexed_contents_layout(self):
        t = IndexedType([2, 1], [0, 4], INT)
        c = t.contents()
        assert c.integers == (2, 2, 1, 0, 4)

    def test_signature_equality_is_structural(self):
        a = VectorType(2, 1, 3, NamedType("MPI_DOUBLE", "f8"))
        b = VectorType(2, 1, 3, NamedType("MPI_DOUBLE", "f8"))
        assert a == b and hash(a) == hash(b)
        assert a != VectorType(2, 1, 4, DOUBLE)


# ----------------------------------------------------------------------
# reference oracle: the typemap walked one data byte at a time
# ----------------------------------------------------------------------

def _typemap(t: TypeDescriptor) -> list:
    """Byte offsets of one element's data bytes, in typemap order."""
    if isinstance(t, NamedType):
        return list(range(t.size()))
    if isinstance(t, StructType):
        fields = zip(t.blocklengths, t.byte_displacements, t.bases)
        return [
            disp + j * base.extent() + off
            for bl, disp, base in fields
            for j in range(bl)
            for off in _typemap(base)
        ]
    if isinstance(t, ContiguousType):
        units = range(t.count)
    elif isinstance(t, VectorType):
        units = [
            i * t.stride + j
            for i in range(t.count)
            for j in range(t.blocklength)
        ]
    else:
        units = [
            disp + j
            for bl, disp in zip(t.blocklengths, t.displacements)
            for j in range(bl)
        ]
    inner = _typemap(t.base)
    return [u * t.base.extent() + off for u in units for off in inner]


def _walk(t: TypeDescriptor, count: int) -> list:
    """Buffer offsets of ``count`` consecutive elements' data bytes."""
    one = _typemap(t)
    return [e * t.extent() + off for e in range(count) for off in one]


# ----------------------------------------------------------------------
# property-based: arbitrary descriptor trees survive decode/rebuild and
# pack/unpack roundtrips, and pack/unpack agree with the oracle
# ----------------------------------------------------------------------

_named = st.sampled_from(
    [NamedType(n, C.PREDEFINED_DATATYPES[n])
     for n in ("MPI_DOUBLE", "MPI_INT", "MPI_BYTE", "MPI_INT16_T")]
)


def _derived(children):
    # Counts and blocklengths may be zero; indexed and struct
    # displacements come in any order (descending, overlapping).
    return st.one_of(
        st.builds(ContiguousType, st.integers(0, 4), children),
        st.builds(
            VectorType,
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(1, 5),
            children,
        ),
        st.builds(
            lambda blocks, base: IndexedType(
                [bl for bl, _ in blocks], [d for _, d in blocks], base
            ),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 8)), max_size=3
            ),
            children,
        ),
        st.builds(
            lambda fields: StructType(
                [bl for bl, _, _ in fields],
                [d for _, d, _ in fields],
                [base for _, _, base in fields],
            ),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 48), children),
                max_size=3,
            ),
        ),
    )


type_trees = st.recursive(_named, _derived, max_leaves=6)


@given(type_trees)
@settings(max_examples=60, deadline=None)
def test_property_contents_roundtrip(t: TypeDescriptor):
    if t.is_named():
        return
    env = t.envelope()
    c = t.contents()
    rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
    assert rebuilt == t


@given(type_trees, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_property_pack_unpack_roundtrip(t: TypeDescriptor, count: int):
    span = max(_walk(t, count), default=-1) + 17
    rng = np.random.default_rng(0)
    src = rng.integers(0, 255, size=span, dtype=np.uint8) + 1
    payload = t.pack(src, count)
    assert len(payload) == count * t.size()
    dst = np.zeros(span, dtype=np.uint8)
    t.unpack(payload, dst, count)
    # Every byte the typemap touches must have been copied verbatim.
    payload2 = t.pack(dst, count)
    assert payload2 == payload


@given(type_trees, st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_property_pack_unpack_match_oracle(t: TypeDescriptor, count, data):
    offsets = _walk(t, count)
    span = max(offsets, default=-1) + 1
    src = (np.arange(span + 4) % 251 + 1).astype(np.uint8)
    assert t.pack(src, count) == src[offsets].tobytes()
    if offsets:
        # A buffer that stops one byte short of the largest offset is
        # refused, wherever that offset sits in the typemap.
        with pytest.raises(MpiError) as err:
            t.pack(src[: span - 1], count)
        assert err.value.error_class == "MPI_ERR_BUFFER"

    # unpack of any prefix writes exactly the oracle's positions (a
    # position the typemap names twice holds one of its bytes).
    nbytes = data.draw(st.integers(0, len(offsets)), label="nbytes")
    payload = (np.arange(nbytes) % 251 + 1).astype(np.uint8)
    dst = np.zeros(span + 4, dtype=np.uint8)
    assert t.unpack(payload.tobytes(), dst, count) == nbytes
    allowed = {}
    for pos, val in zip(offsets, payload):
        allowed.setdefault(pos, set()).add(val)
    for pos, val in enumerate(dst):
        assert val in allowed.get(pos, {0})

"""Datatype algebra: typemaps, envelopes/contents, and packing.

Every simulated implementation shares this algebra; what differs across
implementations is only how a *handle* names one of these descriptors
(32-bit MPICH id, Open MPI pointer, ExaMPI enum).

The envelope/contents protocol (``MPI_Type_get_envelope`` /
``MPI_Type_get_contents``) is implemented exactly as MANA needs it:
a derived type can be decoded recursively down to named types, which is
how MANA reconstructs user datatypes at restart (paper §5, category 2).

Packing is vectorized: on its first ``pack``/``unpack`` a descriptor
compiles, in numpy and without a Python loop per block, into one
:class:`PackPlan` (dense flag, size, extent, and the byte index of every
data byte of one element).  Descriptors are immutable, so the plan is
kept for their lifetime; it is never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi import constants as C
from repro.util.errors import MpiError, TruncationError


@dataclass(frozen=True)
class Envelope:
    """Result of ``MPI_Type_get_envelope``."""

    combiner: str
    num_integers: int
    num_addresses: int
    num_datatypes: int


@dataclass(frozen=True)
class Contents:
    """Result of ``MPI_Type_get_contents``.

    ``datatypes`` holds *descriptors*, not handles; the library layer
    translates them to handles of its own representation.
    """

    integers: Tuple[int, ...]
    addresses: Tuple[int, ...]
    datatypes: Tuple["TypeDescriptor", ...]


@dataclass(frozen=True, eq=False)
class PackPlan:
    """One descriptor's typemap, compiled for packing.

    ``index`` holds the byte offset of every data byte of one element, in
    typemap order; it is empty when ``dense`` (packing is then a slice).
    ``low``/``top`` are its smallest and largest entries.
    """

    dense: bool
    size: int
    extent: int
    index: np.ndarray
    low: int
    top: int

    def touched(self, nbytes: int) -> Tuple[Union[slice, np.ndarray], int]:
        """Where the first ``nbytes`` data bytes of consecutive elements
        lie in the caller's buffer (element ``e`` starts at
        ``e * extent``): an index for ``raw[...]``, and the largest
        buffer index it reaches."""
        if self.dense:
            return slice(0, nbytes), nbytes - 1
        if nbytes <= 0:
            return self.index[:0], -1
        # Types whose typemap reaches below the buffer origin cannot be
        # addressed in the flat-array model.
        if self.low < 0:
            raise MpiError(
                "types with a negative lower bound are not supported by "
                "the simulated buffers",
                error_class="MPI_ERR_TYPE",
            )
        full, part = divmod(nbytes, self.size)
        if full == 1:
            idx = self.index
        else:
            starts = np.arange(full, dtype=np.int64) * self.extent
            idx = (starts[:, None] + self.index[None, :]).reshape(-1)
        # A type with data never has a negative extent, so the last full
        # element holds the largest index.
        largest = self.top + (full - 1) * self.extent if full else -1
        if part:
            tail = self.index[:part] + full * self.extent
            idx = np.concatenate([idx, tail])
            largest = max(largest, int(tail.max()))
        return idx, largest


class TypeDescriptor:
    """Abstract base of the datatype algebra."""

    # Compiled on first use (descriptors are immutable after construction).
    _compiled: Optional[PackPlan] = None

    def plan(self) -> PackPlan:
        """The descriptor's :class:`PackPlan`, compiled once."""
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled

    def __getstate__(self) -> dict:
        # The plan is derived data: MANA pickles descriptors into images.
        state = self.__dict__.copy()
        state.pop("_compiled", None)
        return state

    # -- geometry -------------------------------------------------------
    def size(self) -> int:
        """Bytes of actual data in one element (MPI_Type_size)."""
        raise NotImplementedError

    def extent(self) -> int:
        """Span from lower to upper bound (MPI_Type_get_extent)."""
        return self.upper_bound() - self.lower_bound()

    def lower_bound(self) -> int:
        raise NotImplementedError

    def upper_bound(self) -> int:
        raise NotImplementedError

    # -- introspection ---------------------------------------------------
    def envelope(self) -> Envelope:
        raise NotImplementedError

    def contents(self) -> Contents:
        raise NotImplementedError

    def is_named(self) -> bool:
        return isinstance(self, NamedType)

    # -- packing ----------------------------------------------------------
    def blocks(self) -> np.ndarray:
        """``(nblocks, 2)`` int64 array of (byte offset, byte length) for
        one element, offsets relative to the element origin (may be
        negative for exotic strides; callers use lower_bound)."""
        raise NotImplementedError

    def pack(self, buf: np.ndarray, count: int) -> bytes:
        """Gather ``count`` elements from ``buf`` into contiguous bytes."""
        raw = _as_bytes(buf)
        plan = self.plan()
        idx, largest = plan.touched(count * plan.size)
        if largest >= raw.size:
            raise MpiError(
                f"pack: buffer of {raw.size} bytes too small for "
                f"{count} x {self!r}",
                error_class="MPI_ERR_BUFFER",
            )
        return raw[idx].tobytes()

    def unpack(self, payload: bytes, buf: np.ndarray, count: int) -> int:
        """Scatter packed bytes into ``buf``; returns bytes consumed.

        Raises :class:`TruncationError` if the payload holds more data
        than ``count`` elements of this type can absorb.
        """
        raw = _as_bytes(buf)
        plan = self.plan()
        nbytes = len(payload)
        if nbytes > plan.size * count:
            raise TruncationError(
                f"message of {nbytes} bytes truncated: receive "
                f"buffer holds {count} x {plan.size} bytes"
            )
        idx, largest = plan.touched(nbytes)
        if largest >= raw.size:
            raise MpiError(
                f"unpack: buffer of {raw.size} bytes too small",
                error_class="MPI_ERR_BUFFER",
            )
        raw[idx] = np.frombuffer(payload, dtype=np.uint8)
        return nbytes

    def count_elements(self, nbytes: int) -> int:
        """MPI_Get_count: elements in ``nbytes``; raises if not integral."""
        sz = self.size()
        if sz == 0:
            return 0
        if nbytes % sz:
            return C.UNDEFINED
        return nbytes // sz

    # -- structural equality ------------------------------------------------
    def signature(self) -> Tuple:
        """A hashable structural signature (used for congruence tests and
        for MANA's restart replay verification)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TypeDescriptor)
            and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash(self.signature())


class NamedType(TypeDescriptor):
    """A predefined (named) type, e.g. MPI_INT."""

    def __init__(self, name: str, np_dtype: Union[str, list]):
        if name not in C.PREDEFINED_DATATYPES:
            raise MpiError(
                f"{name} is not a predefined datatype", "MPI_ERR_TYPE"
            )
        self.name = name
        self.np_dtype = np.dtype(np_dtype)

    def size(self) -> int:
        return self.np_dtype.itemsize

    def lower_bound(self) -> int:
        return 0

    def upper_bound(self) -> int:
        return self.np_dtype.itemsize

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_NAMED, 0, 0, 0)

    def contents(self) -> Contents:
        # Per MPI-3 §4.1.13 it is erroneous to call get_contents on a
        # named type; MANA's replay relies on this to terminate recursion.
        raise MpiError(
            f"MPI_Type_get_contents called on named type {self.name}",
            "MPI_ERR_TYPE",
        )

    def blocks(self) -> np.ndarray:
        return np.array([[0, self.np_dtype.itemsize]], dtype=np.int64)

    def signature(self) -> Tuple:
        return ("named", self.name)

    def __repr__(self) -> str:
        return f"NamedType({self.name})"


class ContiguousType(TypeDescriptor):
    def __init__(self, count: int, base: TypeDescriptor):
        if count < 0:
            raise MpiError(f"negative count {count}", "MPI_ERR_COUNT")
        self.count = count
        self.base = base

    def size(self) -> int:
        return self.count * self.base.size()

    def lower_bound(self) -> int:
        return self.base.lower_bound()

    def upper_bound(self) -> int:
        if self.count == 0:
            return self.base.lower_bound()
        return (self.count - 1) * self.base.extent() + self.base.upper_bound()

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_CONTIGUOUS, 1, 0, 1)

    def contents(self) -> Contents:
        return Contents((self.count,), (), (self.base,))

    def blocks(self) -> np.ndarray:
        return _offset_blocks(
            self.base, np.arange(self.count, dtype=np.int64) * self.base.extent()
        )

    def signature(self) -> Tuple:
        return ("contig", self.count, self.base.signature())

    def __repr__(self) -> str:
        return f"ContiguousType({self.count}, {self.base!r})"


class VectorType(TypeDescriptor):
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` elements apart (stride in units of the base
    extent, as the standard specifies)."""

    def __init__(
        self, count: int, blocklength: int, stride: int, base: TypeDescriptor
    ):
        if count < 0 or blocklength < 0:
            raise MpiError("negative count/blocklength", "MPI_ERR_COUNT")
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base

    def size(self) -> int:
        return self.count * self.blocklength * self.base.size()

    def _elem_offsets(self) -> np.ndarray:
        ext = self.base.extent()
        block_starts = np.arange(self.count, dtype=np.int64) * self.stride * ext
        within = np.arange(self.blocklength, dtype=np.int64) * ext
        return (block_starts[:, None] + within[None, :]).reshape(-1)

    def lower_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.min()) + self.base.lower_bound()

    def upper_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.max()) + self.base.upper_bound()

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_VECTOR, 3, 0, 1)

    def contents(self) -> Contents:
        return Contents(
            (self.count, self.blocklength, self.stride), (), (self.base,)
        )

    def blocks(self) -> np.ndarray:
        return _offset_blocks(self.base, self._elem_offsets())

    def signature(self) -> Tuple:
        return (
            "vector",
            self.count,
            self.blocklength,
            self.stride,
            self.base.signature(),
        )

    def __repr__(self) -> str:
        return (
            f"VectorType({self.count}, {self.blocklength}, "
            f"{self.stride}, {self.base!r})"
        )


class IndexedType(TypeDescriptor):
    """``MPI_Type_indexed``: displacements in units of the base extent."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        base: TypeDescriptor,
    ):
        if len(blocklengths) != len(displacements):
            raise MpiError(
                "blocklengths and displacements differ in length",
                "MPI_ERR_ARG",
            )
        if any(b < 0 for b in blocklengths):
            raise MpiError("negative blocklength", "MPI_ERR_COUNT")
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.displacements = tuple(int(d) for d in displacements)
        self.base = base

    def size(self) -> int:
        return sum(self.blocklengths) * self.base.size()

    def _elem_offsets(self) -> np.ndarray:
        runs = _runs(
            np.array(self.displacements, dtype=np.int64),
            np.array(self.blocklengths, dtype=np.int64),
        )
        return runs * self.base.extent()

    def lower_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.min()) + self.base.lower_bound()

    def upper_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.max()) + self.base.upper_bound()

    def envelope(self) -> Envelope:
        n = len(self.blocklengths)
        return Envelope(C.COMBINER_INDEXED, 1 + 2 * n, 0, 1)

    def contents(self) -> Contents:
        n = len(self.blocklengths)
        return Contents(
            (n,) + self.blocklengths + self.displacements, (), (self.base,)
        )

    def blocks(self) -> np.ndarray:
        return _offset_blocks(self.base, self._elem_offsets())

    def signature(self) -> Tuple:
        return (
            "indexed",
            self.blocklengths,
            self.displacements,
            self.base.signature(),
        )

    def __repr__(self) -> str:
        return (
            f"IndexedType({list(self.blocklengths)}, "
            f"{list(self.displacements)}, {self.base!r})"
        )


class StructType(TypeDescriptor):
    """``MPI_Type_create_struct``: byte displacements, per-block types."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        bases: Sequence[TypeDescriptor],
    ):
        if not (len(blocklengths) == len(byte_displacements) == len(bases)):
            raise MpiError("struct argument arrays differ in length", "MPI_ERR_ARG")
        if any(b < 0 for b in blocklengths):
            raise MpiError("negative blocklength", "MPI_ERR_COUNT")
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.byte_displacements = tuple(int(d) for d in byte_displacements)
        self.bases = tuple(bases)

    def size(self) -> int:
        return sum(
            bl * b.size() for bl, b in zip(self.blocklengths, self.bases)
        )

    def lower_bound(self) -> int:
        lbs = [
            disp + b.lower_bound()
            for disp, b in zip(self.byte_displacements, self.bases)
        ]
        return min(lbs) if lbs else 0

    def upper_bound(self) -> int:
        ubs = [
            disp + (bl - 1) * b.extent() + b.upper_bound() if bl > 0 else disp
            for disp, bl, b in zip(
                self.byte_displacements, self.blocklengths, self.bases
            )
        ]
        return max(ubs) if ubs else 0

    def envelope(self) -> Envelope:
        n = len(self.blocklengths)
        return Envelope(C.COMBINER_STRUCT, 1 + n, n, n)

    def contents(self) -> Contents:
        n = len(self.blocklengths)
        return Contents(
            (n,) + self.blocklengths, self.byte_displacements, self.bases
        )

    def blocks(self) -> np.ndarray:
        parts: List[np.ndarray] = []
        for bl, disp, base in zip(
            self.blocklengths, self.byte_displacements, self.bases
        ):
            offs = disp + np.arange(bl, dtype=np.int64) * base.extent()
            parts.append(_offset_blocks(base, offs))
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return _merge_blocks(np.concatenate(parts))

    def signature(self) -> Tuple:
        return (
            "struct",
            self.blocklengths,
            self.byte_displacements,
            tuple(b.signature() for b in self.bases),
        )

    def __repr__(self) -> str:
        return (
            f"StructType({list(self.blocklengths)}, "
            f"{list(self.byte_displacements)}, {list(self.bases)})"
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _offset_blocks(base: TypeDescriptor, elem_offsets: np.ndarray) -> np.ndarray:
    """Replicate a base type's block table at each element offset,
    merging adjacent blocks where possible (keeps pack index tables small
    for the common contiguous-over-basic case)."""
    base_blocks = base.blocks()
    if base_blocks.size == 0 or elem_offsets.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    offs = (elem_offsets[:, None] + base_blocks[None, :, 0]).reshape(-1)
    lens = np.broadcast_to(
        base_blocks[None, :, 1], (elem_offsets.size, base_blocks.shape[0])
    ).reshape(-1)
    blocks = np.stack([offs, lens], axis=1)
    return _merge_blocks(blocks)


def _merge_blocks(blocks: np.ndarray) -> np.ndarray:
    """Merge byte blocks that are exactly adjacent (in typemap order)."""
    if blocks.shape[0] <= 1:
        return blocks
    offs, lens = blocks[:, 0], blocks[:, 1]
    # A block starts a run unless it begins where its predecessor ends.
    starts = np.flatnonzero(
        np.concatenate(([True], offs[1:] != offs[:-1] + lens[:-1]))
    )
    return np.stack([offs[starts], np.add.reduceat(lens, starts)], axis=1)


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``
    without a Python loop."""
    return np.arange(lens.sum(), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(lens) - lens), lens
    )


def _compile(desc: TypeDescriptor) -> PackPlan:
    """Build ``desc``'s plan.  Dense means one element is a single
    contiguous block at the buffer origin with extent == size, so packing
    is a memcpy."""
    blocks = desc.blocks()
    size, extent = desc.size(), desc.extent()
    dense = (
        blocks.shape[0] == 1
        and desc.lower_bound() == 0
        and int(blocks[0, 0]) == 0
        and int(blocks[0, 1]) == size == extent
    )
    if dense:
        index = np.empty(0, dtype=np.int64)
    else:
        index = _runs(blocks[:, 0], blocks[:, 1])
    low, top = (int(index.min()), int(index.max())) if index.size else (0, -1)
    return PackPlan(dense, size, extent, index, low, top)


def _as_bytes(buf: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a (contiguous) numpy buffer."""
    arr = np.asarray(buf)
    if not arr.flags["C_CONTIGUOUS"]:
        raise MpiError("buffers must be C-contiguous", "MPI_ERR_BUFFER")
    return arr.view(np.uint8).reshape(-1)


def make_predefined_types() -> dict:
    """Fresh ``name -> NamedType`` table (one per library instance)."""
    return {
        name: NamedType(name, spec)
        for name, spec in C.PREDEFINED_DATATYPES.items()
    }


def descriptor_from_contents(
    combiner: str,
    integers: Sequence[int],
    addresses: Sequence[int],
    bases: Sequence[TypeDescriptor],
) -> TypeDescriptor:
    """Rebuild a descriptor from envelope/contents data.

    This is the exact operation MANA's restart replay performs after
    decoding a user datatype with get_envelope/get_contents.
    """
    if combiner == C.COMBINER_CONTIGUOUS:
        (count,) = integers
        return ContiguousType(count, bases[0])
    if combiner == C.COMBINER_VECTOR:
        count, blocklength, stride = integers
        return VectorType(count, blocklength, stride, bases[0])
    if combiner == C.COMBINER_INDEXED:
        n = integers[0]
        bls = tuple(integers[1 : 1 + n])
        disps = tuple(integers[1 + n : 1 + 2 * n])
        return IndexedType(bls, disps, bases[0])
    if combiner == C.COMBINER_STRUCT:
        n = integers[0]
        bls = tuple(integers[1 : 1 + n])
        return StructType(bls, tuple(addresses), tuple(bases))
    raise MpiError(f"cannot rebuild combiner {combiner}", "MPI_ERR_TYPE")

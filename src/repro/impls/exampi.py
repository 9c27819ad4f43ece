"""Simulated ExaMPI: enum datatypes, lazy shared-pointer constants, subset.

ExaMPI (Skjellum et al.) is the experimental C++ MPI used for algorithm
research.  The properties the paper highlights, all reproduced:

* **Primitive datatypes are an enum class**: the handle of MPI_INT is a
  small integer enum value, not a pointer and not an MPICH-style tagged
  id.  Derived datatypes and the other object kinds are pointers.
* **Global constants are lazy**: ExaMPI builds constants from smart
  shared pointers with reinterpret casts, so "the address of a constant
  is known relatively late at runtime, on a lazy basis" (§4.3).  Here,
  resolving a constant *creates* its backing object on first touch.
* **Aliasing**: MPI_INT8_T and MPI_CHAR share one pointer (likewise
  MPI_UINT8_T and MPI_BYTE).  MANA must not assume distinct constants
  have distinct physical ids.
* **Subset implementation**: several MPI-3 functions are simply absent;
  calling one raises :class:`UnsupportedFunctionError`.  The paper's §5
  core subset (Iprobe/Recv/Test/Send/Alltoall/Comm_group/
  Group_translate_ranks/Type_get_envelope/Type_get_contents) is always
  present.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.impls.openmpi import PointerHandleSpace
from repro.mpi import constants as C
from repro.mpi.api import BaseMpiLib, HandleKind, HandleSpace, constant_kind
from repro.util.errors import InvalidHandleError, MpiError
from repro.util.rng import DeterministicRng

# The enum class of primitive datatypes: name -> enum value.  Fixed order
# (it is part of ExaMPI's source), so enum values are session-stable —
# unlike the pointers backing them.  Values start at 1 so that 0 remains
# the null handle.
PRIMITIVE_ENUM = {
    name: i + 1 for i, name in enumerate(C.PREDEFINED_DATATYPES)
}
ENUM_PRIMITIVE = {v: k for k, v in PRIMITIVE_ENUM.items()}


class ExampiHandleSpace(PointerHandleSpace):
    """Pointers for everything *except* primitive datatypes, which are
    enum values below ``len(PRIMITIVE_ENUM)``."""

    handle_bits = 64

    def __init__(self, rng: DeterministicRng):
        super().__init__(rng)
        # enum value -> DatatypeObject, populated lazily by the library.
        self._enum_objects: Dict[int, object] = {}

    def insert(self, kind: str, obj, builtin_name: Optional[str] = None) -> int:
        if kind == HandleKind.DATATYPE and builtin_name is not None:
            enum_value = PRIMITIVE_ENUM[builtin_name]
            self._enum_objects[enum_value] = obj
            return enum_value
        return super().insert(kind, obj)

    def resolve(self, kind: str, handle: int):
        if kind == HandleKind.DATATYPE and 1 <= handle <= len(PRIMITIVE_ENUM):
            obj = self._enum_objects.get(handle)
            if obj is None:
                raise InvalidHandleError(
                    f"primitive enum {handle} "
                    f"({ENUM_PRIMITIVE.get(handle, '?')}) not yet resolved "
                    f"(ExaMPI constants are lazy)"
                )
            return obj
        return super().resolve(kind, handle)

    def remove(self, kind: str, handle: int) -> None:
        if kind == HandleKind.DATATYPE and 1 <= handle <= len(PRIMITIVE_ENUM):
            raise InvalidHandleError(
                f"cannot free primitive enum datatype {handle}"
            )
        super().remove(kind, handle)


class ExaMpiLib(BaseMpiLib):
    """ExaMPI (git developer branch, August 2023, per Section 6)."""

    name = "exampi"

    # The functions ExaMPI does not provide.  Applications restricted to
    # the remaining surface are the "subset of applications known to be
    # compatible" that Section 6 tests (CoMD, LAMMPS, LULESH proxies).
    UNSUPPORTED = frozenset(
        {
            "cart_create",
            "cart_coords",
            "cart_rank",
            "cart_shift",
            "alltoallv",
            "exscan",
            "reduce_scatter_block",
            "gatherv",
            "scatterv",
            "allgatherv",
            "type_indexed",
            "type_dup",
        }
    )

    def _make_handle_space(self) -> HandleSpace:
        return ExampiHandleSpace(
            DeterministicRng((self.epoch << 16) ^ (self.world_rank + 1) ^ 0xE7A, "exampi-heap")
        )

    def _create_builtins(self) -> None:
        # ExaMPI resolves *nothing* at init: constants come into existence
        # on first touch.  Only the world/self communicators exist after
        # init (the runtime itself needs them).
        for name in C.PREDEFINED_COMMS:
            self._register_constant(name)

    def constant(self, name: str) -> int:
        """Lazy constant resolution with aliasing (§4.3)."""
        if not self._initialized:
            raise MpiError(
                f"ExaMPI constant {name} touched before init", "MPI_ERR_OTHER"
            )
        if name not in self._constants:
            canonical = C.EXAMPI_ALIASES.get(name, name)
            if canonical not in self._constants:
                if constant_kind(canonical) is None:
                    raise MpiError(
                        f"unknown ExaMPI constant {name!r}", "MPI_ERR_ARG"
                    )
                self._register_constant(canonical)
            # The alias and the canonical name share one physical id.
            self._constants[name] = self._constants[canonical]
        return self._constants[name]

    def resolved_constant_names(self):
        """Names touched so far (introspection for tests/benchmarks)."""
        return sorted(self._constants)

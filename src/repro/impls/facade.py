"""The "mpi.h" facade — what an application compiles against.

An application in this reproduction receives a single ``MPI`` object and
calls ``MPI.send(...)``, reads ``MPI.COMM_WORLD``, etc.  Two facades
exist with identical surface:

* :class:`NativeFacade` (here) routes straight to one implementation's
  library instance — a "native" run, no MANA;
* ``ManaFacade``, in MANA's wrapper layer, routes every call through
  MANA's wrapper functions, translating virtual and physical ids.

Both expose the same functions: ``repro.mpi.api.MPI_FUNCTIONS``.

Crucially, ``MPI.COMM_WORLD`` on the native facade is evaluated on every
access (a macro expanding to a function call, Open MPI-style): whatever
instability the implementation has in its constants is fully visible to
native applications — and absorbed by MANA's facade.
"""

from __future__ import annotations

from typing import Any

from repro.mpi import constants as C
from repro.mpi.api import MPI_FUNCTIONS, BaseMpiLib, HandleKind

# Facade attribute -> mpi.h constant name
_CONSTANT_ATTRS = {
    "COMM_WORLD": "MPI_COMM_WORLD",
    "COMM_SELF": "MPI_COMM_SELF",
    "GROUP_EMPTY": "MPI_GROUP_EMPTY",
    **{name[len("MPI_"):]: name for name in C.PREDEFINED_DATATYPES},
    **{name[len("MPI_"):]: name for name in C.PREDEFINED_OPS},
}

# Facade attribute -> null-handle kind
_NULL_ATTRS = {
    "COMM_NULL": HandleKind.COMM,
    "GROUP_NULL": HandleKind.GROUP,
    "DATATYPE_NULL": HandleKind.DATATYPE,
    "OP_NULL": HandleKind.OP,
    "REQUEST_NULL": HandleKind.REQUEST,
}

class FacadeBase:
    """Shared scalar constants for both facades."""

    COMM_TYPE_SHARED = C.COMM_TYPE_SHARED
    ANY_SOURCE = C.ANY_SOURCE
    ANY_TAG = C.ANY_TAG
    PROC_NULL = C.PROC_NULL
    UNDEFINED = C.UNDEFINED
    IDENT = C.IDENT
    CONGRUENT = C.CONGRUENT
    SIMILAR = C.SIMILAR
    UNEQUAL = C.UNEQUAL

    @staticmethod
    def dims_create(nnodes: int, ndims: int):
        return BaseMpiLib.dims_create(nnodes, ndims)


class NativeFacade(FacadeBase):
    """Direct binding of an application to one MPI implementation."""

    def __init__(self, lib: BaseMpiLib):
        self._lib = lib

    def __getattr__(self, attr: str) -> Any:
        # Called only when normal lookup fails: constants and functions.
        lib = object.__getattribute__(self, "_lib")
        const = _CONSTANT_ATTRS.get(attr)
        if const is not None:
            return lib.constant(const)
        kind = _NULL_ATTRS.get(attr)
        if kind is not None:
            return lib.null_handle(kind)
        if attr in MPI_FUNCTIONS:
            # Cached: later calls never come back here.
            value = self.__dict__[attr] = getattr(lib, attr)
            return value
        raise AttributeError(f"MPI facade has no attribute {attr!r}")

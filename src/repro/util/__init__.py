"""Utility layer: errors, bit-field helpers, op registry, deterministic RNG.

These are the foundation pieces shared by every other subpackage.  Nothing
in here knows about MPI; the MPI-shaped errors live here only so that the
fabric, the simulated implementations, and MANA can all raise the same
exception types without import cycles.
"""

from repro.util.errors import (
    ReproError,
    MpiError,
    MpiAbort,
    InvalidHandleError,
    IncompatibleHandleError,
    UnsupportedFunctionError,
    TruncationError,
    CheckpointError,
    RestartError,
)
from repro.util.bits import BitField, mask
from repro.util.registry import OpRegistry, FunctionRegistry
from repro.util.rng import DeterministicRng

__all__ = [
    "ReproError",
    "MpiError",
    "MpiAbort",
    "InvalidHandleError",
    "IncompatibleHandleError",
    "UnsupportedFunctionError",
    "TruncationError",
    "CheckpointError",
    "RestartError",
    "BitField",
    "mask",
    "OpRegistry",
    "FunctionRegistry",
    "DeterministicRng",
]

"""The four simulated MPI implementations (paper Section 3).

Each reproduces the *id-representation design choices* of its namesake —
the exact properties MANA's virtual-id architecture must absorb:

* :mod:`repro.impls.mpich` — 32-bit handles: kind bits + a two-level
  table index (like 2-level page tables); predefined constants are fixed
  compile-time integers, identical in upper/lower halves and across
  sessions.
* :mod:`repro.impls.craympi` — HPE Cray MPI, an MPICH-family derivative
  (shared handle scheme, different builtin constants and platform).
* :mod:`repro.impls.openmpi` — 64-bit pointer handles into a simulated
  heap whose base is randomized per session; global constants are
  *functions* resolved at library startup, so their values differ
  between the upper and lower halves and across restarts (paper §4.3).
* :mod:`repro.impls.exampi` — experimental subset implementation:
  primitive datatypes are enum values, other objects are pointers, and
  global constants are lazy shared pointers with aliasing
  (MPI_INT8_T and MPI_CHAR share one pointer).
"""

from repro.impls.mpich import MpichLib
from repro.impls.craympi import CrayMpiLib
from repro.impls.openmpi import OpenMpiLib
from repro.impls.exampi import ExaMpiLib
from repro.impls.facade import NativeFacade

# In the paper's order (the CLI lists its choices this way).
IMPLS = {
    "mpich": MpichLib,
    "openmpi": OpenMpiLib,
    "exampi": ExaMpiLib,
    "craympi": CrayMpiLib,
}


def make_lib(impl_name: str, *args, **kwargs):
    """Instantiate one rank's library for the named implementation."""
    try:
        cls = IMPLS[impl_name]
    except KeyError:
        raise ValueError(
            f"unknown MPI implementation {impl_name!r}; "
            f"choose from {sorted(IMPLS)}"
        ) from None
    return cls(*args, **kwargs)


__all__ = [
    "MpichLib",
    "CrayMpiLib",
    "OpenMpiLib",
    "ExaMpiLib",
    "NativeFacade",
    "IMPLS",
    "make_lib",
]

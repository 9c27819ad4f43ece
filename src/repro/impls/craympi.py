"""Simulated HPE Cray MPI: an MPICH-family derivative.

Cray MPI shares MPICH's handle architecture (it is built from the MPICH
code base), so it reuses :class:`TwoLevelHandleSpace` — only its builtin
"magic numbers" differ, plus the platform it runs on (Perlmutter:
FSGSBASE available, Slingshot network, Lustre filesystem).

Having a second MPICH-family member matters to the reproduction: it is
what lets the harness treat MPICH as the local-site stand-in for Cray MPI
(Section 6.1's "rough comparison of trends") while running the Figure 4
experiments against the Cray member itself.
"""

from __future__ import annotations

from repro.impls.mpich import MpichLib, TwoLevelHandleSpace
from repro.mpi.api import HandleSpace


class CrayMpiLib(MpichLib):
    """HPE Cray MPI (MPICH family, Perlmutter's production MPI)."""

    name = "craympi"
    BUILTIN_SALT = 0xC40  # different magic constants than stock MPICH

    def _make_handle_space(self) -> HandleSpace:
        return TwoLevelHandleSpace(
            epoch=self.epoch, builtin_salt=self.BUILTIN_SALT
        )

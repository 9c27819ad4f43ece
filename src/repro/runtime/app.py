"""The application contract.

An application is a class whose instances hold *all* state in plain
attributes (numpy arrays, numbers, dicts — picklable data).  That state
is the "upper-half memory": MANA serializes the whole object generically;
applications contain **no checkpoint code** — no save()/restore(), no
field lists.

Structure:

* ``setup(ctx)`` runs once, on a fresh start only (never after a cold
  restart): create communicators, datatypes, allocate arrays.
* ``run(ctx)`` does the work.  Long loops use ``ctx.loop(name, n)`` so
  a cold restart can resume at the recorded iteration; everything else
  about resumption is automatic.

This split is the documented substitution for stack-snapshotting (see
DESIGN.md §5): in-session checkpoints park at *any* MPI call; images that
must survive the process park at loop boundaries.
"""

from __future__ import annotations

from typing import Optional


class MpiApplication:
    """Base class for simulated MPI applications."""

    #: short identifier used in manifests and harness tables
    name: str = "app"
    #: the resumable loop that checkpoint triggers should target
    primary_loop: str = "main"

    def setup(self, ctx) -> None:
        """One-time initialization (fresh starts only)."""

    def run(self, ctx) -> None:
        """The application body; re-entered after cold restarts."""
        raise NotImplementedError

    # -- optional hooks ---------------------------------------------------
    def validate(self, ctx) -> Optional[str]:
        """Return an error string if final state is inconsistent, else
        None.  Called by the harness after a job completes."""
        return None

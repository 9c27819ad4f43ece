"""Deterministic fault injection and self-healing recovery.

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the declarative, seeded description of what to break and when;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the runtime
  object consulted at the hook points (wrappers, fabric, coordinator,
  checkpoint writer);
* :mod:`repro.faults.scenarios` — end-to-end survival scenarios behind
  ``python -m repro faults`` and ``smoke fault`` / ``smoke elastic``
  (imported lazily: it pulls in the whole runtime);
* :mod:`repro.faults.crashpoints` — :class:`CrashPointInjector`, the
  syscall-boundary process-death adversary of the durability layer;
* :mod:`repro.faults.crashsweep` — the crash-injection sweep behind
  ``python -m repro smoke crash`` (imported lazily, like scenarios).

See docs/PROTOCOLS.md §9 for the fault model and recovery protocol,
§13 for the durability/crash model.
"""

from repro.faults.crashpoints import CrashPointInjector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = ["FaultPlan", "FaultSpec", "FaultInjector", "CrashPointInjector"]

"""Parallel experiment harness: fan independent cases across workers.

A *case* is one ``run_case`` invocation (one bar of one figure).  Cases
are fully independent — each builds its own fabric, clocks, and rank
threads, and its virtual-time result is deterministic given the case's
own seed — so they may execute in worker processes in any order and
still produce byte-identical figures.  Two rules make that hold:

* **Deterministic seeds travel with the case.**  A case's kwargs carry
  (or default) its seed; nothing about scheduling feeds back into the
  simulation, whose clocks are purely virtual.
* **Ordered collection.**  Outcomes are returned by submission index,
  never by completion order, so downstream consumers (figure renderers,
  caches) observe exactly the serial sequence.

Failures are first-class: a worker returns ``("err", exc)`` instead of
raising, so one incompatible case (e.g. the legacy design on a
pointer-handle MPI, which figures render as "n/a") cannot poison the
pool or reorder its siblings.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

#: ("ok", CaseResult) or ("err", BaseException) — always picklable.
Outcome = Tuple[str, object]


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0``: the CPUs we may use."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        n = os.cpu_count() or 1
    return max(1, n)


def _run_one(kwargs: Dict) -> Outcome:
    """Worker entry point: run one case, return a picklable outcome.

    Exceptions are data here — expected ones (IncompatibleHandleError)
    must reach the parent intact, and unpicklable ones are downgraded to
    a ReproError carrying the original message.
    """
    from repro.harness.runner import run_case

    try:
        return ("ok", run_case(**kwargs))
    except BaseException as exc:  # noqa: BLE001 - report any case death
        try:
            pickle.loads(pickle.dumps(exc))
            return ("err", exc)
        except Exception:
            from repro.util.errors import ReproError

            return ("err", ReproError(f"{type(exc).__name__}: {exc}"))


def run_cases(
    case_kwargs: List[Dict], jobs: Optional[int] = None
) -> List[Outcome]:
    """Run every case, ``jobs`` at a time; outcomes in submission order.

    ``jobs`` of None, 0, or 1 runs serially in-process (0 is resolved by
    callers to :func:`default_jobs` before reaching here; None/1 mean
    "don't parallelize").  Workers are forked so the (frozen, memoized)
    cost models and imported modules are inherited for free; on
    platforms without fork a thread pool still overlaps the real-time
    waits of blocking-heavy cases.
    """
    if not case_kwargs:
        return []
    jobs = min(jobs or 1, len(case_kwargs))
    if jobs <= 1:
        return [_run_one(kw) for kw in case_kwargs]
    if "fork" in mp.get_all_start_methods():
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            return list(pool.map(_run_one, case_kwargs))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one, case_kwargs))


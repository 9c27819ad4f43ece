"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading
import time
from typing import Callable, List

import pytest

from repro.fabric.network import Fabric
from repro.impls import IMPLS, make_lib
from repro.impls.facade import NativeFacade
from repro.simtime.clock import VirtualClock
from repro.simtime.cost import CostModel

ALL_IMPLS = tuple(sorted(IMPLS))


def run_ranks(nranks: int, body: Callable[[int], object],
              timeout: float = 60.0) -> List[object]:
    """Run ``body(rank)`` on one thread per rank; returns results in rank
    order; re-raises the first exception."""
    results: List[object] = [None] * nranks
    errors: List[BaseException] = []

    def runner(r: int) -> None:
        try:
            results[r] = body(r)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(r,), daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    alive = [t for t in threads if t.is_alive()]
    if alive and not errors:
        raise TimeoutError(f"{len(alive)} rank threads hung")
    if errors:
        raise errors[0]
    return results


def make_world(nranks: int, impl: str = "mpich", epoch: int = 0,
               cost_model: CostModel = None):
    """A fabric plus a lib factory for hand-driven multi-rank tests."""
    cm = cost_model or CostModel.discovery()
    fabric = Fabric(nranks, cm)

    def lib_for(rank: int, init: bool = True):
        lib = make_lib(impl, fabric, rank, VirtualClock(), cm,
                       epoch=epoch, seed=42)
        if init:
            lib.init()
        return lib

    return fabric, lib_for


def facade_world(nranks: int, impl: str = "mpich", epoch: int = 0):
    fabric, lib_for = make_world(nranks, impl, epoch)

    def mpi_for(rank: int) -> NativeFacade:
        return NativeFacade(lib_for(rank))

    return fabric, mpi_for


@pytest.fixture(params=ALL_IMPLS)
def impl_name(request):
    return request.param


@pytest.fixture(autouse=True)
def no_leaked_rank_threads():
    """Fail a test that leaves a live ``rank-*`` thread behind: a parked
    rank nobody unparks never ends."""
    before = set(threading.enumerate())
    yield
    end = time.monotonic() + 2.0
    while True:
        leaked = [
            t.name for t in threading.enumerate()
            if t.name.startswith("rank-") and t not in before
        ]
        if not leaked or time.monotonic() > end:
            break
        time.sleep(0.01)
    assert not leaked, f"rank threads still alive after the test: {leaked}"

"""Syscall-level crash-injection sweep over the checkpoint store.

The durability claim of PROTOCOLS.md §13 is universally quantified:
*at every syscall boundary* of every store mutation, killing the writer
leaves the directory either still restorable from the previous
generation bit-for-bit, or repairable by ``repro fsck`` to a restorable
state with nothing leaked.  This module turns that claim into a sweep:

1. **Baseline.**  Build a small store with two complete generations
   (two ranks, seeded payloads with cross-generation overlap so chunk
   dedup is exercised).
2. **Enumerate.**  Run the full mutation batch — a synchronous
   generation save, an async-drain-style generation (``drain`` context,
   pinned chunks, ``drain-finalize`` journal record), a prune to
   ``keep=2``, and a chunk GC — under a recording
   :class:`repro.faults.CrashPointInjector` and collect every named
   crash point that fires (``<context>.<site>.<when>``; well over 40
   distinct names across the save/drain/gc/prune contexts).
3. **Sweep.**  For each point: fresh copy of the baseline, injector
   armed at that point, run the mutation until it dies
   (:class:`repro.util.errors.InjectedCrash`; all later store
   operations raise too, so no ``finally`` block can tidy up), then run
   :func:`repro.mana.fsck.fsck` and assert the invariants:

   * every generation fsck reports restorable reassembles
     **bit-identically** to the payload originally written;
   * the newest restorable generation is at least the pre-mutation
     head (the crash never loses already-durable state);
   * zero leaks: no ``*.tmp`` anywhere, no pending journal records, and
     the chunk store holds exactly the referenced digests;
   * a second fsck finds nothing to do (repair converged).

``python -m repro smoke crash`` runs a deterministic bounded subset;
the exhaustive sweep runs as a ``slow``-marked test in
``tests/test_crashpoints.py``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, List, Optional

from repro.faults.crashpoints import CrashPointInjector
from repro.mana import storeio
from repro.mana.checkpoint import (
    CheckpointImage,
    CheckpointStore,
    image_chunk_refs,
)
from repro.mana.fsck import fsck
from repro.util.errors import InjectedCrash, IntegrityError, RestartError

NRANKS = 2
#: Generations present (and restorable) before the mutation batch runs.
BASELINE_GENS = (1, 2)
#: Generations the mutation batch adds (3 synchronously, 4 drain-style).
MUTATED_GENS = (3, 4)
#: prune keep= used by the mutation batch (dooms generations 1 and 2
#: once 3 and 4 are durable).
PRUNE_KEEP = 2


# ----------------------------------------------------------------------
# deterministic payloads
# ----------------------------------------------------------------------
def _blob(generation: int, rank: int) -> bytes:
    """~24 KiB seeded payload: a shared region that is identical across
    generations (dedup hits → chunk-publish early returns) plus a
    per-generation region (fresh chunks → the full publish path)."""
    def stream(tag: str, n: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < n:
            out += hashlib.sha256(f"{tag}/{counter}".encode()).digest()
            counter += 1
        return bytes(out[:n])

    shared = stream(f"shared/rank{rank}", 12 * 1024)
    unique = stream(f"gen{generation}/rank{rank}", 12 * 1024)
    return shared + unique


def _image(rank: int, generation: int) -> CheckpointImage:
    return CheckpointImage(
        rank=rank, nranks=NRANKS, impl="sim", kind="cold",
        generation=generation, app=None, loops={}, vid_table=None,
        drain_buffer=None, clock_state={}, rng_state=None,
        cs_count=0, epoch=0,
    )


def expected_blobs() -> Dict[int, Dict[int, bytes]]:
    """generation -> rank -> payload bytes, for every generation the
    sweep can encounter."""
    return {
        g: {r: _blob(g, r) for r in range(NRANKS)}
        for g in (*BASELINE_GENS, *MUTATED_GENS)
    }


# ----------------------------------------------------------------------
# store construction and mutation
# ----------------------------------------------------------------------
def _write_generation(store: CheckpointStore, generation: int) -> None:
    for rank in range(NRANKS):
        store.save(_image(rank, generation), _blob(generation, rank))
    store.write_manifest(
        generation, nranks=NRANKS, impl="sim", kind="cold",
        cold_restartable=True, loop_target=None,
    )


def build_baseline(store: CheckpointStore) -> None:
    """Two complete generations, no injector installed."""
    os.makedirs(store.base_dir, exist_ok=True)
    for g in BASELINE_GENS:
        _write_generation(store, g)


def mutate(store: CheckpointStore) -> None:
    """The full batch of journaled store mutations the sweep kills.

    Mirrors one supervised job's store activity: a synchronous save
    round (generation 3), an async-drain finalize (generation 4, under
    the ``drain`` operation context with the drainer's ``drain-finalize``
    journal record and pinned chunk publishes), a prune to
    ``PRUNE_KEEP``, and a final chunk GC.
    """
    _write_generation(store, 3)
    with storeio.op_context("drain"):
        for rank in range(NRANKS):
            store.save(_image(rank, 4), _blob(4, rank), pin=True)
        fin = store.journal.begin("drain-finalize", generation=4)
        store.write_manifest(
            4, nranks=NRANKS, impl="sim", kind="cold",
            cold_restartable=True, loop_target=None,
        )
        store.prune(PRUNE_KEEP)
        store.journal.retire(fin)
    store.gc()


def enumerate_crash_points(workdir: str) -> List[str]:
    """Every crash-point name the mutation batch fires, first-seen
    order.  Deterministic: the payloads, chunking, and mutation order
    are all seeded/sorted."""
    store = CheckpointStore(os.path.join(workdir, "enum"))
    build_baseline(store)
    inj = CrashPointInjector()  # record mode: never crashes
    storeio.set_injector(inj)
    try:
        mutate(store)
    finally:
        storeio.set_injector(None)
    return list(inj.points)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def _find_tmp(base: str) -> List[str]:
    out = []
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in filenames:
            if name.endswith(storeio.TMP_SUFFIX):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def _read_back(store: CheckpointStore, generation: int) -> Dict[int, bytes]:
    """Reassemble every rank's payload of a generation from the store
    (verifying chunk integrity on the way)."""
    out: Dict[int, bytes] = {}
    manifest = store.read_manifest(generation)
    for rank in range(manifest["nranks"]):
        path = store.image_path(generation, rank)
        refs = image_chunk_refs(path)
        out[rank] = b"".join(store.chunks.get(d, context=path)
                             for d, _ in refs)
    return out


def check_point(point: str, baseline: str, workdir: str,
                expected: Dict[int, Dict[int, bytes]]) -> Dict:
    """Kill the mutation batch at ``point``, repair, and verify.

    Returns a result dict with ``ok`` plus enough detail to debug a
    failure (``problems``) and to fingerprint determinism
    (``restorable``, ``rolled_back``)."""
    sub = hashlib.sha256(point.encode()).hexdigest()[:16]
    work = os.path.join(workdir, f"pt-{sub}")
    shutil.copytree(baseline, work)
    store = CheckpointStore(work)

    inj = CrashPointInjector(arm_at=point)
    storeio.set_injector(inj)
    crashed = False
    try:
        mutate(store)
    except InjectedCrash:
        crashed = True
    finally:
        storeio.set_injector(None)

    problems: List[str] = []
    report = fsck(store, repair=True)
    # 1. Bit-identical payloads for everything fsck calls restorable.
    for g in report.restorable_generations:
        try:
            got = _read_back(store, g)
        except (IntegrityError, RestartError) as exc:
            problems.append(f"generation {g} reported restorable but: {exc}")
            continue
        if got != expected[g]:
            problems.append(
                f"generation {g} payload differs from what was written"
            )
    # 2. Already-durable state is never lost: the pre-mutation head (or
    # something newer) survives every crash.
    if not report.restorable_generations:
        problems.append("no restorable generation after repair")
    elif max(report.restorable_generations) < max(BASELINE_GENS):
        problems.append(
            f"crash lost durable state: newest restorable is "
            f"{max(report.restorable_generations)}, baseline head was "
            f"{max(BASELINE_GENS)}"
        )
    # 3. Zero leaks.
    tmps = _find_tmp(work)
    if tmps:
        problems.append(f"leaked tmp files: {tmps}")
    still_pending = store.journal.pending()
    if still_pending:
        problems.append(f"journal not drained: {still_pending}")
    on_disk = store.chunks.digests()
    referenced = store.referenced_chunks()
    if on_disk - referenced:
        problems.append(
            f"{len(on_disk - referenced)} unreferenced chunk(s) leaked"
        )
    if referenced - on_disk:
        problems.append(
            f"{len(referenced - on_disk)} referenced chunk(s) missing"
        )
    # 4. Repair converged: a second fsck has nothing to do.
    second = fsck(store, repair=True)
    if second.dirty:
        problems.append("second fsck still found work (repair diverged)")

    result = {
        "point": point,
        "crashed": crashed,
        "restorable": list(report.restorable_generations),
        "rolled_back": list(report.rolled_back_generations),
        "ok": not problems,
        "problems": problems,
    }
    shutil.rmtree(work, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def select_subset(points: List[str], limit: int) -> List[str]:
    """A deterministic, spread-out subset: every k-th point by
    first-seen order (hits all four operation contexts without a seeded
    RNG dependency)."""
    if limit >= len(points):
        return list(points)
    step = len(points) / limit
    return [points[int(i * step)] for i in range(limit)]


def run_sweep(workdir: str, limit: Optional[int] = None,
              points: Optional[List[str]] = None) -> Dict:
    """Run the crash sweep under ``workdir``; returns a summary dict.

    ``limit`` bounds the number of points checked (deterministic
    subset); ``points`` overrides the selection entirely.
    """
    all_points = enumerate_crash_points(workdir)
    baseline = os.path.join(workdir, "baseline")
    build_baseline(CheckpointStore(baseline))
    expected = expected_blobs()
    chosen = points if points is not None else (
        select_subset(all_points, limit) if limit else list(all_points)
    )
    results = [
        check_point(p, baseline, workdir, expected) for p in chosen
    ]
    failures = [r for r in results if not r["ok"]]
    contexts = sorted({p.split(".")[0] for p in all_points})
    return {
        "points_total": len(all_points),
        "contexts": contexts,
        "points_checked": len(results),
        "failures": failures,
        "ok": not failures,
        "results": results,
    }

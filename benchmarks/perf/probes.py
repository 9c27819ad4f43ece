"""Layer probes: one layer's public functions, timed from outside.

Run only in a traced run, after the workloads, on inputs those left
behind: the rank-0 image of a lifecycle repetition's last generation (write
side) and a repaired copy of the recover store (read side).  Every probe
works under the benchmark's temp root and restores what it changes.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import replace
from statistics import median
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from repro.apps.base import face_neighbors, grid_dims
from repro.fabric.network import Fabric
from repro.mana import checkpoint as ckpt
from repro.mana import storeio
from repro.mana.chunkstore import ChunkStore, chunk_spans, digest_spans
from repro.mana.fsck import auto_repair, fsck
from repro.mana.journal import Journal
from repro.mana.legacy import LegacyVirtualIdMaps
from repro.mana.virtid import VirtualIdTable, remap_world
from repro.mpi.api import HandleKind
from repro.runtime import JobConfig, Launcher, MpiApplication
from repro.runtime.platforms import cost_model_for

from . import app as benchapp
from .workloads import LAG_WINDOW


def _per_call(fn: Callable[[], object], calls: int, repeats: int = 3) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` loops."""
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        out.append((perf_counter() - t0) / calls)
    return median(out)


def _timed(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


# ----------------------------------------------------------------------
# mana.virtid / mana.legacy
# ----------------------------------------------------------------------
def virtid_probes() -> Dict[str, float]:
    kind = HandleKind.REQUEST
    out = {}
    for name, table in (("virtid", VirtualIdTable(handle_bits=32)),
                        ("legacy", LegacyVirtualIdMaps(handle_bits=32))):
        handles = [table.attach(kind, object(), phys=1000 + i)
                   for i in range(64)]

        def lookups(table=table, handles=handles) -> None:
            for vh in handles:
                table.phys(vh, kind)

        out[f"{name}.phys_ns"] = 1e9 * _per_call(lookups, 300) / len(handles)
    table = VirtualIdTable(handle_bits=32)

    def churn() -> None:
        vh = table.attach(kind, object(), phys=7)
        table.phys(vh, kind)
        table.remove(vh)

    out["virtid.churn_ns"] = 1e9 * _per_call(churn, 10_000)
    return out


def remap_world_s(rec_dir: str, new_nranks: int) -> float:
    """Seconds to remap the loaded vid tables of the newest generation
    onto ``new_nranks`` ranks, the way an elastic restart does."""
    gen = ckpt.latest_restorable_generation(rec_dir)
    old = ckpt.read_manifest(rec_dir, gen)["nranks"]
    images = [ckpt.load_image(ckpt.rank_image_path(rec_dir, gen, r))
              for r in range(old)]
    _apps, plan = benchapp.BenchStateApp.repartition(
        [img.app for img in images], new_nranks
    )
    rank_map = plan.rank_map()
    total = 0.0
    for r in range(new_nranks):
        src = plan.src_of(r)
        table = pickle.loads(pickle.dumps(images[src].vid_table))
        total += _timed(lambda: remap_world(
            table, old_nranks=old, new_nranks=new_nranks, old_rank=src,
            new_rank=r, rank_map=rank_map,
            merge_tables=[images[o].vid_table for o in plan.merged_into(r)],
        ))
    return total


# ----------------------------------------------------------------------
# fabric.network / mpi.api / mpi.collectives
# ----------------------------------------------------------------------
def fabric_msg_us() -> float:
    """Single-thread post + match of one 64-byte message."""
    fabric = Fabric(2, cost_model_for("discovery", "mpich"))
    payload = bytes(64)

    def post_and_match() -> None:
        fabric.post_send(0, 1, 5, 0, payload, 0.0)
        fabric.try_match(1, 0, 5, 0)

    return 1e6 * _per_call(post_and_match, 5_000)


class _TimedLoop(MpiApplication):
    """Rank 0 times ``iters`` calls of :meth:`step`, after a warm-up and a
    barrier; the result is read off the finished job's rank-0 app."""

    def __init__(self, iters: int):
        self.iters = iters
        self.elapsed = 0.0

    def step(self, ctx) -> None:
        raise NotImplementedError

    def run(self, ctx) -> None:
        for _ in range(3):
            self.step(ctx)
        ctx.barrier()
        t0 = perf_counter()
        for _ in range(self.iters):
            self.step(ctx)
        self.elapsed = perf_counter() - t0


class _PingPong(_TimedLoop):
    def step(self, ctx) -> None:
        MPI = ctx.MPI
        buf = np.zeros(1)
        if ctx.rank == 0:
            MPI.send(buf, 1, MPI.DOUBLE, 1, 1, MPI.COMM_WORLD)
            MPI.recv(buf, 1, MPI.DOUBLE, 1, 2, MPI.COMM_WORLD)
        else:
            MPI.recv(buf, 1, MPI.DOUBLE, 0, 1, MPI.COMM_WORLD)
            MPI.send(buf, 1, MPI.DOUBLE, 0, 2, MPI.COMM_WORLD)


class _HaloExchange(_TimedLoop):
    """The LAMMPS proxy's neighbour phase: irecv + isend on six faces,
    then waitall."""

    def step(self, ctx) -> None:
        MPI = ctx.MPI
        world = MPI.COMM_WORLD
        pairs = face_neighbors(ctx.rank, grid_dims(ctx.nranks))
        out = np.zeros(128)
        ins = [np.zeros(128) for _ in pairs]
        reqs = [MPI.irecv(ins[f], 128, MPI.DOUBLE, src, 10 + f, world)
                for f, (_dst, src) in enumerate(pairs)]
        reqs += [MPI.isend(out, 128, MPI.DOUBLE, dst, 10 + f, world)
                 for f, (dst, _src) in enumerate(pairs)]
        MPI.waitall(reqs)


class _Allreduce(_TimedLoop):
    def step(self, ctx) -> None:
        MPI = ctx.MPI
        out = np.zeros(1)
        MPI.allreduce(np.ones(1), out, 1, MPI.DOUBLE, MPI.SUM,
                      MPI.COMM_WORLD)


def _native_us(app_cls, nranks: int, iters: int) -> float:
    res = Launcher(JobConfig(nranks=nranks, impl="mpich", mana=False)).run(
        lambda rank: app_cls(iters)
    )
    if res.status != "completed":
        raise RuntimeError(f"{app_cls.__name__} probe: {res.first_error()}")
    return 1e6 * res.apps()[0].elapsed / iters


def mpi_probes() -> Dict[str, float]:
    return {
        "fabric.msg_us": fabric_msg_us(),
        "api.pingpong_us": _native_us(_PingPong, 2, 1000),
        "api.halo_exchange_us": _native_us(_HaloExchange, 32, 20),
        "collectives.allreduce_us.8": _native_us(_Allreduce, 8, 200),
        "collectives.allreduce_us.32": _native_us(_Allreduce, 32, 50),
    }


# ----------------------------------------------------------------------
# mana.coordinator / mana.drain
# ----------------------------------------------------------------------
def round_fixed_s(tmp_root: str, seed: int) -> float:
    """Stall of a checkpoint round with next to no state to save: the
    gates, the drain and the journal/manifest floor."""
    rounds, every = 4, 3
    spec = benchapp.make_spec(4, every * rounds + 3, seed, rank_bytes=8192,
                              mutate_fraction=0.0, burn_elems=0)
    cfg = JobConfig(
        nranks=4, impl="mpich", mana=True, seed=seed,
        ckpt_dir=tempfile.mkdtemp(prefix="round-", dir=tmp_root),
        loop_lag_window=LAG_WINDOW, deadline=60.0,
    )
    log = benchapp.BlockLog()
    with benchapp.recording(log):
        job = Launcher(cfg).launch(lambda rank: benchapp.BenchStateApp(spec))
        for k in range(1, rounds + 1):
            job.checkpoint_at_iteration("main", every * k - LAG_WINDOW,
                                        kind="loop")
        res = job.run()
    if res.status != "completed":
        raise RuntimeError(f"round probe: {res.first_error()}")
    return median(log.gap(every * k) for k in range(2, rounds + 1))


# ----------------------------------------------------------------------
# mana.checkpoint / mana.chunkstore (write side)
# ----------------------------------------------------------------------
def write_probes(tmp_root: str, life_dir: str) -> Dict[str, float]:
    gen = ckpt.latest_restorable_generation(life_dir)
    image = ckpt.load_image(ckpt.rank_image_path(life_dir, gen, 0))
    nranks = image.nranks
    mb = image.stored_bytes / 1e6
    top = tempfile.mkdtemp(prefix="probe-write-", dir=tmp_root)
    base = os.path.join(top, "ckpt")
    store = ChunkStore(base)
    out = {}

    def save_v5(generation: int) -> float:
        return _timed(lambda: ckpt.save_chunked_image(
            ckpt.rank_image_path(base, generation, 0),
            replace(image, generation=generation), store,
        ))

    out["checkpoint.save_v5_cold_mb_s"] = mb / save_v5(1)
    out["checkpoint.save_v5_warm_mb_s"] = mb / save_v5(2)
    v4 = os.path.join(top, "v4")
    out["checkpoint.save_v4_mb_s"] = mb / _timed(lambda: ckpt.save_image(
        ckpt.rank_image_path(v4, 1, 0), replace(image, generation=1)
    ))

    commits = []
    for generation in range(1, 9):
        # Generations 3.. are manifest-only; the prune below removes them.
        commits.append(_timed(lambda: ckpt.write_manifest(
            base, generation, nranks=nranks, impl="mpich", kind="loop",
            cold_restartable=True, loop_target=None,
        )))
    out["checkpoint.manifest_commit_us"] = 1e6 * median(commits)
    out["checkpoint.prune_gc_s"] = _timed(
        lambda: ckpt.prune_generations(base, 1)
    )

    blob = image.app.state.tobytes()
    view = memoryview(blob)
    blob_mb = len(blob) / 1e6
    spans = []
    out["chunkstore.scan_mb_s"] = blob_mb / _timed(
        lambda: spans.extend(chunk_spans(blob))
    )
    digests = []
    out["chunkstore.digest_mb_s"] = blob_mb / _timed(
        lambda: digests.extend(digest_spans(view, spans))
    )
    fresh = ChunkStore(os.path.join(top, "fresh"))

    def put_all() -> None:
        for d, (s, e) in zip(digests, spans):
            fresh.put_known(d, view[s:e])

    out["chunkstore.put_new_mb_s"] = blob_mb / _timed(put_all)
    out["chunkstore.put_dup_us"] = 1e6 * _timed(put_all) / len(spans)
    shutil.rmtree(top, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# mana.storeio / mana.journal
# ----------------------------------------------------------------------
def storeio_probes(tmp_root: str) -> Dict[str, float]:
    base = tempfile.mkdtemp(prefix="probe-io-", dir=tmp_root)
    data = bytes(8192)
    path = os.path.join(base, "block")

    def publish() -> None:
        tmp = storeio.tmp_name(path)
        storeio.write_file(tmp, data, site="probe.tmp")
        storeio.rename(tmp, path, site="probe")

    out = {}
    previous = storeio.get_durability()
    try:
        for mode in ("fast", "strict"):
            storeio.set_durability(mode)
            out[f"storeio.publish_{mode}_us"] = 1e6 * _per_call(publish, 50)
    finally:
        storeio.set_durability(previous)
    journal = Journal(base)
    out["journal.record_us"] = 1e6 * _per_call(
        lambda: journal.retire(journal.begin("probe", generation=1)), 200
    )
    shutil.rmtree(base, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# read side: checkpoint load/verify, chunk get, fsck on a clean store
# ----------------------------------------------------------------------
def read_probes(tmp_root: str, rec_dir: str, shrink_to: int) -> Dict[str, float]:
    gen = ckpt.latest_restorable_generation(rec_dir)
    out = {
        "fsck.check_clean_s": _timed(lambda: fsck(rec_dir, repair=False)),
        "fsck.auto_repair_clean_s": _timed(lambda: auto_repair(rec_dir)),
        "fsck.chunks_verified": len(ckpt.referenced_chunks(rec_dir)),
        "virtid.remap_world_s": remap_world_s(rec_dir, shrink_to),
    }
    # A fresh copy has a fresh path, so neither the verdict cache nor the
    # store's verified-chunk memo knows anything about it.
    top = tempfile.mkdtemp(prefix="probe-read-", dir=tmp_root)
    first, second = os.path.join(top, "a"), os.path.join(top, "b")
    shutil.copytree(rec_dir, first)
    shutil.copytree(rec_dir, second)
    out["checkpoint.validate_generation_s"] = _timed(
        lambda: ckpt.validate_generation(first, gen)
    )
    path = ckpt.rank_image_path(second, gen, 0)
    payload_mb = ckpt.verify_image(path, deep=False)["payload_bytes"] / 1e6
    out["checkpoint.verify_mb_s"] = payload_mb / _timed(
        lambda: ckpt.verify_image(path)
    )
    out["checkpoint.load_mb_s"] = payload_mb / _timed(
        lambda: ckpt.load_image(path)
    )
    store = ChunkStore(second)
    refs = ckpt.image_chunk_refs(path)
    out["chunkstore.get_mb_s"] = payload_mb / _timed(
        lambda: [store.get(d) for d, _ulen in refs]
    )
    shutil.rmtree(top, ignore_errors=True)
    return out


def run_all(tmp_root: str, seed: int, life_dir: str, rec_dir: str,
            shrink_to: int) -> Dict[str, float]:
    out = virtid_probes()
    out.update(mpi_probes())
    out["coordinator.round_fixed_s"] = round_fixed_s(tmp_root, seed)
    out.update(write_probes(tmp_root, life_dir))
    out.update(storeio_probes(tmp_root))
    out.update(read_probes(tmp_root, rec_dir, shrink_to))
    return out

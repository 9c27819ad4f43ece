"""Asynchronous format-5 checkpointing: snapshot at the barrier, drain
behind compute (PROTOCOLS.md §11)."""

import glob
import os
import threading

import numpy as np
import pytest

from repro import JobConfig, Launcher
from repro.faults import FaultPlan
from repro.faults.crashpoints import CrashPointInjector
from repro.mana.checkpoint import CheckpointStore
from repro.mana.storeio import StoreIO
from repro.runtime.launcher import Job
from repro.util.errors import InjectedCrash
from tests.miniapps import RingApp

NRANKS = 4
STEPS = 30


def _cfg(ckdir, **kw):
    base = dict(
        nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir,
        ckpt_interval=0.4, loop_lag_window=2, ckpt_async=True,
    )
    base.update(kw)
    return JobConfig(**base)


def _run(cfg, steps=STEPS):
    job = Launcher(cfg).launch(lambda r: RingApp(steps, compute=0.05))
    res = job.run(timeout=120)
    assert res.status == "completed", res.first_error()
    return job, res


def _image_bytes(store, gen):
    out = {}
    for r in range(NRANKS):
        with open(store.image_path(gen, r), "rb") as f:
            out[r] = f.read()
    return out


class TestAsyncCorrectness:
    def test_results_match_sync(self, tmp_path):
        sync_dir = str(tmp_path / "sync")
        async_dir = str(tmp_path / "async")
        _, sync_res = _run(_cfg(sync_dir, ckpt_async=False))
        job, async_res = _run(_cfg(async_dir))
        assert ([a.acc[0] for a in async_res.apps()]
                == [a.acc[0] for a in sync_res.apps()])
        store = job.store
        gens = store.generations()
        assert len(gens) >= 2, gens
        # Every durable async generation is manifest-complete and marked.
        for gen in store.restorable():
            m = store.read_manifest(gen)
            assert m["extra"]["async"] is True
            assert m["dedup"]["payload_bytes"] > 0
            assert store.validate(gen) == []

    def test_first_generation_bit_identical_to_sync(self, tmp_path):
        """The snapshot happens at the same barrier state the sync path
        pickles at, so generation 1 (taken before any divergence in
        charged checkpoint durations) must be byte-for-byte the same."""
        sync_job, _ = _run(_cfg(str(tmp_path / "sync"), ckpt_async=False))
        async_job, _ = _run(_cfg(str(tmp_path / "async")))
        assert (_image_bytes(sync_job.store, 1)
                == _image_bytes(async_job.store, 1))

    def test_async_run_is_deterministic(self, tmp_path):
        runs = [_run(_cfg(str(tmp_path / d))) for d in ("a", "b")]
        (job_a, res_a), (job_b, res_b) = runs
        assert res_a.runtime == res_b.runtime
        common = (set(job_a.store.generations())
                  & set(job_b.store.generations()))
        assert common
        for gen in sorted(common):
            assert (_image_bytes(job_a.store, gen)
                    == _image_bytes(job_b.store, gen))

    def test_restart_from_async_images(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        base = Launcher(JobConfig(nranks=NRANKS, impl="mpich",
                                  mana=True)).run(
            lambda r: RingApp(STEPS, compute=0.05), timeout=120
        )
        expect = [a.acc[0] for a in base.apps()]
        cfg = _cfg(ckdir)
        _run(cfg)
        job2 = Launcher(cfg).restart(ckdir)
        job2.coordinator._interval = None
        res2 = job2.run(timeout=120)
        assert res2.status == "completed", res2.first_error()
        assert [a.acc[0] for a in res2.apps()] == expect


class TestAsyncAccounting:
    def test_overlap_reduces_virtual_runtime(self, tmp_path):
        """Ranks are charged the snapshot plus any drain overrun —
        strictly less than the full synchronous save cost here."""
        sync_dir = str(tmp_path / "sync")
        async_dir = str(tmp_path / "async")
        _, sync_res = _run(_cfg(sync_dir, ckpt_async=False))
        _, async_res = _run(_cfg(async_dir))
        assert async_res.runtime < sync_res.runtime

    def test_tickets_carry_async_fields(self, tmp_path):
        job, _ = _run(_cfg(str(tmp_path / "ck")))
        done = [t for t in job.coordinator.interval_tickets
                if t.result and t.error is None]
        assert done
        for t in done:
            assert t.result["async"] is True
            assert t.result["snapshot_time"] > 0.0
            assert t.result["drain_overrun"] >= 0.0
            assert t.result["dedup"]["chunks_total"] > 0
            assert t.result["drain_time"] > 0.0
        # Later rounds arrive after the previous drain's virtual span
        # has been modeled; at this interval at least one sees overrun 0
        # (fully hidden) — and none is charged more than a full drain.
        for t in done:
            assert t.result["drain_overrun"] <= t.result["drain_time"] + 1e-9


class TestAsyncPruning:
    def test_pruned_async_run_keeps_valid_generations(self, tmp_path):
        """Generation pruning + chunk GC run behind in-flight drains;
        pinning must keep every surviving manifest-ed generation fully
        restorable."""
        job, _ = _run(_cfg(str(tmp_path / "ck"), ckpt_keep_generations=2))
        store = job.store
        gens = store.generations()
        assert 0 < len(gens) <= 2
        for gen in store.restorable():
            assert store.validate(gen) == []
        # No generation or chunk remains pinned after the job drains out.
        assert store.pinned_generations() == set()
        assert store.chunks.pinned() == set()


class TestAsyncDrainFailure:
    def test_drain_fault_fails_generation_not_job(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        plan = FaultPlan().crash_in_checkpoint(
            rank=1, generation=2, site="mid-save"
        )
        cfg = _cfg(ckdir, faults=plan)
        job, res = _run(cfg)
        # The app never saw the fault: the drain absorbed it.
        events = [e for e in job.coordinator.round_events
                  if e.get("event") == "async-drain-failed"]
        assert events and events[0]["generation"] == 2
        # Generation 2 is gone — no partial images, no manifest.
        assert not glob.glob(
            os.path.join(job.store.generation_dir(2), "rank_*")
        )
        assert 2 not in job.store.restorable()
        failed = [t for t in job.coordinator.interval_tickets
                  if t.error is not None]
        assert failed and "injected" in str(failed[0].error)

    def test_restart_falls_back_to_previous_generation(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        base = Launcher(JobConfig(nranks=NRANKS, impl="mpich",
                                  mana=True)).run(
            lambda r: RingApp(STEPS, compute=0.05), timeout=120
        )
        expect = [a.acc[0] for a in base.apps()]
        plan = FaultPlan().crash_in_checkpoint(
            rank=0, generation=2, site="mid-save"
        )
        job, _ = _run(_cfg(ckdir, faults=plan))
        latest = job.store.latest_restorable()
        assert latest is not None and latest != 2
        cfg2 = _cfg(ckdir)
        job2 = Launcher(cfg2).restart(ckdir)
        job2.coordinator._interval = None
        res2 = job2.run(timeout=120)
        assert res2.status == "completed", res2.first_error()
        assert [a.acc[0] for a in res2.apps()] == expect


class BulkyRingApp(RingApp):
    """RingApp carrying 1 MiB of incompressible state per rank: enough
    chunk runs that a save fans out to the save pool."""

    def __init__(self, rank, niters=STEPS):
        super().__init__(niters, compute=0.05)
        self.bulk = np.random.default_rng(rank).integers(
            0, 256, size=1 << 20, dtype=np.uint8)


class _HoldFirstDrainPoint:
    """Store injector that holds the drain at its first ``drain.*``
    crash point until ``release`` is set."""

    def __init__(self, release):
        self.release = release
        self.released = None   # set once the hold ended: in time or not

    def hit(self, name):
        if name.startswith("drain.") and self.released is None:
            self.released = self.release.wait(60)


class TestDrainOwnership:
    """The round's drain, not the job's teardown, owns its generation."""

    ROUND_AT = 8   # the LOOP round parks at iteration ROUND_AT + 2

    def test_rank_crash_leaves_drain_in_flight_committed(self, tmp_path):
        aborted = threading.Event()
        hold = _HoldFirstDrainPoint(aborted)
        store = CheckpointStore(str(tmp_path / "ck"),
                                io=StoreIO(injector=hold))
        # Two blocks after the round resumes, while its drain is held.
        plan = FaultPlan().crash_at_loop(rank=1,
                                         iteration=self.ROUND_AT + 4)
        cfg = _cfg(str(tmp_path / "ck"), ckpt_interval=None,
                   ckpt_save_workers=2, faults=plan)
        job = Job(cfg, app_factory=BulkyRingApp, store=store)
        ticket = job.checkpoint_at_iteration("main", self.ROUND_AT,
                                             kind="loop")
        coord = job.coordinator
        abort = coord.abort

        def abort_then_release(exc=None):
            abort(exc)
            aborted.set()

        coord.abort = abort_then_release
        res = job.run(timeout=120)
        assert res.status == "failed"
        assert hold.released is True, "the drain was not held to the abort"
        assert "dedup" in ticket.wait(10)
        assert ticket.generation in store.restorable()
        assert store.validate(ticket.generation) == []
        assert [e for e in coord.round_events
                if e.get("event") == "async-drain-failed"] == []

    def _drain_dies_in_cleanup(self, tmp_path, monkeypatch, rounds):
        """A job whose store dies at the drain's first image rename, so
        the drain's clean-up (``remove_generation``) raises too."""
        died = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: died.append(args.exc_type))
        inj = CrashPointInjector(arm_at="drain.image.rename.before")
        store = CheckpointStore(str(tmp_path / "ck"),
                                io=StoreIO(injector=inj))
        cfg = _cfg(str(tmp_path / "ck"), ckpt_interval=None, deadline=20)
        job = Job(cfg, app_factory=lambda r: RingApp(STEPS, compute=0.05),
                  store=store)
        tickets = [job.checkpoint_at_iteration("main", 6 * k, kind="loop")
                   for k in range(1, rounds + 1)]
        res = job.run()
        return res, tickets, died

    def test_drain_whose_cleanup_raises_settles_its_ticket(
            self, tmp_path, monkeypatch):
        res, (ticket,), died = self._drain_dies_in_cleanup(
            tmp_path, monkeypatch, rounds=1)
        assert res.status == "completed", res.first_error()
        with pytest.raises(InjectedCrash,
                           match="drain.image.rename.before"):
            ticket.wait(3)
        # The clean-up's own crash still ends the drain thread.
        assert died == [InjectedCrash]

    def test_later_rounds_after_a_dead_drain_do_not_wedge(
            self, tmp_path, monkeypatch):
        res, tickets, died = self._drain_dies_in_cleanup(
            tmp_path, monkeypatch, rounds=3)
        assert res.status == "completed", res.first_error()
        for t in tickets:
            with pytest.raises(InjectedCrash):
                t.wait(3)
        assert died == [InjectedCrash] * 3

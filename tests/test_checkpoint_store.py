"""One :class:`CheckpointStore` per checkpoint directory.

All state about a directory — layout, chunk store, journal, generation
pins, the warn-once set, the verdict memo and its I/O settings
(durability mode and crash injector) — lives on its store, so two
directories in one process cannot see each other, a finished job
leaves no pin behind, and opening or reading a store changes nothing on
disk.
"""

import collections
import os
import sys
import threading
from dataclasses import replace

import pytest

from repro import FaultPlan, JobConfig, Launcher
from repro.apps.elastic import ElasticHaloApp
from repro.faults.crashpoints import CrashPointInjector
from repro.mana import storeio
from repro.mana.checkpoint import CheckpointImage, CheckpointStore, store_for
from repro.mana.storeio import StoreIO
from repro.runtime import RestartPolicy
from repro.util.errors import InjectedCrash

SEED = 7

#: name -> (JobConfig extras, fault plan, LOOP triggers, restart policy)
PHASES = {
    "sync": (
        {"ckpt_keep_generations": 2},
        lambda: FaultPlan(seed=SEED).crash_at_loop(rank=1, iteration=11),
        (2, 4, 6),
        RestartPolicy(max_restarts=1),
    ),
    "async": (
        {"ckpt_async": True, "ckpt_save_workers": 2},
        lambda: FaultPlan(seed=SEED).crash_in_checkpoint(
            rank=1, generation=2, site="mid-save"
        ),
        (2, 4, 6),
        RestartPolicy(max_restarts=1),
    ),
    "elastic": (
        {},
        lambda: FaultPlan(seed=SEED).crash_at_loop(rank=1, iteration=7),
        (2, 4),
        RestartPolicy(max_restarts=1, elastic="shrink_on_node_loss",
                      capacity=[2]),
    ),
}


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _phase(ckpt_dir, extras, plan, triggers, policy):
    spec = replace(ElasticHaloApp.paper_config(), nranks=4, seed=SEED,
                   blocks=12)
    cfg = JobConfig(nranks=4, impl="mpich", mana=True, seed=SEED,
                    ckpt_dir=ckpt_dir, loop_lag_window=2, deadline=60.0,
                    faults=plan(), **extras)
    tickets = []

    def arm(job):
        tickets.extend(job.checkpoint_at_iteration("main", it, kind="loop")
                       for it in triggers)

    res = Launcher(cfg, policy).supervise(
        lambda r: ElasticHaloApp(spec), timeout=60.0, on_launch=arm,
    )
    assert res.status == "completed", res.first_error()
    return {
        "events": res.recovery_events,
        "tickets": [(t.result, None if t.error is None else str(t.error))
                    for t in tickets],
        "manifests": {
            os.path.relpath(os.path.join(d, n), ckpt_dir):
                _read(os.path.join(d, n))
            for d, _dirs, names in os.walk(ckpt_dir)
            for n in names if n == "manifest.json"
        },
    }


def _lifecycle(root):
    out = {}
    for name, phase in PHASES.items():
        ckpt_dir = os.path.join(root, name)
        out[name] = _phase(ckpt_dir, *phase)
        store = store_for(ckpt_dir)
        assert store.pinned_generations() == set(), name
        assert store.chunks.pinned() == set(), name
    return out


class TestStoreIsolation:
    def test_lifecycle_twice_in_one_process_is_identical(self, tmp_path):
        first = _lifecycle(str(tmp_path / "one"))
        second = _lifecycle(str(tmp_path / "two"))
        # Each phase did what it is meant to exercise...
        assert [e["event"] for e in first["sync"]["events"]] == [
            "rank-failure", "restart", "recovered"]
        assert sorted(first["sync"]["manifests"]) == [
            os.path.join("ckpt_0002", "manifest.json"),
            os.path.join("ckpt_0003", "manifest.json"),
        ]
        assert first["async"]["events"] == []
        assert [err is not None for _r, err in first["async"]["tickets"]] \
            == [False, True, False]
        restart = [e for e in first["elastic"]["events"]
                   if e["event"] == "restart"]
        assert [(e["from_nranks"], e["to_nranks"]) for e in restart] == [
            (4, 2)]
        # ...and the second run, in a fresh directory of the same
        # process, saw none of the first one's store state.
        assert second == first


class TestPins:
    def test_concurrent_pins_balance(self, tmp_path):
        """Drainers and restarts pin from their own threads; a lost
        refcount update would leave a pin behind or drop one early."""
        store = CheckpointStore(str(tmp_path))
        errors = []

        def churn(gen):
            try:
                for _ in range(2000):
                    with store.pinned(gen), store.pinned(gen + 1):
                        held = store.pinned_generations()
                        assert {gen, gen + 1} <= held
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k % 3,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.pinned_generations() == set()


_FIELDS = {"nranks": 1, "impl": "mpich", "kind": "loop",
           "cold_restartable": True, "loop_target": None}


def _save(store, generation):
    store.save(CheckpointImage(
        rank=0, nranks=1, impl="mpich", kind="loop", generation=generation,
        app={"x": generation}, loops={}, vid_table=None, drain_buffer=None,
        clock_state={}, rng_state=None, cs_count=0, epoch=0,
    ))


class TestCommit:
    def test_commit_writes_the_manifest_then_prunes(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for g in (1, 2, 3):
            _save(store, g)
            store.commit(g, dict(_FIELDS, dedup={"chunks_written": g}), 2)
        assert store.generations() == [2, 3]
        assert store.restorable() == [2, 3]
        manifest = store.read_manifest(3)
        assert manifest["dedup"] == {"chunks_written": 3}
        assert list(manifest) == [
            "format_version", "generation", "nranks", "impl", "kind",
            "cold_restartable", "loop_target", "extra", "dedup",
        ]
        assert store.journal.pending() == []

    def test_writer_pin_drops_before_the_prune(self, tmp_path):
        """An async drain writes under a pin; its commit drops the pin
        once the manifest is durable, so the new generation counts
        toward ``keep`` — exactly as in a synchronous round."""
        store = CheckpointStore(str(tmp_path))
        for g in (1, 2):
            _save(store, g)
            store.commit(g, _FIELDS)
        store.pin(3)
        _save(store, 3)
        store.commit(3, _FIELDS, 2, unpin=True)
        assert store.pinned_generations() == set()
        assert store.generations() == [2, 3]

    def test_failed_manifest_write_still_drops_the_pin(self, tmp_path):
        store = CheckpointStore(str(tmp_path), io=StoreIO(
            injector=CrashPointInjector(arm_at="save.manifest.rename.before")))
        store.pin(1)
        _save(store, 1)
        with pytest.raises(InjectedCrash):
            store.commit(1, _FIELDS, 1, unpin=True)
        assert store.pinned_generations() == set()
        assert not os.path.exists(store.manifest_path(1))


def _count_fsyncs(monkeypatch):
    """Patch ``os.fsync`` to count calls per thread name."""
    calls = collections.Counter()
    real = os.fsync

    def fsync(fd):
        calls[threading.current_thread().name] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestStoreIO:
    def test_two_stores_keep_their_own_mode_and_injector(
            self, tmp_path, monkeypatch):
        """Two stores run at once in one process: a strict store with a
        recording injector, and a fast one whose injector kills its save.
        The death and the fast mode stay with the store that has them."""
        fsyncs = _count_fsyncs(monkeypatch)
        rec = CrashPointInjector()
        a = CheckpointStore(str(tmp_path / "a"),
                            io=StoreIO("strict", injector=rec))
        b = CheckpointStore(str(tmp_path / "b"), io=StoreIO(
            injector=CrashPointInjector(arm_at="save.image.rename.before")))
        start, b_done = threading.Barrier(2), threading.Event()
        errors = {}

        def run_a():
            start.wait()
            _save(a, 1)
            b_done.wait()               # B died while A was writing
            a.commit(1, _FIELDS)

        def run_b():
            start.wait()
            try:
                _save(b, 1)
            except InjectedCrash as exc:
                errors["b"] = exc
            finally:
                b_done.set()

        threads = [threading.Thread(target=run_a, name="a"),
                   threading.Thread(target=run_b, name="b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert isinstance(errors.get("b"), InjectedCrash)
        assert b.io.injector.dead and not rec.dead
        assert "save.manifest.rename.after" in rec.points
        a.verify_image(a.image_path(1, 0))
        assert a.restorable() == [1]
        assert fsyncs["a"] > 0 and fsyncs["b"] == 0

    def test_process_default_reaches_stores_without_their_own_io(
            self, tmp_path, monkeypatch):
        """The module-level settings act on the process default: a store
        opened before or after them follows both; a store with its own
        ``io`` follows neither."""
        fsyncs = _count_fsyncs(monkeypatch)
        me = threading.current_thread().name
        before = store_for(str(tmp_path / "before"))
        own = CheckpointStore(str(tmp_path / "own"), io=StoreIO())
        rec = CrashPointInjector()
        storeio.set_durability("strict")
        storeio.set_injector(rec)
        try:
            after = CheckpointStore(str(tmp_path / "after"))
            for store, follows in ((before, True), (own, False),
                                   (after, True)):
                hits, synced = sum(rec.counts.values()), fsyncs[me]
                _save(store, 1)
                assert (sum(rec.counts.values()) > hits) == follows
                assert (fsyncs[me] > synced) == follows
        finally:
            storeio.set_injector(None)
            storeio.set_durability("fast")


class TestOpeningIsReadOnly:
    def test_opening_and_reading_a_store_mutates_nothing(self, tmp_path):
        base = str(tmp_path / "ckpt")
        writer = store_for(base)
        writer.save(CheckpointImage(
            rank=0, nranks=1, impl="mpich", kind="loop", generation=1,
            app={"x": 1}, loops={}, vid_table=None, drain_buffer=None,
            clock_state={}, rng_state=None, cs_count=0, epoch=0,
        ))
        writer.write_manifest(1, nranks=1, impl="mpich", kind="loop",
                              cold_restartable=True, loop_target=None)
        digest = sorted(writer.chunks.digests())[0]
        stray = writer.chunks.chunk_path(digest) + ".99999999.1.tmp"
        with open(stray, "wb") as f:
            f.write(b"torn")

        def snapshot():
            return sorted(
                (os.path.join(d, n), os.path.getsize(os.path.join(d, n)))
                for d, _dirs, names in os.walk(base) for n in names
            )

        before = snapshot()
        # A second view of the same directory, as another job would
        # have: every read path leaves the directory as it found it.
        reader = CheckpointStore(base)
        path = reader.image_path(1, 0)
        reader.verify_image(path)
        assert reader.load_image(path).app == {"x": 1}
        assert reader.restorable() == [1]
        assert snapshot() == before
        assert os.path.exists(stray)

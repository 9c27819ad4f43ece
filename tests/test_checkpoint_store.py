"""One :class:`CheckpointStore` per checkpoint directory.

All state about a directory — layout, chunk store, journal, generation
pins, the warn-once set and the verdict memo — lives on its store, so
two directories in one process cannot see each other, a finished job
leaves no pin behind, and opening or reading a store changes nothing on
disk.
"""

import os
import sys
import threading
from dataclasses import replace

from repro import FaultPlan, JobConfig, Launcher
from repro.apps.elastic import ElasticHaloApp
from repro.mana.checkpoint import CheckpointImage, CheckpointStore, store_for
from repro.runtime import RestartPolicy

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

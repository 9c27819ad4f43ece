"""Generation pruning racing a restart: pinned generations survive.

``Launcher.restart``/``elastic_restart`` pin the generation they are
reading (``with store.pinned(gen)``); a concurrent prune + chunk GC (the
``ckpt_keep_generations`` janitor of another job sharing the checkpoint
directory, and so sharing its :class:`CheckpointStore`) must not delete
images or chunks out from under the restore — even when the restore
targets an *older* generation than the prune would keep (the
supervised-fallback case).
"""

from dataclasses import replace

import pytest

from repro import JobConfig, Launcher
from repro.apps.elastic import ElasticHaloApp
from repro.mana.checkpoint import CheckpointStore, store_for

SEED = 7


def _two_generations(ckpt_dir: str, nranks: int = 4) -> JobConfig:
    spec = replace(
        ElasticHaloApp.paper_config(), nranks=nranks, seed=SEED, blocks=8,
    )
    cfg = JobConfig(
        nranks=nranks, impl="mpich", mana=True, seed=SEED,
        ckpt_dir=ckpt_dir, loop_lag_window=2, deadline=60.0,
    )
    job = Launcher(cfg).launch(lambda r: ElasticHaloApp(spec))
    job.checkpoint_at_iteration("main", 2, kind="loop")  # gen 1 (iter 4)
    job.checkpoint_at_iteration("main", 4, kind="loop")  # gen 2 (iter 6)
    res = job.run(60.0)
    assert res.status == "completed", res.first_error()
    assert job.store.restorable() == [1, 2]
    return cfg


def test_prune_skips_pinned_generations(tmp_path):
    store = store_for(str(tmp_path / "ckpt"))
    _two_generations(store.base_dir)
    with store.pinned(1):
        store.prune(keep=1)
        store.gc()
        # keep=1 would have doomed gen 1; the pin protected it.
        assert store.restorable() == [1, 2]
    store.prune(keep=1)
    store.gc()
    assert store.restorable() == [2]


def test_pins_are_refcounted(tmp_path):
    store = store_for(str(tmp_path / "ckpt"))
    _two_generations(store.base_dir)
    with store.pinned(1):
        with store.pinned(1):
            pass
        assert 1 in store.pinned_generations()   # still held once
        store.prune(keep=1)
        assert 1 in store.restorable()
    assert 1 not in store.pinned_generations()


@pytest.mark.parametrize("elastic", [False, True])
def test_restore_survives_concurrent_prune(tmp_path, monkeypatch, elastic):
    """A prune+GC fired in the middle of image loading (after the first
    rank's image is read, before the rest) cannot tear the restore: the
    restart pinned its generation first."""
    store = store_for(str(tmp_path / "ckpt"))
    cfg = _two_generations(store.base_dir)
    real_load = CheckpointStore.load_image
    fired = {}

    def racing_load(self, path, expect_nranks=None):
        if not fired:
            # The restore targets gen 1; an unpinned prune with keep=1
            # would delete it right here.
            fired["prune"] = store.prune(keep=1)
            fired["gc"] = store.gc()
            assert 1 in store.pinned_generations()
        return real_load(self, path, expect_nranks=expect_nranks)

    monkeypatch.setattr(CheckpointStore, "load_image", racing_load)
    launcher = Launcher(cfg)
    if elastic:
        job = launcher.elastic_restart(store.base_dir, new_nranks=2,
                                       generation=1)
    else:
        job = launcher.restart(store.base_dir, generation=1)
    assert fired, "racing prune never fired"
    res = job.run(60.0)
    assert res.status == "completed", res.first_error()
    # The pin was released once the images were in memory...
    assert store.pinned_generations() == set()
    # ...and generation 1 survived the mid-restore prune.
    assert 1 in store.restorable()
    # With no restore in flight the same prune now collects it.
    store.prune(keep=1)
    store.gc()
    assert 1 not in store.restorable()

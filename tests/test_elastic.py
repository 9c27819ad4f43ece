"""Elastic restart: N-rank checkpoints restored onto M ranks.

Covers the layers of docs/PROTOCOLS.md §12: the partitioning plan
(:class:`repro.apps.Partitioner` / :class:`repro.apps.RepartitionPlan`),
the per-app ``repartition`` contract, the launcher's
:meth:`Launcher.elastic_restart`, the elastic :class:`RestartPolicy`
modes under supervision, and the fail-fast rank-count checks.

The acceptance oracle: :class:`ElasticHaloApp` is globally seeded with a
decomposition-independent update, so an M-rank elastic restore of an
N-rank checkpoint must finish **bit-identical** to a cold M-rank run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    ElasticRestartError,
    Job,
    JobConfig,
    Launcher,
    RestartError,
    RestartPolicy,
)
from repro.apps import Partitioner, RepartitionPlan
from repro.apps.comd import CoMDProxy
from repro.apps.elastic import GLOBAL_CELLS, ElasticHaloApp
from repro.apps.sw4 import Sw4Proxy
from repro.mana.checkpoint import store_for

SEED = 7
BLOCKS = 8


# ----------------------------------------------------------------------
# partitioning plan
# ----------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("total,nranks", [
        (240, 8), (240, 6), (10, 3), (7, 7), (5, 8), (1, 1),
    ])
    def test_bounds_cover_exactly(self, total, nranks):
        bounds = Partitioner.bounds(total, nranks)
        assert len(bounds) == nranks
        Partitioner.verify(bounds, total)
        owned = [i for lo, hi in bounds for i in range(lo, hi)]
        assert owned == list(range(total))

    def test_owner_of(self):
        bounds = Partitioner.bounds(10, 3)  # [0,4) [4,7) [7,10)
        assert [Partitioner.owner_of(i, bounds) for i in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_verify_rejects_gap(self):
        with pytest.raises(ValueError, match="gap or overlap"):
            Partitioner.verify([(0, 3), (4, 10)], 10)

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError, match="nranks"):
            Partitioner.bounds(10, 0)


class TestRepartitionPlan:
    @pytest.mark.parametrize("old,new", [(8, 4), (4, 8), (8, 6), (3, 5)])
    def test_rank_map_is_a_total_unique_assignment(self, old, new):
        plan = RepartitionPlan.build(
            [hi - lo for lo, hi in Partitioner.bounds(GLOBAL_CELLS, old)],
            new,
        )
        rm = plan.rank_map()
        assert sorted(rm) == list(range(old))
        # merged_into partitions the old ranks: every old rank's
        # identity lands on exactly one new rank.
        seen = []
        for r in range(new):
            seen.extend(plan.merged_into(r))
        assert sorted(seen) == list(range(old))

    def test_src_of_owns_first_item(self):
        plan = RepartitionPlan.build([30] * 8, 6)  # 240 cells, 8 -> 6
        for r in range(6):
            lo, hi = plan.new_bounds[r]
            src = plan.src_of(r)
            s_lo, s_hi = plan.old_bounds[src]
            assert s_lo <= lo < s_hi

    def test_uneven_shrink_seed_and_identity_can_differ(self):
        # 240 cells, 8 old ranks (30 each), 6 new ranks (40 each): new
        # rank 1 starts at cell 40 inside old rank 1's slice, but old
        # rank 1's first cell (30) lands on new rank 0 — the seed of a
        # new rank need not be an identity it inherits.
        plan = RepartitionPlan.build([30] * 8, 6)
        assert plan.src_of(1) == 1
        assert plan.rank_map()[1] == 0
        assert 1 not in plan.merged_into(1)


# ----------------------------------------------------------------------
# app-level repartition contract (no MPI needed)
# ----------------------------------------------------------------------
def _halo_apps(nranks: int, blocks_done: int = 3):
    spec = replace(ElasticHaloApp.paper_config(), nranks=nranks, seed=SEED)
    field = np.arange(float(GLOBAL_CELLS))
    apps = []
    for r, (lo, hi) in enumerate(Partitioner.bounds(GLOBAL_CELLS, nranks)):
        a = ElasticHaloApp(spec)
        a.field = field[lo:hi].copy()
        a.history = [1.5, 2.5, 3.5]
        a.blocks_done = blocks_done
        a.checksum = 7.5
        apps.append(a)
    return apps


class TestRepartitionContract:
    @pytest.mark.parametrize("old,new", [(8, 4), (4, 8), (8, 6)])
    def test_halo_field_rows_are_preserved(self, old, new):
        new_apps, plan = ElasticHaloApp.repartition(_halo_apps(old), new)
        assert len(new_apps) == new
        merged = np.concatenate([a.field for a in new_apps])
        assert np.array_equal(merged, np.arange(float(GLOBAL_CELLS)))
        for a in new_apps:
            assert a.spec.nranks == new
            assert a.blocks_done == 3
            assert a.checksum == 7.5        # replicated checksum copied
            assert a.history == [1.5, 2.5, 3.5]

    def test_comd_ledger_checksum_is_conserved(self):
        spec = replace(CoMDProxy.paper_config(), nranks=4)
        rng = np.random.default_rng(0)
        apps = []
        for r in range(4):
            a = CoMDProxy(spec)
            a.positions = rng.normal(size=(10, 3))
            a.velocities = rng.normal(size=(10, 3))
            a.vec3 = 0x123
            a.energy_history = [float(r)]
            a.blocks_done = 2
            a.checksum = float(r + 1)
            apps.append(a)
        new_apps, plan = CoMDProxy.repartition(apps, 2)
        # Ledger mode: per-rank partial checksums fold into the unique
        # inheritor, so the global sum is conserved.
        assert sum(a.checksum for a in new_apps) == pytest.approx(10.0)
        merged = np.concatenate([a.positions for a in new_apps])
        assert np.array_equal(
            merged, np.concatenate([a.positions for a in apps])
        )
        for r, a in enumerate(new_apps):
            # post_repartition recomputed the decomposition metadata.
            assert a.dims == tuple(a.dims)
            assert a.halo_pairs
            assert a.n_halo <= len(a.positions)

    def test_sw4_refuses_repartition(self):
        with pytest.raises(ElasticRestartError, match="pins the world"):
            Sw4Proxy.repartition([], 2)


# ----------------------------------------------------------------------
# end-to-end elastic restore (the §12 pipeline)
# ----------------------------------------------------------------------
def _spec(nranks: int) -> "WorkloadSpec":
    return replace(
        ElasticHaloApp.paper_config(),
        nranks=nranks, seed=SEED, blocks=BLOCKS,
    )


def _run_checkpointed(ckpt_dir: str, nranks: int, impl: str = "mpich",
                      triggers=(2,)) -> JobConfig:
    """Run ElasticHaloApp to completion, leaving LOOP checkpoints (lag
    window 2: a trigger at iteration k parks at k+2)."""
    spec = _spec(nranks)
    cfg = JobConfig(
        nranks=nranks, impl=impl, mana=True, seed=SEED,
        ckpt_dir=ckpt_dir, loop_lag_window=2, deadline=60.0,
    )
    job = Launcher(cfg).launch(lambda r: ElasticHaloApp(spec))
    for t in triggers:
        job.checkpoint_at_iteration("main", t, kind="loop")
    res = job.run(60.0)
    assert res.status == "completed", res.first_error()
    return cfg


def _cold_state(nranks: int, impl: str = "mpich", tmp_path=None) -> dict:
    spec = _spec(nranks)
    cfg = JobConfig(
        nranks=nranks, impl=impl, mana=True, seed=SEED, deadline=60.0,
        ckpt_dir=str(tmp_path) if tmp_path is not None else None,
    )
    res = Launcher(cfg).run(lambda r: ElasticHaloApp(spec), 60.0)
    assert res.status == "completed", res.first_error()
    return {
        "checksums": [a.checksum for a in res.apps()],
        "history": [list(a.history) for a in res.apps()],
    }


def _restored_state(res) -> dict:
    # Every restored rank finished every block, with a full history.
    assert [a.validate(None) for a in res.apps()] == [None] * len(res.ranks)
    return {
        "checksums": [a.checksum for a in res.apps()],
        "history": [list(a.history) for a in res.apps()],
    }


class TestElasticRestart:
    @pytest.mark.parametrize("old,new", [(8, 4), (4, 8), (8, 6)])
    def test_restore_is_bit_identical_to_cold_run(self, tmp_path, old, new):
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), old)
        job = Launcher(cfg).elastic_restart(cfg.ckpt_dir, new_nranks=new)
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        assert len(res.ranks) == new
        assert _restored_state(res) == _cold_state(new)

    @pytest.mark.parametrize("new", [4, 2])
    def test_cross_impl_elastic_migration(self, tmp_path, new):
        """Checkpoint under Open MPI at 4 ranks, restore under MPICH at
        the same and at a smaller size: §9 interoperability composes
        with resizing and the results stay bit-identical."""
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), 4, impl="openmpi")
        job = Launcher(cfg).elastic_restart(
            cfg.ckpt_dir, new_nranks=new, impl_override="mpich"
        )
        assert job.config.impl == "mpich"
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        assert _restored_state(res) == _cold_state(new, impl="mpich")

    def test_equal_size_delegates_to_plain_restart(self, tmp_path):
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), 4)
        job = Launcher(cfg).elastic_restart(cfg.ckpt_dir, new_nranks=4)
        # Plain restart path: no elastic provenance to stamp.
        assert job.coordinator.elastic_provenance is None
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        assert _restored_state(res) == _cold_state(4)

    def test_first_checkpoint_after_restore_is_stamped(self, tmp_path):
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), 8)
        job = Launcher(cfg).elastic_restart(cfg.ckpt_dir, new_nranks=4)
        assert job.coordinator.elastic_provenance == {
            "from_nranks": 8, "to_nranks": 4,
            "from_impl": "mpich", "to_impl": "mpich",
            "source_generation": 1,
        }
        job.checkpoint_at_iteration("main", 4, kind="loop")
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        manifest = job.store.read_manifest(job.store.generations()[-1])
        assert manifest["nranks"] == 4
        assert manifest["extra"]["elastic"] == {
            "from_nranks": 8, "to_nranks": 4,
            "from_impl": "mpich", "to_impl": "mpich",
            "source_generation": 1,
        }

    def test_supervised_elastic_shrink_records_events(self, tmp_path):
        from repro.faults import FaultPlan

        spec = _spec(8)
        cfg = JobConfig(
            nranks=8, impl="mpich", mana=True, seed=SEED,
            ckpt_dir=str(tmp_path / "ckpt"), loop_lag_window=2,
            deadline=60.0,
            faults=FaultPlan(seed=SEED).crash_at_loop(rank=1, iteration=5),
        )
        policy = RestartPolicy(
            max_restarts=2, elastic="shrink_on_node_loss", capacity=[4],
        )

        def arm(job):
            job.checkpoint_at_iteration("main", 2, kind="loop")

        res = Launcher(cfg, policy).supervise(
            lambda r: ElasticHaloApp(spec), timeout=60.0, on_launch=arm,
        )
        assert res.status == "completed", res.first_error()
        assert len(res.ranks) == 4
        ev = [e for e in res.recovery_events if e["event"] == "restart"]
        assert len(ev) == 1
        assert ev[0]["elastic"] == "shrink_on_node_loss"
        assert ev[0]["from_nranks"] == 8
        assert ev[0]["to_nranks"] == 4
        assert ev[0]["skipped_generations"] == []
        assert _restored_state(res) == _cold_state(4)


# ----------------------------------------------------------------------
# fail-fast rank-count checks
# ----------------------------------------------------------------------
class TestRankCountFailFast:
    def test_load_image_checks_expected_nranks(self, tmp_path):
        store = store_for(_run_checkpointed(str(tmp_path / "ckpt"), 4)
                          .ckpt_dir)
        path = store.image_path(1, 0)
        with pytest.raises(RestartError, match="elastic restart"):
            store.load_image(path, expect_nranks=8)
        # The happy path still loads.
        assert store.load_image(path, expect_nranks=4).nranks == 4

    def test_job_rejects_wrong_image_count(self, tmp_path):
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), 4)
        store = store_for(cfg.ckpt_dir)
        images = [store.load_image(store.image_path(1, r))
                  for r in range(4)]
        bad = JobConfig(nranks=4, impl="mpich", mana=True,
                        ckpt_dir=cfg.ckpt_dir)
        with pytest.raises(RestartError, match="elastic restart"):
            Job(bad, images=images[:3])

    def test_job_rejects_mismatched_image_nranks(self, tmp_path):
        cfg = _run_checkpointed(str(tmp_path / "ckpt"), 4)
        store = store_for(cfg.ckpt_dir)
        images = [store.load_image(store.image_path(1, r))
                  for r in range(3)]
        bad = JobConfig(nranks=3, impl="mpich", mana=True,
                        ckpt_dir=cfg.ckpt_dir)
        with pytest.raises(RestartError, match="checkpointed at nranks=4"):
            Job(bad, images=images)

    def test_policy_validates_elastic_mode(self):
        with pytest.raises(ValueError, match="elastic mode"):
            RestartPolicy(elastic="teleport", capacity=[4])
        with pytest.raises(ValueError, match="capacity"):
            RestartPolicy(elastic="grow_to_capacity")
        # The default stays permissive.
        assert RestartPolicy().elastic is None

    def test_non_elastic_app_refused_end_to_end(self, tmp_path):
        """A checkpoint of an app with elastic=False must raise, not
        mis-restore."""
        from tests.miniapps import RingApp

        cfg = JobConfig(
            nranks=4, impl="mpich", mana=True, seed=SEED,
            ckpt_dir=str(tmp_path / "ckpt"), loop_lag_window=2,
            deadline=60.0,
        )
        job = Launcher(cfg).launch(lambda r: RingApp(12))
        job.checkpoint_at_iteration("main", 2, kind="loop")
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        with pytest.raises(ElasticRestartError):
            Launcher(cfg).elastic_restart(cfg.ckpt_dir, new_nranks=2)

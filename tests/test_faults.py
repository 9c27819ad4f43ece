"""Deterministic fault injection and self-healing recovery.

Covers the four layers of the subsystem: the declarative plan
(:mod:`repro.faults.plan`), the integrity-checked image format
(:mod:`repro.mana.checkpoint`), the coordinator's bounded-retry round
protocol, and the supervised restart loop
(:meth:`repro.runtime.Launcher.supervise`).
"""

import os
import threading
import time

import pytest

from repro import FaultPlan, FaultSpec, InjectedFault, JobConfig, Launcher
from repro.faults.plan import (
    CORRUPT_BITFLIP,
    CORRUPT_TRUNCATE,
    CRASH,
    SITE_MID_SAVE,
    SITE_POST_DRAIN,
    SITE_PRE_DRAIN,
)
from repro.faults.scenarios import SCENARIOS
from repro.mana.checkpoint import CheckpointImage, store_for
from repro.util.errors import CheckpointError, IntegrityError, RestartError


# ----------------------------------------------------------------------
# plan layer
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_crash_requires_valid_site(self):
        with pytest.raises(ValueError, match="crash site"):
            FaultSpec(CRASH, rank=0, site="nowhere")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(kind="crsh", rank=1), "fault kind"),
        (dict(kind=CRASH, site="loop", at=3), "needs rank"),
        (dict(kind=CRASH, rank=0, site="mpi-call", at=0), "at >= 1"),
        (dict(kind=CRASH, rank=0, site="loop"), "at >= 0"),
        (dict(kind="msg-drop", src=0), "needs dst"),
        (dict(kind="round-abort"), "needs generation"),
        (dict(kind="msg-drop", src=0, dst=1, nth=0), "nth >= 1"),
        (dict(kind="corrupt-chunk", rank=0, nth=0), "nth >= 1"),
        (dict(kind="round-abort", generation=1, attempt=0), "attempt >= 1"),
    ])
    def test_spec_that_can_never_fire_is_refused(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultSpec(**kwargs)

    def test_corrupt_requires_valid_mode(self):
        with pytest.raises(ValueError, match="corruption mode"):
            FaultSpec("corrupt-image", rank=0, generation=1, mode="eat")

    def test_fluent_builders_accumulate(self):
        plan = (
            FaultPlan(seed=3)
            .crash_at_loop(rank=1, iteration=9)
            .corrupt_image(generation=2, rank=0, mode=CORRUPT_BITFLIP)
            .disk_full(rank=1, generation=2)
            .drop_message(src=0, dst=1, nth=2)
            .delay_message(src=1, dst=0, seconds=4.0)
            .abort_round(generation=1)
        )
        assert len(plan.specs) == 6
        descs = plan.describe()
        assert "crash rank 1 at loop 'main' iteration 9" in descs
        assert "bitflip image of rank 0 generation 2" in descs
        assert any("disk full" in d for d in descs)
        assert any("drop message #2 0->1" in d for d in descs)
        assert any("delay 4.0s" in d for d in descs)
        assert any("abort checkpoint round" in d for d in descs)

    def test_seeded_crash_is_seed_deterministic(self):
        a = FaultPlan.seeded_crash(11, nranks=8)
        b = FaultPlan.seeded_crash(11, nranks=8)
        c = FaultPlan.seeded_crash(12, nranks=8)
        assert a.specs[0] == b.specs[0]
        assert (a.specs[0].rank, a.specs[0].at) != (
            c.specs[0].rank, c.specs[0].at
        )


# ----------------------------------------------------------------------
# image integrity layer
# ----------------------------------------------------------------------
def _image(rank=0, generation=1, nranks=2):
    return CheckpointImage(
        rank=rank, nranks=nranks, impl="mpich", kind="loop",
        generation=generation, app={"acc": [1.0, 2.0]},
        loops={"main": 4}, vid_table=None, drain_buffer=None,
        clock_state={"now": 1.25}, rng_state=None, cs_count=17, epoch=0,
    )


def _write_generation(store, generation, nranks=2, cold=True):
    for r in range(nranks):
        store.save_v4(_image(rank=r, generation=generation, nranks=nranks))
    store.write_manifest(generation, nranks=nranks, impl="mpich",
                         kind="loop", cold_restartable=cold, loop_target=4)


class TestImageIntegrity:
    def test_verify_ok_and_header_contents(self, tmp_path):
        store = store_for(str(tmp_path))
        nbytes = store.save_v4(_image())
        path = store.image_path(1, 0)
        hdr = store.verify_image(path)
        assert nbytes == os.path.getsize(path)
        assert hdr["rank"] == 0 and hdr["generation"] == 1
        assert hdr["payload_sha256"]

    def test_truncated_image_is_integrity_error(self, tmp_path):
        store = store_for(str(tmp_path))
        store.save_v4(_image())
        path = store.image_path(1, 0)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 7)
        with pytest.raises(IntegrityError, match="truncated"):
            store.verify_image(path)
        with pytest.raises(IntegrityError, match="truncated"):
            store.load_image(path)

    def test_bitflipped_payload_is_integrity_error(self, tmp_path):
        store = store_for(str(tmp_path))
        store.save_v4(_image())
        path = store.image_path(1, 0)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 3)
            b = f.read(1)
            f.seek(size - 3)
            f.write(bytes([b[0] ^ 0xFF]))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            store.load_image(path)

    def test_unrecognized_file_is_restart_error(self, tmp_path):
        path = str(tmp_path / "junk.img")
        with open(path, "wb") as f:
            f.write(b"this is not a checkpoint image at all")
        with pytest.raises(RestartError, match="format"):
            store_for(str(tmp_path)).verify_image(path)

    def test_validate_generation_reports_problems(self, tmp_path):
        store = store_for(str(tmp_path))
        assert store.validate(1) != []  # no manifest
        _write_generation(store, 1)
        assert store.validate(1) == []
        # corrupt rank 1 -> named in the problem list
        path = store.image_path(1, 1)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        problems = store.validate(1)
        assert any("rank 1" in p and "truncated" in p for p in problems)

    def test_restorable_generation_selection(self, tmp_path):
        store = store_for(str(tmp_path))
        assert store.latest_restorable() is None
        _write_generation(store, 1)
        _write_generation(store, 2)
        _write_generation(store, 3, cold=False)  # in-session: not cold
        assert store.restorable() == [1, 2]
        # bit rot in generation 2 drops it from the restorable set
        path = store.image_path(2, 0)
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) - 1)
            f.write(b"\x00")
        assert store.latest_restorable() == 1


# ----------------------------------------------------------------------
# coordinator layer
# ----------------------------------------------------------------------
class TestCoordinatorDiagnostics:
    def test_ticket_timeout_names_phase_and_outstanding_ranks(self, tmp_path):
        from repro.mana.coordinator import CheckpointCoordinator
        from repro.simtime.cost import FilesystemProfile

        coord = CheckpointCoordinator(
            2, None, FilesystemProfile.discovery_nfsv3(), loop_lag_window=4
        )
        tk = coord.request_checkpoint()
        att = coord.begin_participation(0)

        def lone_rank():
            try:
                coord.quiesce(0, 1.0, att)  # blocks: rank 1 never arrives
            except Exception:
                pass

        t = threading.Thread(target=lone_rank, daemon=True)
        t.start()
        time.sleep(0.2)
        with pytest.raises(CheckpointError) as ei:
            tk.wait(timeout=0.5)
        msg = str(ei.value)
        assert "did not complete" in msg
        assert "quiesce" in msg
        assert "outstanding ranks [1]" in msg
        coord.abort(RuntimeError("test teardown"))
        t.join(5)

    def test_gate_timeout_names_phase_and_ranks(self, monkeypatch):
        from repro.mana import coordinator
        from repro.simtime.cost import FilesystemProfile

        monkeypatch.setattr(coordinator, "PHASE_TIMEOUT_S", 0.2)
        coord = coordinator.CheckpointCoordinator(
            2, None, FilesystemProfile.discovery_nfsv3(), loop_lag_window=4
        )
        coord.request_checkpoint()
        att = coord.begin_participation(0)
        with pytest.raises(
            CheckpointError,
            match=r"checkpoint phase 'quiesce' timed out .*: arrived ranks "
                  r"\[0\], outstanding ranks \[1\]",
        ):
            coord.quiesce(0, 1.0, att)  # rank 1 never arrives

    def test_round_fails_once_its_retries_are_spent(self, tmp_path):
        from repro.faults.scenarios import SurvivorApp, _config

        plan = FaultPlan(seed=7)
        for attempt in (1, 2, 3):
            plan.abort_round(generation=1, attempt=attempt)
        cfg = _config(str(tmp_path), 7, plan)
        job = Launcher(cfg).launch(lambda r: SurvivorApp())
        tk = job.checkpoint_at_iteration("main", 2, kind="loop")
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        with pytest.raises(CheckpointError,
                           match=r"failed after 3 aborted attempt\(s\)"):
            tk.wait(0)
        assert [e["retrying"] for e in job.coordinator.round_events] == \
            [True, True, False]


# ----------------------------------------------------------------------
# end-to-end: injection determinism + supervised self-healing
# ----------------------------------------------------------------------
class TestInjectionEndToEnd:
    def _run_crash(self, seed):
        from repro.faults.scenarios import SurvivorApp

        plan = FaultPlan(seed=seed).crash_at_call(rank=2, n=25)
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, seed=seed,
                        deadline=30.0, faults=plan)
        res = Launcher(cfg).run(lambda r: SurvivorApp(8), timeout=30)
        return res, cfg.faults.trace()

    def test_crash_at_call_fires_deterministically(self):
        res1, trace1 = self._run_crash(5)
        res2, trace2 = self._run_crash(5)
        assert res1.status == "failed"
        assert any("injected crash" in (r.error or "") for r in res1.ranks)
        assert trace1 == trace2
        assert trace1[0]["what"].startswith("crash rank 2")
        # the victim's virtual time of death is scheduling-independent
        assert res1.ranks[2].runtime == res2.ranks[2].runtime
        # ... and only the victim counts as the originating failure,
        # however the survivors' tracebacks read
        assert [r.originating for r in res1.ranks] == \
            [False, False, True, False]

    @pytest.mark.parametrize("site", [SITE_PRE_DRAIN, SITE_POST_DRAIN])
    def test_pre_drain_crash_fails_round_then_supervisor_recovers(
            self, tmp_path, site):
        from repro.faults.scenarios import (
            SurvivorApp, _arm_triggers, _config, baseline_checksums,
        )
        from repro.runtime import RestartPolicy

        plan = FaultPlan(seed=7).crash_in_checkpoint(
            rank=1, generation=2, site=site)
        cfg = _config(str(tmp_path), 7, plan)
        res = Launcher(cfg, RestartPolicy(max_restarts=2)).supervise(
            lambda r: SurvivorApp(), timeout=60.0, on_launch=_arm_triggers,
        )
        assert res.status == "completed", res.first_error()
        assert res.restarts == 1
        restored = [e["generation"] for e in res.recovery_events
                    if e["event"] == "restart"]
        assert restored == [1]
        assert [round(a.checksum, 9) for a in res.apps()] == \
            baseline_checksums(7)

    def test_supervisor_gives_up_without_restorable_generation(
            self, tmp_path):
        from repro.faults.scenarios import SurvivorApp
        from repro.runtime import RestartPolicy

        # crash before any checkpoint exists: nothing to restore from
        plan = FaultPlan(seed=7).crash_at_loop(rank=0, iteration=1)
        cfg = JobConfig(nranks=4, impl="mpich", mana=True, seed=7,
                        ckpt_dir=str(tmp_path), deadline=30.0, faults=plan)
        res = Launcher(cfg, RestartPolicy(max_restarts=2)).supervise(
            lambda r: SurvivorApp(8), timeout=30.0,
        )
        assert res.status == "failed"
        assert res.restarts == 0
        kinds = [e["event"] for e in res.recovery_events]
        assert kinds == ["rank-failure", "no-restorable-generation"]

    def test_restart_budget_is_bounded(self, tmp_path):
        from repro.faults.scenarios import (
            SurvivorApp, _arm_triggers, _config,
        )
        from repro.runtime import RestartPolicy

        # rank 1 dies at iteration 9 on the first run AND again on the
        # restarted run (iteration 9 re-executes after restoring the
        # generation parked at iteration 8) — with a zero-restart budget
        # the supervisor must stop after the first failure.
        plan = (FaultPlan(seed=7)
                .crash_at_loop(rank=1, iteration=9)
                .crash_at_loop(rank=2, iteration=9))
        cfg = _config(str(tmp_path), 7, plan)
        res = Launcher(cfg, RestartPolicy(max_restarts=0)).supervise(
            lambda r: SurvivorApp(), timeout=60.0, on_launch=_arm_triggers,
        )
        assert res.status == "failed"
        assert res.restarts == 0
        assert any(e["event"] == "restart-budget-exhausted"
                   for e in res.recovery_events)


class TestScenarioSweep:
    """The CLI scenarios double as the paper-style acceptance suite."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_table_entry_self_heals(self, name):
        from repro.faults.scenarios import run_scenario

        out = run_scenario(name, seed=7)
        assert out["ok"], out

    def test_self_heal_acceptance(self):
        from repro.faults.scenarios import run_scenario

        out = run_scenario("self-heal", seed=7)
        assert out["ok"], out

    def test_disk_full_leaves_no_torn_files(self):
        from repro.faults.scenarios import run_scenario

        out = run_scenario("disk-full", seed=7)
        assert out["ok"], out
        assert out["torn_files"] == []

    def test_round_abort_retries_without_restart(self):
        from repro.faults.scenarios import run_scenario

        out = run_scenario("round-abort", seed=7)
        assert out["ok"], out
        aborts = [e for e in out["events"] if e["event"] == "round-abort"]
        assert aborts and aborts[0]["retrying"]

    def test_chunk_corrupt_self_heals(self):
        """Bit rot in one format-5 store chunk: the supervisor must fall
        back to the intact prior generation and finish correctly."""
        from repro.faults.scenarios import run_scenario

        out = run_scenario("chunk-corrupt", seed=7)
        assert out["ok"], out
        restored = [e["generation"] for e in out["events"]
                    if e["event"] == "restart"]
        assert restored == [1]  # gen 2's chunk is rotten, gen 1 intact
        fired = {e["fault"] for e in out["faults_fired"]}
        assert "corrupt-chunk" in fired
        chunk_ev = next(e for e in out["faults_fired"]
                        if e["fault"] == "corrupt-chunk")
        assert len(chunk_ev["chunk"]) == 12  # names the rotten chunk
        # Manifests carry per-generation dedup stats for diagnostics.
        assert out["dedup"] and all(
            "chunks_written" in d for d in out["dedup"].values()
        )

    def test_workdir_is_kept_and_temp_dir_is_not(self, tmp_path, monkeypatch):
        """The driver owns the checkpoint directory: a caller's
        ``workdir`` survives with its generations, its own temporary
        one is removed."""
        import tempfile

        from repro.faults.scenarios import run_scenario

        out = run_scenario("crash-restore", seed=7, workdir=str(tmp_path))
        assert out["ok"], out
        assert (tmp_path / "ckpt_0002" / "manifest.json").exists()
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        assert run_scenario("msg-delay", seed=7)["ok"]
        assert made and not any(os.path.exists(d) for d in made)

    def test_unknown_name_is_a_keyerror(self):
        from repro.faults.scenarios import run_scenario

        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            run_scenario("nope")

    def test_recovery_trace_is_deterministic(self):
        from repro.faults.scenarios import fault_smoke, recovery_fingerprint

        out = fault_smoke(seed=7)
        assert out["self_heal_ok"]
        assert out["deterministic"], (
            recovery_fingerprint(out["run"]), out["rerun"],
        )

    def test_elastic_smoke(self):
        from repro.faults.scenarios import elastic_smoke

        out = elastic_smoke(seed=7)
        assert out["ok"] and out["deterministic"], out
        assert [out[k]["to_nranks"] for k in ("shrink", "grow", "migrate")] \
            == [4, 8, 4]

    # (scenario, rank the plan kills) — the rank-failure event must name
    # that rank and carry its seed-deterministic clock, whichever
    # surviving rank happened to observe the abort first.
    VICTIMS = [("crash-restore", 1), ("truncate-fallback", 2),
               ("chunk-corrupt", 2), ("self-heal", 1)]

    @pytest.mark.parametrize("name,victim", VICTIMS)
    def test_rank_failure_names_the_injected_victim(self, name, victim):
        from repro.faults.scenarios import recovery_fingerprint, run_scenario

        fingerprints = []
        for _ in range(10):
            out = run_scenario(name, seed=7)
            failure = next(e for e in out["events"]
                           if e["event"] == "rank-failure")
            assert failure["rank"] == victim, failure
            fp = recovery_fingerprint(out)
            if fp not in fingerprints:
                fingerprints.append(fp)
        assert len(fingerprints) == 1, [
            [e for e in fp["events"] if e["event"] == "rank-failure"]
            for fp in fingerprints
        ]

    def test_hot_path_untouched_without_plan(self):
        """faults=None must leave every hook disconnected."""
        cfg = JobConfig(nranks=2, impl="mpich", mana=True)
        job = Launcher(cfg).launch(
            lambda r: __import__("tests.miniapps", fromlist=["RingApp"])
            .RingApp(4)
        )
        assert job.injector is None
        assert job.fabric.injector is None
        assert job.coordinator.injector is None
        res = job.run(30)
        assert res.status == "completed"

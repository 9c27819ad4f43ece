"""CLI smoke tests (python -m repro)."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main


def test_apps_listing(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for app in ("comd", "hpcg", "lammps", "lulesh", "sw4", "gromacs"):
        assert app in out


def test_impls_listing(capsys):
    assert main(["impls"]) == 0
    out = capsys.readouterr().out
    assert "openmpi" in out and "64" in out
    assert "mpich" in out and "32" in out


def test_run_native(capsys):
    assert main(["run", "lulesh", "--ranks", "4", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "status   : completed" in out


def test_run_mana(capsys):
    rc = main(["run", "comd", "--ranks", "4", "--blocks", "3", "--mana"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crossings" in out


def test_preempt_and_restart_roundtrip(tmp_path, capsys):
    ck = str(tmp_path / "ck")
    rc = main([
        "run", "comd", "--ranks", "4", "--blocks", "8",
        "--preempt-at", "2", "--ckpt-dir", ck, "--lag-window", "2",
    ])
    assert rc == 0
    assert "preempted" in capsys.readouterr().out
    rc = main(["restart", ck])
    assert rc == 0
    assert "completed" in capsys.readouterr().out


def test_restart_under_other_impl(tmp_path, capsys):
    ck = str(tmp_path / "ck")
    main([
        "run", "lammps", "--ranks", "4", "--blocks", "8",
        "--preempt-at", "2", "--ckpt-dir", ck, "--lag-window", "2",
    ])
    capsys.readouterr()
    rc = main(["restart", ck, "--impl", "exampi"])
    assert rc == 0
    assert "restarted under exampi" in capsys.readouterr().out


def test_report_single_table(capsys):
    assert main(["report", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_report_table3(capsys):
    """table3 takes (scale, ranks_cap) and no case cache."""
    assert main(["report", "table3", "--scale", "0.02",
                 "--ranks-cap", "2"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_report_experiments_table_names_real_experiments():
    """``report`` reads the harness's registry, not a copy of it."""
    import repro.__main__ as cli
    from repro.harness import experiments

    assert cli.EXPERIMENTS is experiments.EXPERIMENTS
    for name in experiments.EXPERIMENTS:
        assert callable(getattr(experiments, name)), name


def test_report_ablation(capsys):
    assert main(["report", "ablation_vid_lookup"]) == 0
    out = capsys.readouterr().out
    assert "legacy" in out and "new" in out


def test_faults_single_scenario(capsys):
    assert main(["faults", "round-abort"]) == 0
    out = capsys.readouterr().out
    assert "[ok ] round-abort" in out
    assert "self-healed" in out


def test_faults_chunk_corrupt_prints_dedup(capsys):
    assert main(["faults", "chunk-corrupt"]) == 0
    out = capsys.readouterr().out
    assert "[ok ] chunk-corrupt" in out
    assert "chunks written" in out and "reused" in out


def test_faults_rejects_a_name_not_in_the_table(capsys):
    """The scenario name is checked against the table, not a list
    hard-coded in the parser."""
    with pytest.raises(SystemExit) as exc:
        main(["faults", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


# What the three correctness smokes print when they pass (seed 7); the
# wording is part of the CI contract.
SMOKE_STDOUT = {
    "fault": (
        "self-heal    : ok (status=completed, restarts=1, "
        "restored_gens=[1])\n"
        "checksums    : match fault-free run\n"
        "deterministic: ok (recovery trace identical across two seeded "
        "runs)\n"
        "fault-smoke: seeded crash + corruption recovered "
        "deterministically\n"
    ),
    "elastic": (
        "shrink 8->4           : ok (status=completed, restarts=1, "
        "8->4 ranks, bit-identical to cold run)\n"
        "grow 4->8             : ok (status=completed, restarts=1, "
        "4->8 ranks, bit-identical to cold run)\n"
        "openmpi 8 -> mpich 4  : ok (status=completed, restarts=1, "
        "8->4 ranks, bit-identical to cold run)\n"
        "deterministic         : ok (recovery trace identical across two "
        "seeded shrinks)\n"
        "elastic-smoke: N->M restores reproduce cold M-rank runs "
        "bit-identically\n"
    ),
    "crash": (
        "crash points : 102 enumerated across contexts "
        "[drain, gc, prune, save]; 24 killed\n"
        "restore/repair: ok (every kill left the store restorable or "
        "fsck-repairable, zero leaks)\n"
        "deterministic : ok (verdicts identical across two runs)\n"
        "crash-smoke: store survives syscall-boundary kills\n"
    ),
}


def test_fault_smoke(capsys):
    assert main(["smoke", "fault"]) == 0
    assert capsys.readouterr().out == SMOKE_STDOUT["fault"]


@pytest.mark.parametrize("section", ["elastic", "crash"])
def test_smoke_section(section, capsys):
    assert main(["smoke", section]) == 0
    assert capsys.readouterr().out == SMOKE_STDOUT[section]


def test_smoke_unknown_section_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smoke", "nope"])
    assert exc.value.code == 2


def test_old_smoke_commands_are_not_aliased(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fault-smoke"])
    assert exc.value.code == 2


def _patch_benchmark_run(monkeypatch, returncode):
    import subprocess
    from types import SimpleNamespace

    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return SimpleNamespace(returncode=returncode)

    monkeypatch.setattr(subprocess, "run", fake_run)
    return calls


def test_smoke_perf_runs_the_declared_benchmark(monkeypatch, capsys):
    """``smoke perf`` runs BENCHMARK.json's own command plus --smoke
    from the checkout root, and passes its exit code on."""
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["command"]
    calls = _patch_benchmark_run(monkeypatch, returncode=0)
    assert main(["smoke", "perf"]) == 0
    assert calls == [(declared + ["--smoke"], {"cwd": root})]
    _patch_benchmark_run(monkeypatch, returncode=3)
    assert main(["smoke", "perf"]) == 3
    assert "perf-smoke: FAILED" in capsys.readouterr().out


def test_smoke_perf_skipped_outside_a_checkout(monkeypatch, capsys, tmp_path):
    """An installed package has no BENCHMARK.json three levels up: the
    section says so and is skipped, not failed."""
    import repro.__main__ as cli

    calls = _patch_benchmark_run(monkeypatch, returncode=0)
    fake = tmp_path / "site-packages" / "repro" / "__main__.py"
    monkeypatch.setattr(cli, "__file__", str(fake))
    assert main(["smoke", "perf"]) == 0
    assert calls == []
    assert "skipped" in capsys.readouterr().out


def test_smoke_all_sections_one_verdict(monkeypatch, capsys):
    """No section named: all four run, in order, then one verdict."""
    import repro.__main__ as cli

    ran = []
    results = {"fault": 0, "elastic": 1, "crash": 0, "perf": None}
    monkeypatch.setattr(cli, "_SMOKES", {
        name: (lambda args, name=name: ran.append(name) or results[name])
        for name in cli._SMOKES
    })
    assert main(["smoke"]) == 1
    assert ran == ["fault", "elastic", "crash", "perf"]
    assert capsys.readouterr().out == (
        "smoke: fault ok, elastic FAILED, crash ok, perf skipped\n"
    )
    results["elastic"] = 0
    assert main(["smoke"]) == 0


def test_fsck_missing_directory_exits_2(tmp_path, capsys):
    """A mistyped directory must not pass a CI gate as "clean"."""
    missing = str(tmp_path / "no-such-dir")
    for extra in ([], ["--repair"]):
        assert main(["fsck", missing] + extra) == 2
        assert capsys.readouterr().out == (
            f"fsck: no such directory: {missing}\n"
        )


def test_check_only_fsck_leaves_temp_files(tmp_path):
    """``fsck`` without ``--repair`` mutates nothing, in a fresh process
    too: a dead writer's chunk temp file stays, so a second check finds
    the same dirty directory."""
    from repro.mana.checkpoint import CheckpointImage, store_for

    store = store_for(str(tmp_path / "ckpt"))
    store.save(CheckpointImage(
        rank=0, nranks=1, impl="mpich", kind="loop", generation=1,
        app={"x": 1}, loops={}, vid_table=None, drain_buffer=None,
        clock_state={}, rng_state=None, cs_count=0, epoch=0,
    ))
    store.write_manifest(1, nranks=1, impl="mpich", kind="loop",
                         cold_restartable=True, loop_target=None)
    digest = sorted(store.chunks.digests())[0]
    # pid 99999999 is above any pid_max: the writer is long dead.
    stray = store.chunks.chunk_path(digest) + ".99999999.1.tmp"
    with open(stray, "wb") as f:
        f.write(b"torn")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", store.base_dir],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "dirty" in proc.stdout
        assert proc.stderr == ""
        assert os.path.exists(stray)


def test_restart_without_checkpoints_exits_1(tmp_path, capsys):
    assert main(["restart", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        f"restart: no checkpoints under {tmp_path}\n"
    )


def test_legacy_vid_run_fails_on_openmpi(capsys):
    rc = main([
        "run", "comd", "--ranks", "2", "--blocks", "2", "--mana",
        "--impl", "openmpi", "--vid-design", "legacy",
    ])
    assert rc == 1
    assert "IncompatibleHandleError" in capsys.readouterr().out

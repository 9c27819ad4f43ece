#!/usr/bin/env python
"""Preemptible jobs — the paper's headline use case.

The introduction's motivation: DOE centers want long-running jobs to be
*preemptible on minutes of notice* so urgent real-time workloads (XFEL
analysis, disaster response) can take the machine.  Library-based
checkpointing can't always reach its next synchronized iteration in
time; MANA checkpoints transparently wherever the application happens
to be.

This example runs an HPCG-like CG solve, preempts it twice (each
preemption writes a checkpoint and kills the job), and finishes the work
in a third session — with bit-identical results to an uninterrupted run.
A second act replays the story on a *shrinking machine*: the preempting
workload takes half the nodes, so the job resumes elastically on 4 of
its 8 ranks, then grows back to 8 when the machine frees up
(docs/PROTOCOLS.md §12).

Run:  python examples/preemptible_job.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import ElasticHaloApp, HpcgProxy


def main() -> None:
    spec = replace(HpcgProxy.paper_config(), nranks=8, blocks=12)

    # Uninterrupted reference.
    ref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: HpcgProxy(spec)
    )
    assert ref.status == "completed", ref.first_error()
    ref_residuals = ref.apps()[0].residual_history
    print(f"reference: {len(ref_residuals)} CG iterations, "
          f"final residual {ref_residuals[-1]:.6e}")

    with tempfile.TemporaryDirectory(prefix="preemptible-") as ckpt_dir:
        cfg = JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir,
                        loop_lag_window=2)

        # --- session 1: starts the job, gets preempted -----------------------
        job1 = Launcher(cfg).launch(lambda r: HpcgProxy(spec))
        t1 = job1.checkpoint_at_iteration("main", 2, kind="loop", mode="exit")
        job1.start()
        info1 = t1.wait()
        r1 = job1.wait()
        print(f"\nsession 1: PREEMPTED at iteration {info1['loop_target']} "
              f"(image: {info1['mean_bytes_per_rank'] / 1e6:.0f} MB/rank, "
              f"written in {info1['ckpt_time']:.1f} s) -> {r1.status}")

        # --- session 2: restarts, gets preempted again -----------------------
        job2 = Launcher(cfg).restart(ckpt_dir)
        t2 = job2.coordinator.checkpoint_at_iteration("main", 7, kind="loop",
                                                      mode="exit")
        job2.start()
        info2 = t2.wait()
        r2 = job2.wait()
        print(f"session 2: resumed, PREEMPTED again at iteration "
              f"{info2['loop_target']} -> {r2.status}")

        # --- session 3: runs to completion -----------------------------------
        job3 = Launcher(cfg).restart(ckpt_dir)
        r3 = job3.run()
        assert r3.status == "completed", r3.first_error()
        residuals = r3.apps()[0].residual_history
        print(f"session 3: completed; {len(residuals)} CG iterations total, "
              f"final residual {residuals[-1]:.6e}")

        assert residuals == ref_residuals, "preemption changed the solve!"
        print("\nthree sessions, two preemptions, identical solve ✓")

    # ======================================================================
    # Act 2: the preempting workload takes half the machine.  Instead of
    # waiting for 8 nodes to return, the job resumes elastically on the
    # 4 ranks left, then grows back to 8 when capacity frees up.
    # ======================================================================
    espec = replace(ElasticHaloApp.paper_config(), blocks=12)
    eref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: ElasticHaloApp(replace(espec, nranks=8))
    )
    assert eref.status == "completed", eref.first_error()
    eref_checksum = eref.apps()[0].checksum

    with tempfile.TemporaryDirectory(prefix="preemptible-elastic-") as eckpt:
        ecfg = JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=eckpt,
                         loop_lag_window=2)

        ejob1 = Launcher(ecfg).launch(
            lambda r: ElasticHaloApp(replace(espec, nranks=8))
        )
        et1 = ejob1.checkpoint_at_iteration("main", 2, kind="loop",
                                            mode="exit")
        ejob1.start()
        einfo1 = et1.wait()
        ejob1.wait()
        print(f"\nelastic session 1: PREEMPTED at iteration "
              f"{einfo1['loop_target']}; the urgent job takes 4 of 8 nodes")

        ejob2 = Launcher(ecfg).elastic_restart(eckpt, new_nranks=4)
        et2 = ejob2.coordinator.checkpoint_at_iteration("main", 7, kind="loop",
                                                        mode="exit")
        ejob2.start()
        einfo2 = et2.wait()
        ejob2.wait()
        print(f"elastic session 2: resumed on 4 ranks, PREEMPTED again at "
              f"iteration {einfo2['loop_target']}; the machine frees up")

        ejob3 = Launcher(ecfg).elastic_restart(eckpt, new_nranks=8)
        er3 = ejob3.run()
        assert er3.status == "completed", er3.first_error()
        echecksum = er3.apps()[0].checksum
        assert echecksum == eref_checksum, (
            "elastic preemption changed results!"
        )
        print(f"elastic session 3: grew back to 8 ranks and completed\n"
              f"\n8 -> 4 -> 8 ranks across two preemptions, checksum "
              f"{echecksum!r} == uninterrupted 8-rank run ✓")


if __name__ == "__main__":
    main()

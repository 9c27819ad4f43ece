#!/usr/bin/env python
"""Checkpoint under one MPI implementation, restart under another.

[GPC19 §3.6] demonstrated this once, for a GROMACS build restricted to
MPI primitives.  The paper's §9 names full interoperability — arbitrary
applications with user-created MPI objects — as future work that the new
implementation-oblivious virtual ids make possible.  This simulation
implements it: the records behind every virtual id are implementation-
neutral, so replay can target any library.

The chain below migrates a CoMD run (which creates communicators,
derived datatypes, and uses MAXLOC reductions) across THREE MPI
implementations with different handle representations:

    MPICH (32-bit int handles)
      -> Open MPI (64-bit pointer handles)
      -> ExaMPI (enum datatypes + lazy pointer constants)

Run:  python examples/cross_impl_restart.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import CoMDProxy


def main() -> None:
    spec = replace(CoMDProxy.paper_config(), nranks=8, blocks=12)

    ref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: CoMDProxy(spec)
    )
    assert ref.status == "completed", ref.first_error()
    ref_energy = ref.apps()[0].energy_history[-1]
    print(f"reference (mpich only): final energy {ref_energy:.6f}")

    with tempfile.TemporaryDirectory(prefix="cross-impl-") as ckpt_dir:
        cfg = JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir,
                        loop_lag_window=2)

        # Leg 1: MPICH, preempted early.
        job = Launcher(cfg).launch(lambda r: CoMDProxy(spec))
        t = job.checkpoint_at_iteration("main", 2, kind="loop", mode="exit")
        job.start()
        info = t.wait()
        job.wait()
        print(f"leg 1: mpich    ran to iteration {info['loop_target']}, "
              f"checkpointed (32-bit int handles)")

        # Leg 2: restart under Open MPI, preempted again.
        job = Launcher(cfg).restart(ckpt_dir, impl_override="openmpi")
        t = job.coordinator.checkpoint_at_iteration("main", 7, kind="loop",
                                                    mode="exit")
        job.start()
        info = t.wait()
        job.wait()
        print(f"leg 2: openmpi  ran to iteration {info['loop_target']}, "
              f"checkpointed (64-bit pointer handles)")

        # Leg 3: finish under ExaMPI.
        job = Launcher(cfg).restart(ckpt_dir, impl_override="exampi")
        res = job.run()
        assert res.status == "completed", res.first_error()
        energy = res.apps()[0].energy_history[-1]
        print(f"leg 3: exampi   completed (enum datatypes, lazy constants)")

        assert energy == ref_energy
        print(f"\nfinal energy {energy:.6f} — bit-identical to the "
              f"single-implementation run ✓")
        print("One application, one checkpoint lineage, three MPI "
              "implementations.")


if __name__ == "__main__":
    main()

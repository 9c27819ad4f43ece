#!/usr/bin/env python
"""Multi-algorithm workflows — why NERSC needs *transparent* checkpointing.

VASP (≈20% of all NERSC CPU time, paper §1) runs several different
algorithms back to back: SCF electronic minimization, ionic relaxation,
molecular dynamics.  There is no single globally synchronized main loop,
so library-based checkpointing (VeloC/SCR-style, which hooks "the"
iteration boundary) has nowhere general to hook — while MANA checkpoints
wherever the preemption lands.

This example preempts a VASP-like workflow once in EACH phase and shows
the workflow completing identically across three restarts.

Run:  python examples/vasp_style_workflow.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import VaspLikeProxy


def main() -> None:
    spec = replace(VaspLikeProxy.paper_config(), nranks=8, blocks=6)

    ref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: VaspLikeProxy(spec)
    )
    assert ref.status == "completed", ref.first_error()
    ref_app = ref.apps()[0]
    print("reference workflow: "
          f"{len(ref_app.scf_energies)} SCF + {len(ref_app.relax_forces)} "
          f"relax + {len(ref_app.md_temps)} MD iterations")

    with tempfile.TemporaryDirectory(prefix="vasp-") as ckpt_dir:
        cfg = JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir,
                        loop_lag_window=2)

        # Preempt once inside each algorithm phase.
        job = Launcher(cfg).launch(lambda r: VaspLikeProxy(spec))
        tk = job.checkpoint_at_iteration("scf", 1, kind="loop", mode="exit")
        job.start()
        tk.wait()
        job.wait()
        print("preempted mid-SCF          (phase 1/3)")

        job = Launcher(cfg).restart(ckpt_dir)
        tk = job.coordinator.checkpoint_at_iteration("relax", 1, kind="loop",
                                                     mode="exit")
        job.start()
        tk.wait()
        job.wait()
        print("preempted mid-relaxation   (phase 2/3)")

        job = Launcher(cfg).restart(ckpt_dir)
        tk = job.coordinator.checkpoint_at_iteration("md", 1, kind="loop",
                                                     mode="exit")
        job.start()
        tk.wait()
        job.wait()
        print("preempted mid-MD           (phase 3/3)")

        final = Launcher(cfg).restart(ckpt_dir).run()
        assert final.status == "completed", final.first_error()
        app = final.apps()[0]
        assert app.scf_energies == ref_app.scf_energies
        assert app.relax_forces == ref_app.relax_forces
        assert app.md_temps == ref_app.md_temps
        print("\nfour sessions, one preemption per algorithm phase —")
        print("all three phase histories identical to the uninterrupted "
              "run ✓")


if __name__ == "__main__":
    main()

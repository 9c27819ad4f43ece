#!/usr/bin/env python
"""Quickstart: transparently checkpoint an MPI application with MANA.

Runs a small Lennard-Jones MD proxy (CoMD) on 8 simulated ranks under
MANA, takes a transparent checkpoint mid-run, *replaces the entire lower
half* (a brand-new MPI library instance with different physical ids),
and lets the application finish — it never notices.

Run:  python examples/quickstart.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import CoMDProxy


def main() -> None:
    # A scaled-down CoMD workload (8 ranks, 10 blocks).
    spec = replace(CoMDProxy.paper_config(), nranks=8, blocks=10)

    # --- 1. a plain MANA run, for reference -----------------------------
    cfg = JobConfig(nranks=8, impl="mpich", platform="discovery", mana=True)
    reference = Launcher(cfg).run(lambda rank: CoMDProxy(spec))
    assert reference.status == "completed", reference.first_error()
    ref_energy = reference.apps()[0].energy_history[-1]
    print(f"reference run : final energy {ref_energy:.6f}, "
          f"runtime {reference.runtime:.1f} virtual s")

    # --- 2. the same run, checkpointed and relaunched mid-flight --------
    with tempfile.TemporaryDirectory(prefix="quickstart-") as ckpt_dir:
        job = Launcher(replace(cfg, ckpt_dir=ckpt_dir)).launch(
            lambda rank: CoMDProxy(spec)
        )
        # Fire a checkpoint when the main loop reaches block 4; "relaunch"
        # discards the lower half and rebuilds every MPI object.
        ticket = job.checkpoint_at_iteration("main", 4, kind="in-session",
                                             mode="relaunch")
        job.start()
        info = ticket.wait()
        print(f"checkpoint    : generation {info['generation']}, "
              f"{info['mean_bytes_per_rank'] / 1e6:.1f} MB/rank "
              f"(+ simulated working set), {info['ckpt_time']:.1f} s")
        result = job.wait()

    assert result.status == "completed", result.first_error()
    energy = result.apps()[0].energy_history[-1]
    print(f"relaunched run: final energy {energy:.6f}, "
          f"runtime {result.runtime:.1f} virtual s")

    assert energy == ref_energy, "checkpoint changed the physics!"
    print("\nidentical results across the checkpoint ✓")
    print(f"wrapper crossings (context switches): {result.total_cs:,} "
          f"({result.cs_per_second / 1e6:.2f}M CS/s, cf. paper §6.3)")


if __name__ == "__main__":
    main()

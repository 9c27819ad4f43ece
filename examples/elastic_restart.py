#!/usr/bin/env python
"""Elastic restart — surviving node loss by shrinking, then growing back.

A fixed-size restart needs the original rank count available; real
clusters lose nodes and get them back.  This example checkpoints an
8-rank job, restores it onto 4 ranks (half the machine went away),
checkpoints again, and restores onto 8 ranks (capacity returned) —
each hop under `Launcher.elastic_restart` (docs/PROTOCOLS.md §12).

The application is the elastic determinism oracle: a globally seeded
stencil whose results are independent of the decomposition, so every
resized session's final checksum is bit-identical to an uninterrupted
run at any rank count.

Run:  python examples/elastic_restart.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import ElasticHaloApp


def main() -> None:
    spec = replace(ElasticHaloApp.paper_config(), blocks=12)

    # Uninterrupted 8-rank reference.
    ref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: ElasticHaloApp(replace(spec, nranks=8))
    )
    assert ref.status == "completed", ref.first_error()
    ref_checksum = ref.apps()[0].checksum
    print(f"reference (8 ranks, uninterrupted): checksum {ref_checksum!r}")

    with tempfile.TemporaryDirectory(prefix="elastic-") as ckpt_dir:
        cfg = JobConfig(nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir,
                        loop_lag_window=2)

        # --- session 1: 8 ranks, checkpoint, "lose" half the nodes -----------
        job1 = Launcher(cfg).launch(
            lambda r: ElasticHaloApp(replace(spec, nranks=8))
        )
        t1 = job1.checkpoint_at_iteration("main", 2, kind="loop", mode="exit")
        job1.start()
        info1 = t1.wait()
        job1.wait()
        print(f"\nsession 1: 8 ranks, checkpointed at iteration "
              f"{info1['loop_target']}, then 4 nodes are lost")

        # --- session 2: restore 8-rank images onto the 4 surviving ranks -----
        job2 = Launcher(cfg).elastic_restart(ckpt_dir, new_nranks=4)
        t2 = job2.coordinator.checkpoint_at_iteration("main", 7, kind="loop",
                                                      mode="exit")
        job2.start()
        info2 = t2.wait()
        job2.wait()
        print(f"session 2: resumed on 4 ranks (8-rank images repartitioned), "
              f"checkpointed at iteration {info2['loop_target']}")

        # --- session 3: capacity returns, grow back to 8 ranks ---------------
        job3 = Launcher(cfg).elastic_restart(ckpt_dir, new_nranks=8)
        r3 = job3.run()
        assert r3.status == "completed", r3.first_error()
        checksum = r3.apps()[0].checksum
        print(f"session 3: grew back to 8 ranks and completed; "
              f"checksum {checksum!r}")

        assert checksum == ref_checksum, "elastic hops changed the results!"
        print("\n8 -> 4 -> 8 ranks across two restores, "
              "bit-identical results ✓")


if __name__ == "__main__":
    main()

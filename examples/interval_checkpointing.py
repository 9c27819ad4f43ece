#!/usr/bin/env python
"""Periodic checkpointing — fault tolerance for long production runs.

Production MANA jobs checkpoint on an interval so that a node failure
costs at most one interval of work.  This example runs a LULESH-style
hydrodynamics job with periodic checkpoints, then simulates a node
failure by killing the job and restarting from the *latest* image.

Run:  python examples/interval_checkpointing.py
"""

import tempfile
from dataclasses import replace

from repro import JobConfig, Launcher
from repro.apps import LuleshProxy


def main() -> None:
    spec = replace(LuleshProxy.paper_config(), nranks=8, blocks=14)

    ref = Launcher(JobConfig(nranks=8, impl="mpich", mana=True)).run(
        lambda r: LuleshProxy(spec)
    )
    assert ref.status == "completed", ref.first_error()
    ref_dt = ref.apps()[0].dt_history

    with tempfile.TemporaryDirectory(prefix="interval-") as ckpt_dir:
        cfg = JobConfig(
            nranks=8, impl="mpich", mana=True, ckpt_dir=ckpt_dir,
            ckpt_interval=12.0,          # every 12 virtual seconds
            loop_lag_window=2,
        )

        # --- the long-running job, checkpointing on its interval ------------
        job = Launcher(cfg).launch(lambda r: LuleshProxy(spec))
        res = job.run()
        assert res.status == "completed", res.first_error()
        gens = job.store.generations()
        print(f"job ran {res.runtime:.0f} virtual s and wrote "
              f"{len(gens)} periodic checkpoints: generations {gens}")
        for g in gens:
            m = job.store.read_manifest(g)
            print(f"  gen {g}: parked at loop iteration {m['loop_target']}")

        # --- "node failure": restart from the newest image ------------------
        job2 = Launcher(cfg).restart(ckpt_dir)      # latest generation
        job2.coordinator._interval = None           # plain rerun of the tail
        res2 = job2.run()
        assert res2.status == "completed", res2.first_error()
        print(f"\nrestart from gen {gens[-1]} replayed only the tail: "
              f"finished at {res2.runtime:.0f} virtual s "
              f"(incl. {res2.ranks[0].accounts.get('restart', 0):.0f} s "
              f"image-read time)")

        assert res2.apps()[0].dt_history == ref_dt
        print("timestep history identical to the uninterrupted run ✓")


if __name__ == "__main__":
    main()

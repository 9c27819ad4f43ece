"""Per-rank execution context.

The context is what an application's ``setup``/``run`` receive: the MPI
facade, compute regions (which advance the virtual clock and double as
checkpoint-signal delivery points, like MANA's SIGUSR2), and resumable
loops (the cold-restart program counter).
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.simtime.clock import VirtualClock
from repro.simtime.cost import CostModel


class RankContext:
    """Everything one rank's application interacts with."""

    def __init__(
        self,
        rank: int,
        nranks: int,
        MPI,
        clock: VirtualClock,
        cost_model: CostModel,
        mana=None,
        restarting: bool = False,
        injector=None,
    ):
        self.rank = rank
        self.nranks = nranks
        self.MPI = MPI
        self.clock = clock
        self.cost_model = cost_model
        self.mana = mana
        self.restarting = restarting
        # Optional repro.faults.FaultInjector; None on the hot path.
        self.injector = injector
        self._loops: Dict[str, int] = {}
        self._noise_std = 0.0

    # ------------------------------------------------------------------
    def compute(self, seconds: float, account: str = "compute") -> None:
        """Declare a compute region of ``seconds`` (reference-CPU time).

        Advances the virtual clock and checks for checkpoint intent —
        the stand-in for MANA interrupting computation with a signal.
        With a noise model set (see :meth:`set_compute_noise`), the
        duration is perturbed deterministically per (rank, call index):
        the same seed reproduces the same "OS noise" even across a cold
        restart (the call counter rides in the loop-token dict).
        """
        if self._noise_std > 0.0:
            n = self._loops.get("__compute_calls__", 0)
            self._loops["__compute_calls__"] = n + 1
            seconds *= max(0.2, 1.0 + self._noise_std * self._noise_draw(n))
        self.clock.advance(self.cost_model.compute_cost(seconds), account)
        if self.mana is not None:
            self.mana._maybe_checkpoint()

    def set_compute_noise(self, std: float) -> None:
        """Enable OS/system-noise perturbation of compute regions
        (fractional standard deviation).  Deterministic per seed."""
        if std < 0:
            raise ValueError(f"noise std must be >= 0, got {std}")
        self._noise_std = float(std)

    def _noise_draw(self, n: int) -> float:
        """A stateless ~N(0,1) draw keyed by (seed, rank, call index)."""
        from repro.util.rng import _stable_hash

        seed = getattr(self, "noise_seed", 0)
        total = 0.0
        # Irwin-Hall: sum of 6 uniforms, shifted — cheap and smooth enough.
        for k in range(6):
            h = _stable_hash(f"{seed}/{self.rank}/{n}/{k}")
            total += h / 0xFFFFFFFF
        return (total - 3.0) * (2.0 ** 0.5)

    def loop(self, name: str, n: int) -> Iterator[int]:
        """A resumable loop: ``for it in ctx.loop("main", n): ...``.

        The current iteration is tracked in the context (saved in every
        checkpoint image); a cold restart resumes exactly at the
        iteration where the LOOP-kind checkpoint parked.  Loop bounds
        must be identical on every rank.
        """
        i = self._loops.get(name, 0)
        while i < n:
            self._loops[name] = i
            self._checkpoint_poll(name, i)
            if self.injector is not None:
                self.injector.on_loop(self.rank, name, i, self.clock.now)
            yield i
            i += 1
            self._loops[name] = i
        if self.mana is not None and self.mana.coordinator is not None:
            self.mana.coordinator.loop_end(self.rank, name, n)

    def _checkpoint_poll(self, name: str, iteration: int) -> None:
        mana = self.mana
        if mana is None or mana.coordinator is None:
            return
        if mana.coordinator.loop_top(self.rank, name, iteration,
                                     self.clock.now):
            mana.checkpoint_participate()
        else:
            mana._maybe_checkpoint()

    # ------------------------------------------------------------------
    def set_call_weight(self, weight: int) -> None:
        """Declare the workload coarse-graining factor: one simulated MPI
        call in this application stands for ``weight`` real calls (one
        loop iteration = a block of real timesteps).  No-op natively.
        Call at the top of ``run`` (it must be re-applied after a cold
        restart)."""
        if weight < 1:
            raise ValueError(f"call weight must be >= 1, got {weight}")
        if self.mana is not None:
            self.mana.call_weight = int(weight)

    def barrier(self) -> None:
        """Convenience: barrier on COMM_WORLD through the facade."""
        self.MPI.barrier(self.MPI.COMM_WORLD)

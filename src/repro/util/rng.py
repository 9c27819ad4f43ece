"""Deterministic, checkpointable random number generation.

Every stochastic choice in the simulation (heap-base randomization,
latency jitter, app initial conditions) flows through a
:class:`DeterministicRng` so that (a) runs are reproducible from a seed
and (b) the RNG state is part of the upper-half checkpoint image and is
restored bit-exactly on restart.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np


class DeterministicRng:
    """A seeded numpy Generator whose state can be captured and restored."""

    def __init__(self, seed: int, stream: str = ""):
        # Mixing the stream name into the seed gives independent,
        # reproducible streams per rank / per subsystem.
        self.seed = seed
        self.stream = stream
        mixed = np.random.SeedSequence([seed, _stable_hash(stream)])
        self._gen = np.random.Generator(np.random.PCG64(mixed))

    # -- draws ---------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def array_uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def array_normal(self, shape, loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape)

    # -- checkpoint support ---------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "stream": self.stream,
            "bit_generator": self._gen.bit_generator.state,
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        self.seed = state["seed"]
        self.stream = state["stream"]
        self._gen = np.random.Generator(np.random.PCG64())
        self._gen.bit_generator.state = state["bit_generator"]

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DeterministicRng":
        rng = cls(0)
        rng.set_state(state)
        return rng


def _stable_hash(text: str) -> int:
    """A hash of ``text`` stable across processes (unlike ``hash``)."""
    h = 2166136261
    for ch in text.encode("utf-8"):
        h = (h ^ ch) * 16777619 & 0xFFFFFFFF
    return h

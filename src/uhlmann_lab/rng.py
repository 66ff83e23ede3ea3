"""Deterministic randomness.

All stochastic operations draw from numpy's PCG64 generator, seeded with an
explicit 64-bit value. Child streams are derived by hashing
(parent seed, operation tag, trial index) with SHA-256 and taking the first
8 bytes, so every trial of every experiment has its own reproducible stream
and results are bit-identical across runs and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Seed:
    """A 64-bit unsigned seed value (``cli`` checks a given seed's range)."""

    value: int

    def child(self, tag: str, index: int = 0) -> "Seed":
        return Seed(child_seed(self.value, tag, index))

    def generator(self) -> np.random.Generator:
        return generator(self.value)


def as_seed(seed) -> Seed:
    return seed if isinstance(seed, Seed) else Seed(int(seed))


def child_seed(parent: int, tag: str, index: int = 0) -> int:
    """Derive a child seed from (parent, tag, index) via SHA-256."""
    digest = hashlib.sha256(f"{parent}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generator(seed) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (or Seed)."""
    value = seed.value if isinstance(seed, Seed) else int(seed)
    return np.random.Generator(np.random.PCG64(value))

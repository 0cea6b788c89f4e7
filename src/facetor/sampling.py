"""Seeded random complements for the verification sweeps."""

from __future__ import annotations

import random

from .complexes import Complement


def random_complement(rng: random.Random, max_m: int, max_s: int) -> Complement:
    """Uniform-ish random complement: ambient in 1..max_m, 0..max_s
    members drawn uniformly from the power set (so the empty member,
    which voids the complex, shows up occasionally)."""
    m = rng.randint(1, max_m)
    s = rng.randint(0, max_s)
    return Complement(m, tuple(rng.getrandbits(m) for _ in range(s)))

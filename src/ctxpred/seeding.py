"""Single-seed determinism: every consumer draws from a named substream.

A run is keyed by one 64-bit seed; components (corpus synthesis, fold
shuffling, simulations) derive independent generators by hashing their
name into the seed sequence spawn key, so adding a consumer never shifts
the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .choices import check_seed


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Generator for one substream of the run seed."""
    check_seed(seed)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    spawn = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn))

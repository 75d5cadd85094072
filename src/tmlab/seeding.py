"""Deterministic RNG fan-out.

Every command takes one integer seed; components derive their own
independent streams by name so that, e.g., changing the number of
dropout draws never perturbs the data split.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *names: str) -> np.random.Generator:
    """Return a generator for the sub-stream identified by `names` under `seed`."""
    keys = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(n.encode("utf-8")) for n in names]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def subseed(seed: int, *names: str) -> int:
    """Derive a child integer seed, for a component that takes a seed rather
    than a generator (each of the bias-variance estimator's split units)."""
    h = int(seed) & 0xFFFFFFFF
    for n in names:
        h = zlib.crc32(n.encode("utf-8"), h)
    return h

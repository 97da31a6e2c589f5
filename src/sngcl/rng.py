"""Named random streams derived from a single run seed.

Every stochastic subsystem (parameter init, negative shuffling, neighbor
sampling, split generation) draws from its own stream so that changing, say,
the number of negatives never perturbs the split sequence.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

STREAMS = {
    "init": 0,
    "shuffle": 1,
    "neighbor": 2,
    "split": 3,
}


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Generator for one named substream of ``seed``."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if stream not in STREAMS:
        raise InputError(f"unknown rng stream {stream!r}; known: {sorted(STREAMS)}")
    # the trailing 0 is part of every stream's key; dropping it changes every run
    ss = np.random.SeedSequence(seed, spawn_key=(STREAMS[stream], 0))
    return np.random.default_rng(ss)

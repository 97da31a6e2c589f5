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


def stream_rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Generator for one named substream of ``seed``.

    ``index`` separates repeated uses of the same stream, e.g. one split
    stream per evaluation repeat.
    """
    if stream not in STREAMS:
        raise InputError(f"unknown rng stream {stream!r}; known: {sorted(STREAMS)}")
    ss = np.random.SeedSequence(seed, spawn_key=(STREAMS[stream], index))
    return np.random.default_rng(ss)

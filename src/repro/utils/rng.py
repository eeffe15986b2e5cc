"""Deterministic RNG helpers.

Every stochastic component in the library takes either a seed or a
``numpy.random.Generator``.  These helpers centralise construction so
experiments are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an int seed, an existing generator (returned as-is), or
    ``None`` for a default seed of 0 (reproducibility over entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = 0
    return np.random.default_rng(seed)

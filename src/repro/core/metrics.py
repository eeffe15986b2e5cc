"""Load-imbalance metrics (paper Eq. 2 and the Lyapunov potential)."""

from __future__ import annotations

import numpy as np


def imbalance(loads: np.ndarray) -> float:
    """Paper Eq. 2: (L_max - L_min) / mean(L)."""
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    mean = loads.mean()
    if mean <= 0:
        return 0.0
    return float((loads.max() - loads.min()) / mean)


def potential(loads: np.ndarray) -> float:
    """Lemma 2's potential φ = Σ_{u,v} |x_u − x_v| (all ordered pairs
    counted once — the constant factor is irrelevant to convergence)."""
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    # O(n log n): sort, then φ = Σ_i x_(i) * (2i - n + 1)
    x = np.sort(loads)
    n = x.size
    coeff = 2 * np.arange(n) - (n - 1)
    return float(np.dot(x, coeff))


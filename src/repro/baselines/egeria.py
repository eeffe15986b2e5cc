"""Egeria baseline: knowledge-guided layer freezing *without* rebalancing.

Egeria (Wang et al.) decides what to freeze by tracking a reference
model on the CPU, but leaves the layer-to-stage assignment untouched,
so the frozen front stages idle.  Its reference-model maintenance cost
also grows with model depth (the paper exploits this: DynMo's overhead
stays flat while Egeria's grows with layer count).
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.dynamics.freezing import FreezingDynamism


#: reference-model maintenance seconds per iteration per squared layer
_REF_COST_COEFF_S = 2.4e-7


class EgeriaBaseline(DynamismScheme):
    """FreezingDynamism + per-iteration reference-model overhead."""

    name = "egeria"
    rebalance_every = 10**9  # never rebalances the pipeline

    def __init__(self, scheme: FreezingDynamism):
        super().__init__(scheme.specs)
        self.scheme = scheme
        # the CPU reference-model update, amortised per training
        # iteration, scales superlinearly with depth (forward pass +
        # per-layer plasticity bookkeeping): ~d^2
        d = len(self.block_indices)
        self.per_iteration_overhead_s = _REF_COST_COEFF_S * d * d

    def step(self, k: int, states: np.ndarray) -> bool:
        return self.scheme.step(k, states)

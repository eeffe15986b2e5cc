"""Tutel-like adaptive MoE baseline.

Tutel (Hwang et al.) adaptively switches expert-parallelism strategy
and capacity factor per iteration, smoothing the *intra-layer*
token-to-expert imbalance.  It does not move transformer layers across
pipeline stages, so the *inter-stage* imbalance (which DynMo fixes)
persists.  We model it as a damping factor on every MoE layer's
slowest-expert multiplier:

    mult_tutel = 1 + (mult - 1) * (1 - damping)

with a small adaptive-dispatch overhead per iteration.  The paper
measures DynMo 1.18–1.21x *over Tutel*, i.e. Tutel sits between the
static baselines and DynMo.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.dynamics.moe import MoEDynamism
from repro.model.cost import MOE_MULTIPLIER


class TutelMoEBaseline(DynamismScheme):
    """Wraps an MoEDynamism, damping its per-layer multipliers."""

    name = "tutel"
    rebalance_every = 10**9  # no pipeline rebalancing

    def __init__(self, scheme: MoEDynamism, damping: float = 0.15, dispatch_overhead: float = 0.03):
        if not isinstance(scheme, MoEDynamism):
            raise ValueError(
                f"mode 'tutel' needs MoE layers; scenario {scheme.name!r} has none"
            )
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be in [0, 1]")
        super().__init__(scheme.specs)
        self.scheme = scheme
        self.damping = damping
        self.dispatch_overhead = dispatch_overhead

    def step(self, k: int, states: np.ndarray) -> bool:
        if not self.scheme.step(k, states):
            return False
        m = states[self.scheme.moe_layers, MOE_MULTIPLIER]
        damped = 1.0 + (m - 1.0) * (1.0 - self.damping)
        states[self.scheme.moe_layers, MOE_MULTIPLIER] = damped * (1.0 + self.dispatch_overhead)
        return True

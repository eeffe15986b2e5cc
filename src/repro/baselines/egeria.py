"""Egeria baseline: knowledge-guided layer freezing *without* rebalancing.

Egeria (Wang et al.) decides what to freeze by tracking a reference
model on the CPU, but leaves the layer-to-stage assignment untouched,
so the frozen front stages idle.  Its reference-model maintenance cost
also grows with model depth (the paper exploits this: DynMo's overhead
stays flat while Egeria's grows with layer count).
"""

from __future__ import annotations

from repro.dynamics.freezing import FreezingDynamism
from repro.model.cost import LayerState


#: reference-model maintenance seconds per iteration per squared layer
_REF_COST_COEFF_S = 2.4e-7


class EgeriaBaseline:
    """FreezingDynamism + per-iteration reference-model overhead."""

    name = "egeria"

    def __init__(self, scheme: FreezingDynamism):
        self.scheme = scheme
        self.specs = scheme.specs
        self.rebalance_every = 10**9  # never rebalances the pipeline
        # reference-model maintenance scales superlinearly with depth
        # (forward pass + per-layer plasticity bookkeeping): ~d^2
        d = len(scheme.block_indices)
        self.ref_cost_per_iter_s = _REF_COST_COEFF_S * d * d

    def initial_states(self) -> list[LayerState]:
        return self.scheme.initial_states()

    def step(self, k: int, states: list[LayerState]) -> bool:
        return self.scheme.step(k, states)

    def per_iteration_overhead_s(self) -> float:
        """CPU reference-model update amortised per training iteration."""
        return self.ref_cost_per_iter_s

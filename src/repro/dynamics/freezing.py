"""Layer freezing (paper sections 2.3, 4.2.3 — Egeria-style).

Egeria freezes a layer once its training "plasticity" (rate of change
of the layer's reference loss) falls below a threshold; earlier layers
converge first, so freezing sweeps front-to-back — which is exactly
why it unbalances a pipeline whose early stages suddenly have no
backward work.

:class:`FreezingDynamism` drives the criterion from a calibrated
convergence-time model during simulated training.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng


class FreezingDynamism(DynamismScheme):
    """Front-to-back progressive freezing with noisy convergence times.

    Layer j's convergence iteration tau_j grows with *relative* depth
    (tau_j = tau0 * (1 + gamma * j/d) * lognormal noise), so models of
    different depths freeze the same front fraction at the same time —
    matching Egeria's behaviour, where convergence sweeps front-to-back
    over the schedule regardless of layer count.  The freezer is
    evaluated every ``freeze_every`` iterations (Egeria updates its
    reference model periodically; Fig. 4 table uses every 300 iters).
    ``max_frozen_fraction`` caps how much of the model may freeze
    (the tail layers keep training).
    """

    name = "freezing"

    def __init__(
        self,
        specs: list[LayerSpec],
        freeze_every: int = 300,
        tau0: float = 1000.0,
        depth_gamma: float = 8.0,
        noise: float = 0.15,
        max_frozen_fraction: float = 0.75,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        if freeze_every <= 0:
            raise ValueError("freeze_every must be positive")
        self.rebalance_every = freeze_every
        self.freeze_every = freeze_every
        self.max_frozen_fraction = max_frozen_fraction
        rng = new_rng(seed)
        d = len(self.block_indices)
        rel_depth = np.arange(d) / max(1, d - 1)
        self.tau = tau0 * (1.0 + depth_gamma * rel_depth) * np.exp(
            rng.normal(0.0, noise, size=d)
        )
        self.frozen_flags = np.zeros(d, dtype=bool)

    def frozen_fraction(self) -> float:
        return float(self.frozen_flags.mean())

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        if k % self.freeze_every != 0:
            return False
        d = len(self.block_indices)
        budget = int(self.max_frozen_fraction * d)
        changed = False
        for j in range(d):
            if self.frozen_flags[:j].sum() != j:
                # enforce front-contiguous freezing (Egeria sweeps
                # forward: a layer freezes only after all before it)
                break
            if not self.frozen_flags[j] and k >= self.tau[j] and self.frozen_flags.sum() < budget:
                self.frozen_flags[j] = True
                changed = True
        if changed:
            prefix = True
            for j, i in enumerate(self.block_indices):
                states[i].frozen = bool(self.frozen_flags[j])
                # backward is droppable while the frozen prefix holds
                states[i].droppable_bwd = bool(self.frozen_flags[j] and prefix)
                prefix = prefix and self.frozen_flags[j]
        return changed

"""Layer freezing (paper sections 2.3, 4.2.3 — Egeria-style).

Egeria freezes a layer once its training "plasticity" (rate of change
of the layer's reference loss) falls below a threshold; earlier layers
converge first, so freezing sweeps front-to-back — which is exactly
why it unbalances a pipeline whose early stages suddenly have no
backward work.

:class:`PlateauFreezer` implements the criterion on real per-layer
signal streams (e.g. parameter-update norms);
:class:`FreezingDynamism` drives it from a calibrated convergence-time
model during simulated training.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng


class PlateauFreezer:
    """Freeze when an exponential moving rate-of-change plateaus.

    feed(layer, value) with a convergence metric (loss contribution,
    update norm); ``should_freeze`` becomes True when the relative EMA
    change stays below ``threshold`` for ``patience`` consecutive feeds.
    """

    def __init__(self, num_layers: int, threshold: float = 0.02, patience: int = 3, ema: float = 0.7):
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        self.threshold = threshold
        self.patience = patience
        self.ema_coeff = ema
        self._ema = [None] * num_layers
        self._calm_streak = [0] * num_layers
        self.frozen = [False] * num_layers

    def feed(self, layer: int, value: float) -> bool:
        """Returns True if this feed froze the layer."""
        if self.frozen[layer]:
            return False
        prev = self._ema[layer]
        if prev is None:
            self._ema[layer] = value
            return False
        ema = self.ema_coeff * prev + (1 - self.ema_coeff) * value
        self._ema[layer] = ema
        rel = abs(ema - prev) / (abs(prev) + 1e-12)
        if rel < self.threshold:
            self._calm_streak[layer] += 1
        else:
            self._calm_streak[layer] = 0
        if self._calm_streak[layer] >= self.patience:
            self.frozen[layer] = True
            return True
        return False


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

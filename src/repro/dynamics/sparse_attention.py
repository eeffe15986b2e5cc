"""Dynamic sparse flash attention (paper sections 2.4, 4.2.4).

Pagliardini et al. hash queries/keys with LSH; only blocks whose
hash buckets collide are computed, producing an *irregular, content-
dependent* block-sparse causal mask.  Different layers hash different
representations, so per-layer attention density varies per iteration —
a 4x bubble-ratio increase in the paper.

:class:`SparseAttentionDynamism` is a calibrated per-layer density
process for the cost model: each layer holds a beta-distributed base
density that drifts, with per-iteration hash jitter.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng


class SparseAttentionDynamism(DynamismScheme):
    name = "sparse_attention"
    rebalance_every = 1  # hash pattern changes with content, every iter

    def __init__(
        self,
        specs: list[LayerSpec],
        mean_density: float = 0.25,
        layer_spread: float = 4.0,
        jitter: float = 0.05,
        drift: float = 0.01,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        if not 0 < mean_density <= 1:
            raise ValueError("mean_density must be in (0, 1]")
        self.rng = new_rng(seed)
        self.jitter = jitter
        self.drift = drift
        d = len(self.block_indices)
        # per-layer base densities ~ Beta, mean = mean_density
        a = layer_spread * mean_density
        b = layer_spread * (1 - mean_density)
        self.base_density = self.rng.beta(a, b, size=d)
        self.base_density = np.clip(self.base_density, 0.02, 1.0)

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        d = len(self.block_indices)
        # slow drift of the base pattern (the model's representations move)
        self.base_density *= np.exp(self.rng.normal(0.0, self.drift, size=d))
        self.base_density = np.clip(self.base_density, 0.02, 1.0)
        dens = self.base_density * np.exp(self.rng.normal(0.0, self.jitter, size=d))
        dens = np.clip(dens, 0.02, 1.0)
        for j, i in enumerate(self.block_indices):
            states[i].attn_density = float(dens[j])
        return True

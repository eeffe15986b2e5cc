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
from repro.model.cost import ATTN_DENSITY, LayerSpec
from repro.utils.rng import new_rng

#: concentration of the per-layer Beta(a, b) base densities (a + b)
_LAYER_SPREAD = 4.0


class SparseAttentionDynamism(DynamismScheme):
    name = "sparse_attention"
    rebalance_every = 1  # hash pattern changes with content, every iter

    def __init__(
        self,
        specs: list[LayerSpec],
        mean_density: float = 0.25,
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
        a = _LAYER_SPREAD * mean_density
        b = _LAYER_SPREAD * (1 - mean_density)
        self.base_density = self.rng.beta(a, b, size=d)
        self.base_density = np.clip(self.base_density, 0.02, 1.0)

    def step(self, k: int, states: np.ndarray) -> bool:
        self._check(states)
        d = len(self.block_indices)
        # slow drift of the base pattern (the model's representations move)
        self.base_density *= np.exp(self.rng.normal(0.0, self.drift, size=d))
        self.base_density = np.clip(self.base_density, 0.02, 1.0)
        dens = self.base_density * np.exp(self.rng.normal(0.0, self.jitter, size=d))
        states[self.block_indices, ATTN_DENSITY] = np.clip(dens, 0.02, 1.0)
        return True

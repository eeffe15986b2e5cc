"""MoE routing imbalance (paper section 2.1, 4.2.1).

Expert parallelism makes an MoE layer's latency proportional to the
*slowest* expert, i.e. ``max_e tokens_e / (total/E)``.  Token-choice
routers concentrate tokens on popular experts; the popularity drifts
during training as the router learns.  We model each MoE layer with a
per-expert popularity vector that performs a slow multiplicative
random walk, and sample per-iteration token counts from a multinomial
around it:

- ``router="aux_loss"`` — Mixtral-style auxiliary loss keeps
  popularity loosely tethered to uniform (observed ~25% bubble);
- ``router="sbase"`` — S-BASE balanced assignment: counts are equal up
  to the ceil remainder plus a small assignment-latency penalty.

The per-layer variation of the slowest-expert multiplier is what the
balancer redistributes.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng

#: range of the per-layer aux-loss tether toward uniform popularity,
#: drawn log-uniformly per MoE layer
_TETHER = (0.01, 0.2)


class MoEDynamism(DynamismScheme):
    name = "moe"
    rebalance_every = 1

    def __init__(
        self,
        specs: list[LayerSpec],
        router: str = "aux_loss",
        tokens_per_iter: int = 8192,
        drift: float = 0.1,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        if router not in ("aux_loss", "sbase"):
            raise ValueError(f"unknown router {router!r}")
        self.router = router
        self.tokens_per_iter = tokens_per_iter
        self.drift = drift
        self.rng = new_rng(seed)
        self.moe_layers = [i for i in self.block_indices if specs[i].is_moe]
        if not self.moe_layers:
            raise ValueError("MoEDynamism needs at least one MoE layer in specs")
        # per-layer aux-loss strength differs (later layers are harder
        # to balance in practice), giving layers persistently different
        # concentration levels — the heterogeneity DynMo redistributes.
        lo, hi = _TETHER
        self._tether = {
            i: float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))
            for i in self.moe_layers
        }
        # popularity logits per MoE layer (drifting random walk)
        self._pop = {
            i: self.rng.normal(0.0, 1.0, size=specs[i].num_experts)
            for i in self.moe_layers
        }

    # -- internals -------------------------------------------------------
    def _counts_for(self, spec_idx: int) -> np.ndarray:
        e = self.specs[spec_idx].num_experts
        n = self.tokens_per_iter
        if self.router == "sbase":
            base = np.full(e, n // e)
            base[: n % e] += 1
            return base.astype(float)
        # aux_loss: drift popularity, tether toward uniform, sample
        pop = self._pop[spec_idx]
        pop += self.rng.normal(0.0, self.drift, size=e)
        pop *= 1.0 - self._tether[spec_idx]
        p = np.exp(pop - pop.max())
        p /= p.sum()
        return self.rng.multinomial(n, p).astype(float)

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        for i in self.moe_layers:
            counts = self._counts_for(i)
            e = self.specs[i].num_experts
            total = counts.sum()
            fair = total / e if e else 1.0
            mult = float(counts.max() / fair) if fair > 0 else 1.0
            if self.router == "sbase":
                mult *= 1.02  # auction assignment latency penalty
            states[i].moe_multiplier = mult
        return True  # routing changes every iteration

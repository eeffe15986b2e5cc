"""Mixture of Depths (paper sections 2.6, 4.2.6).

MoD routes only the top-r fraction of tokens *through* a block (the
rest ride the residual stream).  The variant in the paper uses expert
choice plus a small auxiliary MLP predictor that guesses whether a
token will be in the top-k — mispredictions and expert-choice
variability produce ~18% imbalance.

Alternating blocks apply MoD routing (as in Raposo et al.); routed
blocks process ``capacity`` of the tokens plus predictor error, while
full blocks process everything.  When the spec marks the block as MoE,
the MoE multiplier from the underlying expert-choice routing stacks on
top (the paper's hybrid).
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import MOE_MULTIPLIER, TOKEN_FRACTION, LayerSpec
from repro.utils.rng import new_rng
from repro.utils.validation import check_prob


#: scale of the routers' misprediction noise (and of their persistent
#: per-layer bias, drawn at 3x this)
_PREDICTOR_ERROR = 0.3
#: step size and pull toward zero of each block's expert-choice
#: multiplier (an Ornstein-Uhlenbeck walk)
_MOE_DRIFT = 0.25
_MOE_TETHER = 0.02


class MoDDynamism(DynamismScheme):
    name = "mod"
    rebalance_every = 1  # routing decided per forward pass

    def __init__(
        self,
        specs: list[LayerSpec],
        capacity: float = 0.125,
        every_other: int = 2,
        moe_imbalance: float = 0.3,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        check_prob("capacity", capacity)
        if every_other <= 0:
            raise ValueError("every_other must be positive")
        self.capacity = capacity
        self.every_other = every_other
        self.moe_imbalance = moe_imbalance
        self.rng = new_rng(seed)
        # routed blocks: every other block starting from the second
        self.routed = sorted(
            i
            for j, i in enumerate(self.block_indices)
            if j % self.every_other == self.every_other - 1
        )
        # per-layer predictor quality differs and drifts: some routers
        # systematically over-admit tokens (persistent bias), which is
        # the layer-to-layer heterogeneity DynMo redistributes.
        self._bias = {
            i: float(abs(self.rng.normal(0.0, 3.0 * _PREDICTOR_ERROR)))
            for i in self.routed
        }
        self._bias_drift = 0.02
        # underlying expert-choice MoE: every block's FFN carries a
        # slowest-expert multiplier driven by a per-layer OU process
        # (the paper's MoD "employs expert choice via MoEs", §2.6)
        self._moe_x = {
            i: float(self.rng.normal(0.0, moe_imbalance)) for i in self.block_indices
        }

    def step(self, k: int, states: np.ndarray) -> bool:
        self._check(states)
        routed_set = set(self.routed)
        for i in self.block_indices:
            if self.moe_imbalance > 0:
                x = self._moe_x[i]
                x = (x + self.rng.normal(0.0, _MOE_DRIFT)) * (1.0 - _MOE_TETHER)
                self._moe_x[i] = x
                states[i, MOE_MULTIPLIER] = 1.0 + abs(x)
            if i in routed_set:
                # persistent per-layer predictor bias (drifting) plus
                # per-iteration misprediction noise: false-positives
                # inflate compute beyond the nominal capacity
                self._bias[i] = abs(
                    self._bias[i] + self.rng.normal(0.0, self._bias_drift)
                )
                err = self._bias[i] + abs(self.rng.normal(0.0, _PREDICTOR_ERROR))
                frac = float(np.clip(self.capacity * (1.0 + err), 0.01, 1.0))
                states[i, TOKEN_FRACTION] = frac
            else:
                states[i, TOKEN_FRACTION] = 1.0
        return True

"""Early exit of tokens (paper sections 2.5, 4.2.5 — CALM / ADP-C).

Tokens leave the network once a per-token confidence measure crosses a
threshold.  Exits concentrate in *later* layers, so late pipeline
stages starve — the paper measures up to a 5x bubble-ratio increase,
and early exit benefits the most from re-packing.

:class:`EarlyExitDynamism` is a calibrated survival process: no exits
before ``exit_start_frac`` of the depth, then geometric decay whose
rate strengthens as training progresses (a better model is more
confident earlier).
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng
from repro.utils.validation import check_prob


class EarlyExitDynamism(DynamismScheme):
    name = "early_exit"
    rebalance_every = 100  # Fig. 4 table: every 100 iterations

    def __init__(
        self,
        specs: list[LayerSpec],
        exit_start_frac: float = 0.3,
        initial_exit_rate: float = 0.1,
        final_exit_rate: float = 0.5,
        ramp_iters: int = 5000,
        jitter: float = 0.03,
        min_fraction: float = 0.03,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        check_prob("exit_start_frac", exit_start_frac)
        self.exit_start_frac = exit_start_frac
        self.r0 = initial_exit_rate
        self.r1 = final_exit_rate
        self.ramp_iters = ramp_iters
        self.jitter = jitter
        self.min_fraction = min_fraction
        self.rng = new_rng(seed)
        self._last_applied = -1

    def exit_rate_at(self, k: int) -> float:
        frac = min(1.0, k / self.ramp_iters) if self.ramp_iters > 0 else 1.0
        return self.r0 + (self.r1 - self.r0) * frac

    def survival_curve(self, k: int) -> np.ndarray:
        d = len(self.block_indices)
        start = int(self.exit_start_frac * d)
        rate = self.exit_rate_at(k)
        surv = np.ones(d)
        alive = 1.0
        for j in range(d):
            surv[j] = alive
            if j >= start:
                step_rate = rate * np.exp(self.rng.normal(0.0, self.jitter))
                alive = max(self.min_fraction, alive * (1.0 - step_rate))
        return surv

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        # survival statistics shift slowly; refresh on rebalance cadence
        if self._last_applied >= 0 and k % self.rebalance_every != 0:
            return False
        surv = self.survival_curve(k)
        for j, i in enumerate(self.block_indices):
            states[i].token_fraction = float(surv[j])
        self._last_applied = k
        return True

"""Gradual global magnitude pruning (paper sections 2.2, 3.2.1, Algorithm 1).

Two pieces:

- :class:`GradualPruningSchedule` — the Zhu–Gupta cubic schedule
  (Eq. 3): rapid pruning early, slowing as the network shrinks.
- :class:`PruningDynamism` — drives the schedule during training and
  maps the resulting *non-uniform per-layer retention* onto the
  sparsity column of the layer states.
  Per-layer weight-magnitude scales differ (depth-dependent), so a
  global threshold prunes layers unevenly — exactly the imbalance
  source in the paper (Fig. 1 shows ~5x idleness at 90% sparsity).

Algorithm 1 runs each rank's local top-k of |w|, takes the gathered
candidates' k-th largest as the global threshold and keeps every weight
at or above it.  Every global top-k weight is in its own rank's local
top-k, so that threshold is the k-th largest magnitude of the whole
model whatever the rank count: :class:`PruningDynamism` computes it
with one partition over all proxy magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import SPARSITY, LayerSpec
from repro.utils.rng import new_rng
from repro.utils.validation import check_prob


@dataclass(frozen=True)
class GradualPruningSchedule:
    """Zhu–Gupta: S_t = S_f + (S_i - S_f)(1 - (t - t0)/(n*dt))^3."""

    initial_sparsity: float = 0.0
    final_sparsity: float = 0.9
    start_iter: int = 3000
    end_iter: int = 7000
    prune_every: int = 1000

    def __post_init__(self) -> None:
        check_prob("initial_sparsity", self.initial_sparsity)
        check_prob("final_sparsity", self.final_sparsity)
        if self.end_iter <= self.start_iter:
            raise ValueError("end_iter must be > start_iter")
        if self.prune_every <= 0:
            raise ValueError("prune_every must be positive")

    def sparsity_at(self, k: int) -> float:
        if k < self.start_iter:
            return self.initial_sparsity
        if k >= self.end_iter:
            return self.final_sparsity
        frac = (k - self.start_iter) / (self.end_iter - self.start_iter)
        si, sf = self.initial_sparsity, self.final_sparsity
        return sf + (si - sf) * (1.0 - frac) ** 3

    def is_pruning_step(self, k: int) -> bool:
        return (
            self.start_iter <= k <= self.end_iter
            and (k - self.start_iter) % self.prune_every == 0
        )


#: proxy weight samples per layer that Algorithm 1 thresholds
_PROXY_PER_LAYER = 2000
#: spread of the log weight-magnitude scale from the first to the last
#: block (deeper layers have larger weights, so they retain more)
_DEPTH_SCALE_SPREAD = 0.6


class PruningDynamism(DynamismScheme):
    """Maps the pruning schedule onto per-layer sparsity states.

    Each block layer gets a weight-magnitude scale sigma_i (log-normal
    across depth) and ``_PROXY_PER_LAYER`` proxy weights drawn at that
    scale.  At each pruning step the global threshold over all proxy
    magnitudes (Algorithm 1) sets each layer's retention: the fraction
    of its proxies at or above the threshold, which differs per layer.
    """

    name = "pruning"

    def __init__(
        self,
        specs: list[LayerSpec],
        schedule: GradualPruningSchedule | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        self.schedule = schedule or GradualPruningSchedule()
        self.rebalance_every = self.schedule.prune_every
        rng = new_rng(seed)
        d = len(self.block_indices)
        # deeper layers tend to have larger-magnitude weights -> retain more
        depth = np.linspace(-1.0, 1.0, d)
        sigma = np.exp(_DEPTH_SCALE_SPREAD * depth + rng.normal(0, 0.1, d))
        proxies = [rng.normal(0.0, sigma[j], size=_PROXY_PER_LAYER) for j in range(d)]
        #: (d, _PROXY_PER_LAYER) proxy weight magnitudes, one row per block
        self._mags = np.abs(np.stack(proxies))
        self.current_sparsity = self.schedule.initial_sparsity

    def _apply_global_prune(self, sparsity: float) -> np.ndarray:
        """Algorithm 1 on the proxy magnitudes; return per-layer retention.

        Keeps the ``round(n * (1 - sparsity))`` largest magnitudes (every
        weight tied with the k-th largest is kept too); ``k == 0`` keeps
        nothing.
        """
        n = self._mags.size
        k = int(round(n * (1.0 - sparsity)))
        if k == 0:
            return np.zeros(self._mags.shape[0])
        thresh = np.partition(self._mags.ravel(), n - k)[n - k]
        return (self._mags >= thresh).sum(axis=1) / _PROXY_PER_LAYER

    def step(self, k: int, states: np.ndarray) -> bool:
        self._check(states)
        if not self.schedule.is_pruning_step(k):
            return False
        target = self.schedule.sparsity_at(k)
        if target <= self.current_sparsity and k != self.schedule.start_iter:
            return False
        self.current_sparsity = target
        retention = self._apply_global_prune(target)
        states[self.block_indices, SPARSITY] = np.clip(1.0 - retention, 0.0, 1.0)
        return True

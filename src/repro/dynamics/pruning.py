"""Gradual global magnitude pruning (paper sections 2.2, 3.2.1, Algorithm 1).

Three pieces:

- :class:`GradualPruningSchedule` — the Zhu–Gupta cubic schedule
  (Eq. 3): rapid pruning early, slowing as the network shrinks.
- :class:`GlobalMagnitudePruner` — Algorithm 1 over a list of per-rank
  weight shards: each rank takes its local top-k of |w|, the gathered
  candidates' k-th largest is the *global* threshold, and each rank
  keeps the weights at or above it.  Works on real numpy weight shards.
- :class:`PruningDynamism` — drives the schedule during training and
  maps the resulting *non-uniform per-layer retention* onto LayerStates.
  Per-layer weight-magnitude scales differ (depth-dependent), so a
  global threshold prunes layers unevenly — exactly the imbalance
  source in the paper (Fig. 1 shows ~5x idleness at 90% sparsity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
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


class GlobalMagnitudePruner:
    """Algorithm 1: global magnitude pruning over per-rank weight shards."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks

    def prune(self, shards: list[np.ndarray], sparsity: float) -> list[np.ndarray]:
        """Run Algorithm 1; returns per-rank boolean keep-masks.

        Keeps the ``round(total * (1 - sparsity))`` largest magnitudes
        (every weight tied with the k-th largest is kept too).
        """
        check_prob("sparsity", sparsity)
        if len(shards) != self.num_ranks:
            raise ValueError("one shard per rank required")
        k = int(round(sum(s.size for s in shards) * (1.0 - sparsity)))
        mags = [np.abs(s) for s in shards]
        if k == 0:
            return [np.zeros(m.shape, dtype=bool) for m in mags]
        # line 3: each rank's local top-k magnitudes (all of a small shard)
        local_top = [
            np.partition(m, m.size - k, axis=None)[m.size - k :]
            if m.size > k
            else m.ravel()
            for m in mags
        ]
        # lines 4-6: gather the candidates; their k-th largest is the
        # global threshold, since every global top-k weight is in its
        # own rank's local top-k
        cand = np.concatenate(local_top)
        thresh = np.partition(cand, cand.size - k)[cand.size - k]
        # line 8: scatter the threshold; each rank keeps |w| >= it
        return [m >= thresh for m in mags]


class PruningDynamism(DynamismScheme):
    """Maps the pruning schedule onto per-layer sparsity states.

    Each block layer gets a weight-magnitude scale sigma_i (log-normal
    across depth). At each pruning step, Algorithm 1 runs on proxy
    weight samples (``proxy_per_layer`` values per layer, distributed
    round-robin over ``num_ranks``), yielding a global threshold and
    hence non-uniform per-layer retention.
    """

    name = "pruning"

    def __init__(
        self,
        specs: list[LayerSpec],
        schedule: GradualPruningSchedule | None = None,
        num_ranks: int = 4,
        proxy_per_layer: int = 2000,
        depth_scale_spread: float = 0.6,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        self.schedule = schedule or GradualPruningSchedule()
        self.rebalance_every = self.schedule.prune_every
        self.rng = new_rng(seed)
        self.pruner = GlobalMagnitudePruner(num_ranks)
        d = len(self.block_indices)
        # deeper layers tend to have larger-magnitude weights -> retain more
        depth = np.linspace(-1.0, 1.0, d)
        self._sigma = np.exp(depth_scale_spread * depth + self.rng.normal(0, 0.1, d))
        self._proxy = [
            self.rng.normal(0.0, self._sigma[j], size=proxy_per_layer)
            for j in range(d)
        ]
        self.current_sparsity = self.schedule.initial_sparsity
        self.per_layer_retention = np.ones(d)

    def _apply_global_prune(self, sparsity: float) -> np.ndarray:
        """Run Algorithm 1 on proxy weights; return per-layer retention."""
        flat = np.concatenate(self._proxy)
        shards = np.array_split(flat, self.pruner.num_ranks)
        keeps = self.pruner.prune(list(shards), sparsity)
        keep_flat = np.concatenate(keeps)
        # unsplit back into layers
        sizes = [p.size for p in self._proxy]
        offsets = np.cumsum([0] + sizes)
        retention = np.array(
            [
                keep_flat[offsets[j] : offsets[j + 1]].mean()
                for j in range(len(sizes))
            ]
        )
        return retention

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        if not self.schedule.is_pruning_step(k):
            return False
        target = self.schedule.sparsity_at(k)
        if target <= self.current_sparsity and k != self.schedule.start_iter:
            return False
        self.current_sparsity = target
        retention = self._apply_global_prune(target)
        self.per_layer_retention = retention
        for j, i in enumerate(self.block_indices):
            states[i].sparsity = float(np.clip(1.0 - retention[j], 0.0, 1.0))
        return True

"""Algorithm 1 over per-rank shards: the oracle ``PruningDynamism`` is held to.

:class:`GlobalMagnitudePruner` follows the paper's steps over a list of
per-rank weight shards: each rank takes its local top-k of |w|, the
gathered candidates' k-th largest is the *global* threshold, and each
rank keeps the weights at or above it.  :func:`retention` splits a
model's flattened proxy weights over ``num_ranks`` shards, runs the
pruner and unsplits the masks into per-layer kept fractions.
``repro.dynamics.pruning.PruningDynamism`` computes the same threshold
with one partition over every magnitude; its retention must equal
:func:`retention` bit for bit at every rank count.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_prob


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
        # global threshold
        cand = np.concatenate(local_top)
        thresh = np.partition(cand, cand.size - k)[cand.size - k]
        # line 8: scatter the threshold; each rank keeps |w| >= it
        return [m >= thresh for m in mags]


def retention(
    proxies: list[np.ndarray], sparsity: float, num_ranks: int
) -> np.ndarray:
    """Per-layer kept fraction of ``proxies`` (one array per layer) after
    Algorithm 1 on ``num_ranks`` contiguous shards of their concatenation."""
    flat = np.concatenate(proxies)
    shards = np.array_split(flat, num_ranks)
    keep_flat = np.concatenate(GlobalMagnitudePruner(num_ranks).prune(shards, sparsity))
    offsets = np.cumsum([0] + [p.size for p in proxies])
    return np.array(
        [keep_flat[offsets[j] : offsets[j + 1]].mean() for j in range(len(proxies))]
    )

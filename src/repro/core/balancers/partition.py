"""Centralized partition balancer (DeepSpeed-style).

Reproduces DeepSpeed's ``partition_balanced`` utility: find the
contiguous S-way partition of the layer weight vector minimising the
bottleneck (max stage load) via binary search over candidate
bottleneck values with a greedy feasibility probe, then tighten with
prefix-sum probing.  Weights are parameter counts
("Partition: by Param") or measured layer times ("Partition: by Time").

Memory capacity, when provided, is enforced during the greedy probe: a
stage is also closed when adding the next layer would exceed capacity.
This is the centralized balancer L_c of Lemma 1 — it returns the
optimal contiguous partition, hence the minimum achievable bubble
ratio for a layer-contiguous pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.pipeline.plan import PipelinePlan


def _probe(
    weights: np.ndarray,
    num_stages: int,
    bottleneck: float,
    memory: np.ndarray | None,
    capacity: float | None,
) -> list[int] | None:
    """Greedy: pack layers left-to-right into stages of load <= bottleneck.

    Returns boundaries if it fits in <= num_stages stages with every
    stage non-empty (completed by splitting), else None.
    """
    n = weights.shape[0]
    if num_stages > n:
        return None
    bounds = [0]
    load = 0.0
    mem = 0.0
    for i in range(n):
        w = weights[i]
        m = memory[i] if memory is not None else 0.0
        if w > bottleneck:
            return None
        over_mem = capacity is not None and mem + m > capacity
        if load + w > bottleneck or over_mem:
            bounds.append(i)
            load = 0.0
            mem = 0.0
            if over_mem and m > (capacity or 0.0):
                return None  # single layer exceeds memory capacity
        load += w
        mem += m
        if len(bounds) > num_stages:
            return None
    bounds.append(n)
    # pad: if we used fewer stages, split the largest stages until S
    while len(bounds) - 1 < num_stages:
        sizes = [bounds[j + 1] - bounds[j] for j in range(len(bounds) - 1)]
        j = int(np.argmax(sizes))
        if sizes[j] < 2:
            return None
        mid = bounds[j] + sizes[j] // 2
        bounds.insert(j + 1, mid)
    return bounds


def partition_balanced(
    weights: np.ndarray,
    num_stages: int,
    memory: np.ndarray | None = None,
    capacity: float | None = None,
) -> PipelinePlan:
    """Optimal contiguous partition by bottleneck binary search."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if not 1 <= num_stages <= n:
        raise ValueError(f"num_stages must be in [1, {n}]")
    lo = float(w.max())
    # tiny headroom so sequential accumulation in the probe cannot
    # overshoot the pairwise-summed total by a rounding ulp
    hi = float(w.sum()) * (1.0 + 1e-12) + 1e-12
    best = None
    for _ in range(64):  # float binary search; 64 halvings ≍ exact
        mid = 0.5 * (lo + hi)
        bounds = _probe(w, num_stages, mid, memory, capacity)
        if bounds is not None:
            best = bounds
            hi = mid
        else:
            lo = mid
        if hi - lo <= max(1e-12, 1e-9 * hi):
            break
    if best is None:
        best = _probe(w, num_stages, hi, memory, capacity)
    if best is None:
        raise ValueError(
            "no feasible partition (memory capacity too small for some layer run)"
        )
    return PipelinePlan(tuple(best), n)


class PartitionBalancer(LoadBalancer):
    name = "partition"

    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        w = self._validate(plan, weights)
        before = plan.stage_loads(w)
        # the binary-search probe reasons about one scalar bound, so a
        # per-stage capacity vector conservatively collapses to its min
        try:
            new_plan = partition_balanced(
                w, plan.num_stages, memory_per_layer,
                self.scalar_capacity(memory_capacity),
            )
        except ValueError:
            # no split fits the conservative per-layer memory vector;
            # like a worse split, that is no reason to leave the current
            # plan (the caller validates the plan it already runs)
            return BalanceResult(plan, before, before)
        after = new_plan.stage_loads(w)
        # never return a worse plan than the current one
        if after.max() > before.max():
            new_plan, after = plan, before
        return BalanceResult(new_plan, before, after)

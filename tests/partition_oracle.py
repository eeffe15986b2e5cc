"""The probe-per-step partition search: the oracle ``partition_balanced`` is held to.

:func:`partition_balanced` bisects the bottleneck as a float, running
the greedy :func:`_probe` over NumPy elements at every midpoint (about
33 probes for a 26-layer model), and returns the probe's boundaries at
the final upper bound.  ``repro.core.balancers.partition`` probes only
at candidate bottlenecks and replays this bisection without probing;
it must return the same boundaries, or raise the same ``ValueError``,
on every input with non-negative weights and memory.
"""

from __future__ import annotations

import numpy as np

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

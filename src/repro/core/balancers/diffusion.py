"""Decentralized iterative diffusion balancer (paper section 3.3, Lemma 2).

A pipeline is a 1-D chain of stages, so diffusion load balancing takes
the classic 1-D transport form: across every internal cut b the chain
has a *prefix excess*

    e(b) = sum_{s < b} L_s  -  (b / S) * total

(e(b) < 0: the left side of the cut is underloaded and layers should
flow right-to-left; e(b) > 0: the reverse).  Each round, boundaries
are visited in decreasing |e(b)| (the "max neighbor" strategy of the
proof) and boundary layers move across the cut while the move strictly
reduces |e(b)| and respects per-worker memory.

The transport potential Φ_T(r) = Σ_b |e(b)| decreases strictly with
every accepted move (a layer of weight w moved in the right direction
changes exactly one prefix excess toward zero), which yields the same
Lyapunov-descent convergence argument as the paper's φ: rounds are
capped by the Lemma-2 bound and iteration stops once the pairwise-gap
potential φ ≤ γ or no boundary admits an improving move.  In floating
point two splits can tie, each claiming to improve on the other; a
boundary undoes such a tie move instead of flipping the layer back and
forth.

Unlike pairwise-gap rules, prefix-excess flow *cascades*: a hot tail
stage drains through a chain of equally-loaded neighbours toward an
idle front, which is exactly the pattern layer freezing and early exit
produce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.core.convergence import diffusion_rounds_bound
from repro.core.metrics import potential
from repro.pipeline.plan import PipelinePlan


def prefix_excess(loads: np.ndarray) -> np.ndarray:
    """e(b) for internal boundaries b = 1..S-1 (length S-1)."""
    total = loads.sum()
    S = loads.shape[0]
    cum = np.cumsum(loads)[:-1]
    fair = total * np.arange(1, S) / S
    return cum - fair


def transport_potential(loads: np.ndarray) -> float:
    """Φ_T = Σ_b |e(b)| — strictly decreased by every accepted move."""
    if loads.shape[0] < 2:
        return 0.0
    return float(np.abs(prefix_excess(loads)).sum())


class DiffusionBalancer(LoadBalancer):
    name = "diffusion"

    def __init__(self, gamma: float = 1e-3, max_rounds: int | None = None) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be > 0")
        self.gamma = gamma
        self.max_rounds = max_rounds

    @staticmethod
    def _flow_boundary(
        plan: PipelinePlan,
        w: np.ndarray,
        b: int,
        memory: np.ndarray | None,
        capacity: "float | Sequence[float] | None",
    ) -> PipelinePlan | None:
        """Move layers across internal boundary ``b`` down the excess
        gradient while each move strictly reduces |e(b)|."""
        cur = plan
        moves = 0
        last = 0  # direction of the previous move
        while True:
            loads = cur.stage_loads(w)
            e = prefix_excess(loads)[b - 1]
            sizes = cur.stage_sizes()
            if e < 0 and sizes[b] > 1:
                # left side underloaded: first layer of stage b moves left
                layer_w = w[cur.boundaries[b]]
                delta = +1
            elif e > 0 and sizes[b - 1] > 1:
                # left side overloaded: last layer of stage b-1 moves right
                layer_w = w[cur.boundaries[b] - 1]
                delta = -1
            else:
                break
            if abs(e + delta * layer_w) >= abs(e) - 1e-15:
                break  # the move would overshoot: no strict improvement
            cand = cur.move_boundary(b, delta)
            if not LoadBalancer.plan_feasible(cand, memory, capacity):
                break
            if delta == -last:
                # cand is the split before the last move, and each split
                # claims to beat the other: their excesses tie within
                # rounding.  Moving back would repeat forever, so undo
                # the tie move and stop.
                cur = cand
                moves -= 1
                break
            cur = cand
            moves += 1
            last = delta
        return cur if moves else None

    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        w = self._validate(plan, weights)
        before = plan.stage_loads(w)
        n = plan.num_stages
        total = float(w.sum())
        bound = self.max_rounds or diffusion_rounds_bound(
            n, max(total, 1e-12), self.gamma
        )
        bound = min(bound, 10_000)  # practical cap; stagnation exits earlier

        cur = plan
        trace = [transport_potential(before)]
        rounds = 0
        while rounds < bound and n > 1:
            loads = cur.stage_loads(w)
            if potential(loads) <= self.gamma:
                break
            # max-neighbor: visit boundaries by decreasing |excess|
            order = np.argsort(-np.abs(prefix_excess(loads))) + 1
            moved = False
            used = np.zeros(n, dtype=bool)  # each stage in one pair/round
            for b in order:
                b = int(b)
                if used[b - 1] or used[b]:
                    continue
                nxt = self._flow_boundary(cur, w, b, memory_per_layer, memory_capacity)
                if nxt is not None:
                    cur = nxt
                    used[b - 1] = used[b] = True
                    moved = True
            rounds += 1
            trace.append(transport_potential(cur.stage_loads(w)))
            if not moved:
                break  # local optimum: no excess-reducing move exists
        after = cur.stage_loads(w)
        if after.max() > before.max():
            cur, after = plan, before
        return BalanceResult(cur, before, after, rounds=rounds, potential_trace=trace)

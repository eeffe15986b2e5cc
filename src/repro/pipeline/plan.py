"""Pipeline plans: contiguous layer -> stage assignments.

Pipeline parallelism requires each stage to hold a *contiguous* range
of layers (activations flow stage i -> i+1).  A plan is therefore a
list of cut points.  Balancers produce new plans; re-packing produces
plans with fewer stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PipelinePlan:
    """``boundaries[i]`` is the first layer of stage i; a plan over L
    layers with S stages satisfies 0 = b_0 < b_1 < ... < b_S = L."""

    boundaries: tuple[int, ...]
    num_layers: int

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2:
            raise ValueError("plan needs at least one stage")
        if b[0] != 0 or b[-1] != self.num_layers:
            raise ValueError(f"boundaries must span [0, {self.num_layers}], got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"every stage needs >= 1 layer, got {b}")

    # -- constructors --------------------------------------------------
    @classmethod
    def uniform(cls, num_layers: int, num_stages: int) -> "PipelinePlan":
        """Megatron-style equal-layer-count split (remainder spread
        over the first stages)."""
        if num_stages <= 0 or num_stages > num_layers:
            raise ValueError(
                f"num_stages must be in [1, {num_layers}], got {num_stages}"
            )
        base, rem = divmod(num_layers, num_stages)
        bounds = [0]
        for s in range(num_stages):
            bounds.append(bounds[-1] + base + (1 if s < rem else 0))
        return cls(tuple(bounds), num_layers)

    # -- queries ---------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.boundaries) - 1

    def stage_layers(self, stage: int) -> range:
        return range(self.boundaries[stage], self.boundaries[stage + 1])

    def layer_stages(self) -> np.ndarray:
        """Every layer's stage index, as one int array of length L."""
        return np.repeat(np.arange(self.num_stages), np.diff(self.boundaries))

    def stage_sums(self, per_layer: np.ndarray) -> np.ndarray:
        """Add the last axis of per-layer values up per stage, with
        ``np.add.reduceat`` (integer bytes stay exact integers; float
        balancer loads go through :meth:`stage_loads`)."""
        return np.add.reduceat(per_layer, self.boundaries[:-1], axis=-1)

    def stage_sizes(self) -> list[int]:
        return [
            self.boundaries[i + 1] - self.boundaries[i] for i in range(self.num_stages)
        ]

    def stage_loads(self, layer_weights: np.ndarray) -> np.ndarray:
        """Sum per-layer weights (times, params, ...) into stage loads."""
        w = np.asarray(layer_weights, dtype=float)
        if w.shape[0] != self.num_layers:
            raise ValueError(
                f"got {w.shape[0]} weights for {self.num_layers} layers"
            )
        csum = np.concatenate([[0.0], np.cumsum(w)])
        b = np.asarray(self.boundaries)
        return csum[b[1:]] - csum[b[:-1]]

    # -- mutations (returning new plans) --------------------------------
    def move_boundary(self, boundary: int, delta: int) -> "PipelinePlan":
        """Shift internal cut point ``boundary`` (1..S-1) by delta layers.

        delta > 0 moves layers from the stage after the boundary into the
        stage before it; delta < 0 the reverse.
        """
        if not 1 <= boundary <= self.num_stages - 1:
            raise ValueError(f"boundary index must be internal, got {boundary}")
        b = list(self.boundaries)
        b[boundary] += delta
        return PipelinePlan(tuple(b), self.num_layers)

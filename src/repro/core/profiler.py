"""Profiling iteration (paper section 3.1 / 4).

After each dynamism event DynMo spends one iteration measuring (a) the
execution time of each layer in the altered model and (b) the memory
usage of every worker.  Here the measurement source is the analytic
cost model; optional multiplicative noise emulates real profiling
jitter so balancer robustness can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.cost import SPARSITY, ModelCost
from repro.pipeline.plan import PipelinePlan
from repro.utils.rng import new_rng


@dataclass
class ProfileReport:
    """Per-layer times/params and per-worker memory, one dynamism event."""

    layer_fwd_s: np.ndarray
    layer_bwd_s: np.ndarray
    layer_params: np.ndarray  # active (unpruned, unfrozen-agnostic) params
    layer_bytes: np.ndarray  # migration payload per layer
    worker_memory: np.ndarray

    @property
    def layer_total_s(self) -> np.ndarray:
        return self.layer_fwd_s + self.layer_bwd_s

    def weights(self, by: str) -> np.ndarray:
        """Balancer weight vector: 'time' or 'param'."""
        if by == "time":
            return self.layer_total_s
        if by == "param":
            return self.layer_params.astype(float)
        raise ValueError(f"unknown weight kind {by!r}")


class PipelineProfiler:
    def __init__(
        self,
        cost: ModelCost,
        noise: float = 0.0,
        in_flight: int = 4,
        seed: int | np.random.Generator = 0,
    ) -> None:
        if noise < 0:
            raise ValueError("noise must be >= 0")
        self.cost = cost
        self.noise = noise
        self.in_flight = in_flight
        self.rng = new_rng(seed)

    def profile(self, plan: PipelinePlan, states: np.ndarray) -> ProfileReport:
        if len(states) != len(self.cost.specs):
            raise ValueError("state/spec length mismatch")
        fwd, bwd, _ = self.cost.layer_times(states[None])
        fwd, bwd = fwd[0], bwd[0]
        if self.noise > 0:
            fwd = fwd * np.exp(self.rng.normal(0.0, self.noise, size=fwd.size))
            bwd = bwd * np.exp(self.rng.normal(0.0, self.noise, size=bwd.size))
        params = self.cost.param_counts * (1.0 - states[:, SPARSITY])
        nbytes = self.cost.layer_bytes(states[None], self.in_flight)[:, 0]
        payload = nbytes[:4].sum(axis=0)  # everything but activations
        mem = plan.stage_sums(nbytes.sum(axis=0)).astype(float)
        return ProfileReport(fwd, bwd, params, payload, mem)

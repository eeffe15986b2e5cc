"""The dense/sparse matmul kernel cost models and their crossover.

The paper (section 4.2.2) benchmarks three GPU kernels for the pruned
layers: cuBLAS dense matmul, cuSPARSE CSR SpMM, and Sputnik SpMM.  The
findings it relies on:

- Sputnik > cuSPARSE at all deep-learning sparsity levels;
- Sputnik overtakes cuBLAS (dense) at roughly 75% sparsity;
- cuSPARSE only pays off at extreme (>99%) sparsity.

We encode each kernel as an *effective-throughput* model:

    time(s, flops) = flops_dense * (1 - s) / eff_flops(s)   [sparse]
    time(s, flops) = flops_dense / dense_flops              [dense]

where efficiency falls as sparsity rises (irregular access) with
kernel-specific constants calibrated so the crossover lands at ~75%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_prob


@dataclass(frozen=True)
class SpmmCostModel:
    """Analytic kernel timing model.

    peak_flops: dense peak of the device for this kernel family.
    base_efficiency: fraction of peak achieved at sparsity 0.
    irregularity: how fast efficiency decays with sparsity
        (eff = base_efficiency / (1 + irregularity * s)).
    overhead_s: fixed launch overhead per call.
    """

    name: str
    peak_flops: float
    base_efficiency: float
    irregularity: float
    overhead_s: float = 2e-6

    def time(self, dense_flops: float, sparsity: float) -> float:
        """Seconds to run a matmul with this kernel at given sparsity."""
        check_prob("sparsity", sparsity)
        if dense_flops < 0:
            raise ValueError("dense_flops must be >= 0")
        useful = dense_flops * (1.0 - sparsity)
        eff = self.base_efficiency / (1.0 + self.irregularity * sparsity)
        return self.overhead_s + useful / (self.peak_flops * eff)


def dense_cost_model(peak_flops: float = 989e12) -> SpmmCostModel:
    """cuBLAS-like dense kernel: ignores sparsity entirely."""
    return SpmmCostModel("cublas", peak_flops, base_efficiency=0.62, irregularity=0.0)


def sputnik_cost_model(peak_flops: float = 989e12) -> SpmmCostModel:
    """Sputnik: DL-tuned SpMM; calibrated to overtake dense at ~75%
    sparsity (time ratio vs dense: 1.0 at s=0.75, ~0.44 at s=0.9)."""
    return SpmmCostModel("sputnik", peak_flops, base_efficiency=0.30, irregularity=1.247)


def cusparse_cost_model(peak_flops: float = 989e12) -> SpmmCostModel:
    """cuSPARSE: HPC-tuned; pays off only at extreme (>97%) sparsity."""
    return SpmmCostModel("cusparse", peak_flops, base_efficiency=0.04, irregularity=0.8)


def dense_time(dense_flops: float, peak_flops: float = 989e12) -> float:
    m = dense_cost_model(peak_flops)
    # sparsity=0: dense kernels always execute the full FLOPs
    return m.time(dense_flops, 0.0)


def crossover_sparsity(
    dense_flops: float = 1e12, peak_flops: float = 989e12, resolution: int = 2000
) -> float:
    """Numerically locate where Sputnik first beats dense (~0.75)."""
    dense = dense_cost_model(peak_flops)
    sput = sputnik_cost_model(peak_flops)
    svals = np.linspace(0.0, 1.0, resolution)
    d = dense.time(dense_flops, 0.0)
    for s in svals:
        if sput.time(dense_flops, float(s)) < d:
            return float(s)
    return 1.0

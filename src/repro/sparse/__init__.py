"""Sparse-matmul kernel cost models (stand-ins for the Sputnik CUDA kernels).

Gradual pruning replaces dense matmul (DMM) with sparse matmul (SpMM).
:mod:`repro.sparse.kernels` times each kernel family with a calibrated
effective-throughput model, reproducing the paper's finding that
deep-learning-tuned sparse kernels (Sputnik) overtake dense (cuBLAS) at
~75% sparsity, while HPC kernels (cuSPARSE) only pay off at extreme
sparsity.  :class:`~repro.model.cost.ModelCost` prices pruned layers
with the best of the three.
"""

from repro.sparse.kernels import (
    SpmmCostModel,
    sputnik_cost_model,
    cusparse_cost_model,
)

__all__ = [
    "SpmmCostModel",
    "sputnik_cost_model",
    "cusparse_cost_model",
]

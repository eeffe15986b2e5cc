"""DynMo — the paper's primary contribution.

Pipeline: profile (per-layer time + per-worker memory) → balance
(Partition or Diffusion, by parameter count or measured time) →
optionally re-pack onto fewer workers → migrate layers.

All components are independent of the dynamism scheme (DynMo is a
black box invoked at fixed intervals — section 3.2).
"""

from repro.core.metrics import imbalance, potential
from repro.core.profiler import PipelineProfiler, ProfileReport
from repro.core.balancers import (
    LoadBalancer,
    BalanceResult,
    PartitionBalancer,
    DiffusionBalancer,
    DPExactBalancer,
)
from repro.core.convergence import diffusion_rounds_bound
from repro.core.repack import first_fit_repack, RepackResult
from repro.core.controller import DynMoController, DynMoConfig

__all__ = [
    "imbalance",
    "potential",
    "PipelineProfiler",
    "ProfileReport",
    "LoadBalancer",
    "BalanceResult",
    "PartitionBalancer",
    "DiffusionBalancer",
    "DPExactBalancer",
    "diffusion_rounds_bound",
    "first_fit_repack",
    "RepackResult",
    "DynMoController",
    "DynMoConfig",
]

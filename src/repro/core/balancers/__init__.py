"""DynMo's two load-balancing algorithms."""

from repro.core.balancers.base import LoadBalancer, BalanceResult
from repro.core.balancers.partition import PartitionBalancer, partition_balanced
from repro.core.balancers.diffusion import DiffusionBalancer
from repro.core.balancers.dpexact import DPExactBalancer, dp_partition

__all__ = [
    "LoadBalancer",
    "BalanceResult",
    "PartitionBalancer",
    "partition_balanced",
    "DiffusionBalancer",
    "DPExactBalancer",
    "dp_partition",
]

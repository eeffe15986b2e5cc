"""The six dynamic-model scenarios (paper section 2).

Each scheme writes columns of a run's ``(L, 6)`` layer-state array
(:data:`repro.model.cost.STATE_FIELDS`) once per training iteration
and reports whether the model/control-flow changed (the trigger for
DynMo's profiling + rebalancing).  Schemes are *stochastic but
seeded*; their statistics are calibrated to the imbalance magnitudes
the paper measures in Fig. 1 (MoE ~25%, pruning up to ~5x, freezing
~40%, sparse attention ~4x, early exit ~5x, MoD ~18%).
"""

from repro.dynamics.base import DynamismScheme, StaticScheme
from repro.dynamics.moe import MoEDynamism
from repro.dynamics.pruning import GradualPruningSchedule, PruningDynamism
from repro.dynamics.freezing import FreezingDynamism
from repro.dynamics.sparse_attention import SparseAttentionDynamism
from repro.dynamics.early_exit import EarlyExitDynamism
from repro.dynamics.mod import MoDDynamism

__all__ = [
    "DynamismScheme",
    "StaticScheme",
    "MoEDynamism",
    "GradualPruningSchedule",
    "PruningDynamism",
    "FreezingDynamism",
    "SparseAttentionDynamism",
    "EarlyExitDynamism",
    "MoDDynamism",
]

"""The six dynamic-model scenarios (paper section 2).

Each scheme mutates a vector of :class:`repro.model.LayerState` once
per training iteration and reports whether the model/control-flow
changed (the trigger for DynMo's profiling + rebalancing).  Schemes are
*stochastic but seeded*; their statistics are calibrated to the
imbalance magnitudes the paper measures in Fig. 1 (MoE ~25%, pruning up
to ~5x, freezing ~40%, sparse attention ~4x, early exit ~5x, MoD ~18%).

Three modules also carry real-signal helpers (LSH block masks,
confidence survival curves, a plateau freezer) that turn measured
arrays into the same per-layer quantities; no CLI command calls them.
"""

from repro.dynamics.base import DynamismScheme, StaticScheme
from repro.dynamics.moe import MoEDynamism
from repro.dynamics.pruning import (
    GradualPruningSchedule,
    GlobalMagnitudePruner,
    PruningDynamism,
)
from repro.dynamics.freezing import FreezingDynamism, PlateauFreezer
from repro.dynamics.sparse_attention import SparseAttentionDynamism, lsh_block_mask
from repro.dynamics.early_exit import EarlyExitDynamism, confidence_survival
from repro.dynamics.mod import MoDDynamism

__all__ = [
    "DynamismScheme",
    "StaticScheme",
    "MoEDynamism",
    "GradualPruningSchedule",
    "GlobalMagnitudePruner",
    "PruningDynamism",
    "FreezingDynamism",
    "PlateauFreezer",
    "SparseAttentionDynamism",
    "lsh_block_mask",
    "EarlyExitDynamism",
    "confidence_survival",
    "MoDDynamism",
]

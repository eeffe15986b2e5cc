"""repro — reproduction of DynMo (SC'25): balanced and elastic
end-to-end training of dynamic LLMs.

Top-level convenience re-exports; see subpackages for the full API:

- ``repro.core``      — DynMo balancers, re-packing, controller
- ``repro.dynamics``  — the six dynamic-model schemes
- ``repro.pipeline``  — pipeline plans, schedules, event simulator
- ``repro.cluster``   — topology, collectives, placement, job manager
- ``repro.model``     — GPT configs + per-layer cost model
- ``repro.sparse``    — CSR/SpMM substrate
- ``repro.training``  — end-to-end Trainer
- ``repro.baselines`` — Megatron/DeepSpeed/Tutel/Egeria/PipeTransformer
- ``repro.experiments`` — figure/table drivers
"""

from repro.core import (
    DynMoConfig,
    DynMoController,
    DiffusionBalancer,
    PartitionBalancer,
    first_fit_repack,
)
from repro.model import GPTConfig, ModelCost, build_layer_specs
from repro.pipeline import PipelineEngine, PipelinePlan
from repro.training import Trainer, TrainingConfig

# the stable orchestration facade (repro.api) re-exported at top level
from repro.api import (
    EnsembleResult,
    ExecutionPolicy,
    MergeResult,
    PlacementOOMError,
    RetryPolicy,
    RunRecord,
    RunSpec,
    ShardPlan,
    ShardWorker,
    StageMemoryModel,
    StageMemoryReport,
    SweepInterrupted,
    SweepJournal,
    TraceDistribution,
    ensemble,
    merge_shard_dir,
    shard_sweep,
    simulate,
    sweep,
)

__version__ = "2.0.0"

__all__ = [
    "DynMoConfig",
    "DynMoController",
    "DiffusionBalancer",
    "PartitionBalancer",
    "first_fit_repack",
    "GPTConfig",
    "ModelCost",
    "build_layer_specs",
    "PipelineEngine",
    "PipelinePlan",
    "Trainer",
    "TrainingConfig",
    "EnsembleResult",
    "ExecutionPolicy",
    "MergeResult",
    "PlacementOOMError",
    "RetryPolicy",
    "RunRecord",
    "RunSpec",
    "ShardPlan",
    "ShardWorker",
    "StageMemoryModel",
    "StageMemoryReport",
    "SweepInterrupted",
    "SweepJournal",
    "TraceDistribution",
    "ensemble",
    "merge_shard_dir",
    "shard_sweep",
    "simulate",
    "sweep",
    "__version__",
]

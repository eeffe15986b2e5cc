"""Pipeline-parallel execution substrate.

- :mod:`plan` — assignment of contiguous layer ranges to pipeline
  stages (what the balancers optimise and re-packing shrinks);
- :mod:`schedules` — GPipe, 1F1B and zero-bubble (B/W split) orderings;
- :mod:`engine` — what one run's iterations are priced under (cost
  and comm models, schedule, placement, stragglers) and the
  :class:`IterationResult`: makespan, per-worker busy/idle time and
  the bubble ratio (the paper's Fig. 1 metric);
- :mod:`compiled` — process-wide cached flat op tables, the scalar
  executor (the faster one for a single lane, and the only one that
  records timelines) and ``merge_lane``, the one zero-bubble W-filler
  both executors call;
- :mod:`batched` — :func:`~repro.pipeline.batched.simulate_many`, the
  one pricing path (``PipelineEngine.run_iteration`` is its one-lane
  case): it builds every lane's tables and runs the scalar executor or
  a level-by-level NumPy cascade over many lanes, each lane
  bit-identical either way;
- :mod:`migration` — layer-movement plans between two pipeline plans
  plus their communication cost (DynMo's "move layers while gradients
  are computed" step).
"""

from repro.pipeline.plan import PipelinePlan
from repro.pipeline.schedules import Schedule, OpKind, Op
from repro.pipeline.compiled import CompiledSchedule, compile_schedule
from repro.pipeline.batched import CompiledLevels, compile_levels, simulate_many
from repro.pipeline.engine import PipelineEngine, IterationResult
from repro.pipeline.migration import MigrationPlan, diff_plans

__all__ = [
    "PipelinePlan",
    "Schedule",
    "OpKind",
    "Op",
    "CompiledSchedule",
    "compile_schedule",
    "CompiledLevels",
    "compile_levels",
    "simulate_many",
    "PipelineEngine",
    "IterationResult",
    "MigrationPlan",
    "diff_plans",
]

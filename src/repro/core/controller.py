"""The DynMo controller: profile → balance → re-pack → migrate.

DynMo operates as a black box (section 3.2): it is invoked at a fixed
interval without knowing whether the model changed; the interval
defaults to the dynamism scheme's recommendation (every iteration for
MoE/sparse-attention/MoD, every few hundred/thousand for the rest).

Overhead accounting mirrors the Fig. 4 table's three components:

- *profiling* — one instrumented iteration's extra cost, modelled as a
  fixed fraction of the iteration time;
- *balancing algorithm* — the Python balancer's own cost: either its
  real wall-clock time (measured with a Timer; paper fidelity) or a
  deterministic analytic estimate (``balance_cost="modeled"``, the
  default for orchestrated runs so results are reproducible);
- *migration* — the simulated communication time of moving layers,
  partially overlapped with back-propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import Placement
from repro.core.balancers import (
    DiffusionBalancer,
    DPExactBalancer,
    LoadBalancer,
    PartitionBalancer,
)
from repro.core.profiler import PipelineProfiler, ProfileReport
from repro.core.repack import repack_plan, RepackResult
from repro.model.cost import LayerState, ModelCost
from repro.model.memory import StageMemoryModel
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan
from repro.utils.timers import TimerSet


@dataclass
class OverheadBreakdown:
    profile_s: float = 0.0
    balance_s: float = 0.0
    migrate_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.profile_s + self.balance_s + self.migrate_s

    def as_dict(self) -> dict[str, float]:
        return {
            "profile_s": self.profile_s,
            "balance_s": self.balance_s,
            "migrate_s": self.migrate_s,
            "total_s": self.total_s,
        }


#: Constants for the *modeled* balance overhead (calibrated on a
#: commodity x86 core): the greedy balancers are linear in layers,
#: diffusion adds a per-round term, the exact DP is O(L^2 * S).
_MODELED_PER_LAYER_S = 10e-6
_MODELED_PER_ROUND_S = 40e-6
_MODELED_DP_UNIT_S = 0.17e-6


def modeled_balance_cost_s(
    balancer: str, num_layers: int, num_stages: int, rounds: int = 0
) -> float:
    """Deterministic analytic estimate of one balancer invocation's cost.

    Substituting this for the measured wall time makes a simulated
    ``TrainingResult`` a pure function of its inputs — identical across
    hosts, process pools and re-runs — which is what the sweep
    orchestrator's result cache and determinism guarantees require.
    """
    if balancer == "dp":
        return _MODELED_DP_UNIT_S * num_layers * num_layers * num_stages
    cost = _MODELED_PER_LAYER_S * num_layers
    if balancer == "diffusion":
        cost += _MODELED_PER_ROUND_S * max(0, rounds)
    return cost


@dataclass
class DynMoConfig:
    balancer: str = "diffusion"  # "partition" | "diffusion" | "dp"
    weight_by: str = "time"  # "time" | "param"
    # "measured" charges the balancer's real wall-clock time (paper
    # fidelity); "modeled" charges the analytic estimate above so
    # results are bit-identical across runs and machines.
    balance_cost: str = "measured"
    rebalance_every: int | None = None  # None -> scheme recommendation
    repack: bool = False
    repack_target_workers: int = 1
    # Re-packing is only useful once dynamism has *shrunk* the model
    # (section 3.4: "when the overall compute demand drops").  A shrink
    # slack of 0.1 allows packing down to worker counts whose per-stage
    # compute stays within 110% of the original per-stage compute, so
    # throughput is sustained while GPUs are released.
    repack_shrink_slack: float = 0.1
    # Force packing to repack_target_workers regardless of the compute
    # gate (the Fig. 4 sweep trains entire runs at 6/4/2 GPUs).
    repack_force_target: bool = False
    memory_capacity_bytes: float | None = None
    migration_overlap: float = 0.7
    profile_overhead_frac: float = 0.005
    diffusion_gamma_frac: float = 1e-3  # gamma as fraction of total load

    def __post_init__(self) -> None:
        if self.balancer not in ("partition", "diffusion", "dp"):
            raise ValueError(f"unknown balancer {self.balancer!r}")
        if self.weight_by not in ("time", "param"):
            raise ValueError(f"unknown weight_by {self.weight_by!r}")
        if self.balance_cost not in ("measured", "modeled"):
            raise ValueError(f"unknown balance_cost {self.balance_cost!r}")
        if not 0.0 <= self.migration_overlap <= 1.0:
            raise ValueError("migration_overlap must be in [0, 1]")


@dataclass
class DynMoDecision:
    plan: PipelinePlan
    #: the balancer changed the partition (re-pack alone does not count)
    rebalanced: bool = False
    repacked: bool = False
    released_workers: list[int] = field(default_factory=list)  # stage indices
    released_ranks: list[int] = field(default_factory=list)  # global GPU ranks
    placement: Placement | None = None  # post-decision stage→rank map
    overhead_s: float = 0.0
    layers_moved: int = 0
    report: ProfileReport | None = None
    #: the balancer's plan was rejected because a stage would not fit
    #: its destination ranks' memory (memory-model mode only)
    oom_rejected: bool = False


class DynMoController:
    def __init__(
        self,
        cost: ModelCost,
        comm: CommCostModel | None = None,
        config: DynMoConfig | None = None,
        profiler: PipelineProfiler | None = None,
        balancer_override: LoadBalancer | None = None,
        placement: Placement | None = None,
        memory_model: StageMemoryModel | None = None,
    ) -> None:
        self.cost = cost
        self.comm = comm
        self.config = config or DynMoConfig()
        # current stage→rank map; shrinks in place when a re-pack
        # releases workers so later migrations price the real links
        self.placement = placement
        # when set, capacities become per-stage (each placed rank's own
        # device memory) and plans that would OOM a destination are
        # rejected; when None the legacy scalar capacity path runs
        # untouched, keeping default results bit-identical
        self.memory_model = memory_model
        self.profiler = profiler or PipelineProfiler(cost)
        self.balancer_override = balancer_override
        self.timers = TimerSet()
        self.overhead = OverheadBreakdown()
        self.num_rebalances = 0
        self.num_repacks = 0
        self.num_oom_rejections = 0
        self._initial_per_stage_load: float | None = None

    def _stage_capacities(
        self, placement: Placement | None, num_stages: int
    ) -> "np.ndarray | float | None":
        """Per-stage capacity vector in memory-model mode, else the
        scalar config capacity (Algorithm 2's ``MAX_MEM``)."""
        if (
            self.memory_model is None
            or placement is None
            or placement.num_stages != num_stages
        ):
            return self.config.memory_capacity_bytes
        caps = np.array(self.memory_model.stage_capacities(num_stages, placement))
        if self.config.memory_capacity_bytes is not None:
            caps = np.minimum(caps, float(self.config.memory_capacity_bytes))
        return caps

    def _make_balancer(self, total_load: float) -> LoadBalancer:
        if self.balancer_override is not None:
            return self.balancer_override
        if self.config.balancer == "partition":
            return PartitionBalancer()
        if self.config.balancer == "dp":
            return DPExactBalancer()
        return DiffusionBalancer(
            gamma=max(self.config.diffusion_gamma_frac * total_load, 1e-15)
        )

    def should_invoke(self, k: int, scheme_every: int) -> bool:
        every = self.config.rebalance_every or scheme_every
        return every > 0 and k % every == 0

    # -- the DynMo step -----------------------------------------------------
    def rebalance(
        self,
        k: int,
        plan: PipelinePlan,
        states: list[LayerState],
        iter_time_hint: float = 0.0,
    ) -> DynMoDecision:
        """One full DynMo invocation at iteration k."""
        decision = DynMoDecision(plan=plan)

        # 1. profile (instrumented iteration)
        report = self.profiler.profile(plan, states, iteration=k)
        decision.report = report
        profile_cost = self.config.profile_overhead_frac * iter_time_hint
        self.overhead.profile_s += profile_cost

        weights = report.weights(self.config.weight_by)
        if self.memory_model is not None:
            # schedule- and precision-aware bytes at the conservative
            # worst-stage in-flight count (a per-layer vector cannot
            # express stage-dependent in-flight)
            mem_layers = np.asarray(
                self.memory_model.layer_bytes(
                    states, self.memory_model.worst_in_flight(plan.num_stages)
                ),
                dtype=float,
            )
            worker_memory = np.asarray(
                self.memory_model.plan_stage_bytes(plan, states), dtype=float
            )
        else:
            mem_layers = report.layer_bytes.astype(float)
            worker_memory = report.worker_memory
        capacity = self._stage_capacities(self.placement, plan.num_stages)

        # 2. optional re-pack first (fewer workers), then balance within.
        # The compute gate ensures packing only happens once the model
        # has shrunk enough that fewer workers sustain throughput.
        total_load = float(weights.sum())
        if self._initial_per_stage_load is None:
            self._initial_per_stage_load = total_load / plan.num_stages
        work_plan = plan
        old_placement = self.placement
        new_placement = self.placement
        if self.config.repack and capacity is not None:
            if self.config.repack_force_target:
                target = self.config.repack_target_workers
            else:
                budget = self._initial_per_stage_load * (
                    1.0 + self.config.repack_shrink_slack
                )
                min_stages_by_compute = max(
                    1, int(np.ceil(total_load / max(budget, 1e-30)))
                )
                target = max(self.config.repack_target_workers, min_stages_by_compute)
            new_plan, result = repack_plan(
                work_plan,
                worker_memory,
                capacity,
                target,
            )
            if result.num_active < plan.num_stages:
                decision.repacked = True
                decision.released_workers = result.released
                if self.placement is not None:
                    decision.released_ranks = list(
                        self.placement.released_ranks(result.surviving)
                    )
                    new_placement = self.placement.after_repack(result.surviving)
                work_plan = new_plan

        # 3. balance (wall-clock measured, or analytically modeled for
        # bit-reproducible results).  Capacities are re-derived against
        # the *post-repack* placement: surviving stages keep their own
        # devices, so a shrink can change which capacity binds where.
        balance_capacity = (
            self._stage_capacities(new_placement, work_plan.num_stages)
            if decision.repacked
            else capacity
        )
        balancer = self._make_balancer(float(weights.sum()))
        timer = self.timers("balance")
        timer.start()
        try:
            result = balancer.rebalance(
                work_plan, weights, mem_layers, balance_capacity
            )
        finally:
            balance_cost = timer.stop()
        if self.config.balance_cost == "modeled":
            balance_cost = modeled_balance_cost_s(
                self.config.balancer,
                len(weights),
                work_plan.num_stages,
                rounds=getattr(result, "rounds", 0),
            )
        self.overhead.balance_s += balance_cost

        # commit re-pack state only now: a balancer exception above must
        # leave the controller consistent with the caller's plan
        if decision.repacked:
            self.placement = new_placement
            self.num_repacks += 1

        new_plan = result.plan
        if (
            self.memory_model is not None
            and new_plan.boundaries != work_plan.boundaries
        ):
            # memoised totals against cached capacities (equivalent to
            # validate_memory's fits verdict, without report objects)
            totals = self.memory_model.plan_stage_bytes(new_plan, states)
            caps = self._stage_capacities(new_placement, new_plan.num_stages)
            if caps is None:
                fits = True
            elif np.isscalar(caps):
                fits = all(t <= float(caps) for t in totals)
            else:
                fits = all(t <= c for t, c in zip(totals, caps))
            if not fits:
                # the balancer's move would OOM a destination stage:
                # keep the pre-balance plan (Trainer-level validation
                # decides whether the status quo itself is viable)
                new_plan = work_plan
                decision.oom_rejected = True
                self.num_oom_rejections += 1
        decision.placement = new_placement

        # 4. migration cost — priced between the ranks that actually
        # hold the stages, before (old placement) and after (post-repack
        # placement) the move
        if new_plan.boundaries != plan.boundaries or decision.repacked:
            migration = diff_plans(plan, new_plan, self.cost, states)
            mig_cost = migration.cost_seconds(
                self.comm,
                overlap=self.config.migration_overlap,
                src_placement=old_placement,
                dst_placement=new_placement,
            )
            self.overhead.migrate_s += mig_cost
            decision.layers_moved = migration.num_layers_moved
            decision.rebalanced = new_plan.boundaries != work_plan.boundaries
            decision.plan = new_plan
            decision.overhead_s = profile_cost + balance_cost + mig_cost
        else:
            decision.overhead_s = profile_cost + balance_cost
        self.num_rebalances += 1
        return decision

"""Dependency-exact discrete-event simulation of one pipeline iteration.

Given a :class:`PipelinePlan`, per-layer forward/backward times (from
:class:`repro.model.ModelCost` under the current dynamism state), a
communication cost model, a schedule and a micro-batch count, compute:

- iteration makespan,
- per-worker busy and idle time,
- the bubble ratio (mean idle fraction — the paper's Fig. 1 metric),
- optionally a full (worker, op, micro, start, end) timeline.

Dependency rules (activation/grad passing between adjacent stages):

- F(s, m) needs F(s-1, m) + activation transfer.
- B(s, m) needs B(s+1, m) + gradient transfer (last stage: own F(s, m)).
- W(s, m) needs own B(s, m); W has no dependents, so under the ``zb``
  schedule the engine first lays out the F/B critical path and then
  fills idle gaps with eligible W work (greedy gap-filling, the ZB-H1
  idea) instead of serialising it.

An engine holds what a run is priced under and prices its edges and
data-parallel tail; it builds no table and runs no cascade.
:func:`repro.pipeline.batched.simulate_many`, the one pricing path,
builds every lane's tables, picks the executor and finishes each lane
here; :meth:`PipelineEngine.run_iteration` is its one-lane case.

Data-parallel gradient all-reduce (when ``dp_ways > 1``) is appended
after the last W/B of each worker, overlapped-free (pessimistic, like
Megatron's default non-overlapped reduce).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import Placement
from repro.model.cost import ModelCost
from repro.pipeline import batched
from repro.pipeline.compiled import TimelineOp
from repro.pipeline.plan import PipelinePlan
from repro.pipeline.schedules import Schedule


@dataclass
class IterationResult:
    makespan: float
    busy: np.ndarray  # (S,) seconds of compute per worker
    comm_extra: float = 0.0  # DP allreduce etc (already inside makespan)
    timeline: list[TimelineOp] = field(default_factory=list)

    @property
    def num_workers(self) -> int:
        return len(self.busy)

    @property
    def idle(self) -> np.ndarray:
        return np.maximum(self.makespan - self.busy, 0.0)

    def idle_fraction(self) -> np.ndarray:
        if self.makespan <= 0:
            return np.zeros_like(self.busy)
        return self.idle / self.makespan

    def bubble_ratio(self) -> float:
        """Mean idle fraction across workers (the Fig. 1 'idleness')."""
        return float(self.idle_fraction().mean())

    def imbalance(self) -> float:
        """(max - min)/mean of per-worker busy time (paper Eq. 2)."""
        mean = self.busy.mean()
        if mean <= 0:
            return 0.0
        return float((self.busy.max() - self.busy.min()) / mean)


class PipelineEngine:
    """Simulates iterations of pipeline(+data)-parallel training."""

    def __init__(
        self,
        cost: ModelCost,
        comm: CommCostModel | None = None,
        schedule: str | Schedule = "1f1b",
        num_micro: int = 4,
        dp_ways: int = 1,
        record_timeline: bool = False,
        placement: Placement | None = None,
        rank_slowdowns: dict[int, float] | None = None,
    ) -> None:
        self.cost = cost
        self.comm = comm
        self.schedule = schedule if isinstance(schedule, Schedule) else Schedule(schedule)
        if num_micro <= 0:
            raise ValueError("num_micro must be positive")
        self.num_micro = num_micro
        if dp_ways <= 0:
            raise ValueError("dp_ways must be positive")
        self.dp_ways = dp_ways
        self.record_timeline = record_timeline
        # Explicit stage→rank map; None falls back to the identity
        # mapping (rank == stage, DP groups 0..D-1) of a fresh packed
        # placement on a single-node cluster.
        self.placement = placement
        # transient per-rank slowdown factors (straggler windows from a
        # cluster-event trace); empty means no rank is degraded
        self.rank_slowdowns: dict[int, float] = {}
        # (key, speeds) memo for _effective_speeds; content-keyed, so
        # placement swaps and slowdown updates need no invalidation
        self._speeds_cache: tuple[tuple, np.ndarray | None] | None = None
        if rank_slowdowns:
            self.set_rank_slowdowns(rank_slowdowns)

    def set_rank_slowdowns(self, slowdowns: dict[int, float] | None) -> None:
        """Install straggler slowdown factors keyed by global rank.

        A factor of ``f`` makes every op on that rank — compute and its
        P2P hand-offs — take ``f``× as long; factors of exactly 1.0 are
        dropped so an all-healthy map prices identically to no map.
        """
        clean: dict[int, float] = {}
        for rank, factor in (slowdowns or {}).items():
            if factor <= 0:
                raise ValueError(
                    f"slowdown factor for rank {rank} must be > 0, got {factor}"
                )
            if factor != 1.0:
                clean[int(rank)] = float(factor)
        self.rank_slowdowns = clean

    def _stage_slowdown(self, stage: int) -> float:
        """Worst straggler factor across the ranks holding one stage
        (a DP group is synchronous, so the stage moves at its slowest
        replica; without a placement, rank == stage)."""
        if not self.rank_slowdowns:
            return 1.0
        group = (
            self.placement.dp_group(stage) if self.placement is not None else (stage,)
        )
        return max(self.rank_slowdowns.get(r, 1.0) for r in group)

    def _effective_speeds(self, num_stages: int) -> np.ndarray | None:
        """Speeds of the placed devices, degraded by any active
        straggler windows (None when every stage runs at full speed).

        Memoised on the content that feeds it (stage count, placement
        grid, slowdown map) — per-iteration callers like the batched
        executor would otherwise pay the placement speed scan on every
        lane.  Callers never mutate the returned array (all scaling is
        out-of-place), so sharing it is safe.
        """
        key = (
            num_stages,
            self.placement.grid if self.placement is not None else None,
            tuple(sorted(self.rank_slowdowns.items())),
        )
        cached = self._speeds_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        speeds = self._effective_speeds_uncached(num_stages)
        self._speeds_cache = (key, speeds)
        return speeds

    def _effective_speeds_uncached(self, num_stages: int) -> np.ndarray | None:
        speeds: np.ndarray | None = None
        if self.placement is not None:
            placed = self.placement.worker_speeds()
            # non-reference devices (uniform A100 cluster, mixed nodes,
            # ...) slow their stages down; all-reference is a no-op
            if not np.allclose(placed, 1.0):
                speeds = placed
        if self.rank_slowdowns:
            slow = np.array([self._stage_slowdown(s) for s in range(num_stages)])
            speeds = (speeds if speeds is not None else np.ones(num_stages)) / slow
        return speeds

    def _edge_time(self, src_stage: int, dst_stage: int, nbytes: float) -> float:
        """Activation/grad hand-off cost between adjacent stages.

        DP replicas run in lockstep, so the edge costs what the
        worst-placed replica pays for it."""
        if self.comm is None:
            return 0.0
        sl = self.rank_slowdowns
        if self.placement is None:
            t = self.comm.p2p_time(src_stage, dst_stage, nbytes)
            if sl:
                # a straggling endpoint drains its NIC at the same
                # degraded pace as its compute
                t *= max(sl.get(src_stage, 1.0), sl.get(dst_stage, 1.0))
            return t
        best = 0.0
        for d in range(self.placement.dp_ways):
            src = self.placement.rank_of(src_stage, d)
            dst = self.placement.rank_of(dst_stage, d)
            t = self.comm.p2p_time(src, dst, nbytes)
            if sl:
                t *= max(sl.get(src, 1.0), sl.get(dst, 1.0))
            best = max(best, t)
        return best

    def _dp_group(self, stage: int) -> list[int]:
        if self.placement is not None:
            return list(self.placement.dp_group(stage))
        return list(range(self.dp_ways))

    def _check_placement(self, plan: PipelinePlan) -> None:
        if self.placement is None:
            return
        if self.placement.num_stages != plan.num_stages:
            raise ValueError(
                f"placement covers {self.placement.num_stages} stages, "
                f"plan has {plan.num_stages}"
            )
        if self.placement.dp_ways != self.dp_ways:
            raise ValueError(
                f"placement has {self.placement.dp_ways} DP replicas, "
                f"engine expects {self.dp_ways}"
            )

    # -- simulation ---------------------------------------------------------
    def run_iteration(
        self, plan: PipelinePlan, states: np.ndarray
    ) -> IterationResult:
        """One iteration: the one-lane case of
        :func:`~repro.pipeline.batched.simulate_many`."""
        # looked up on the module at call time, so a wrapper installed
        # on the module attribute (profilers, tests) sees this call
        return batched.simulate_many([(self, plan, states)])[0]

    def _finish(
        self,
        plan: PipelinePlan,
        states: np.ndarray,
        worker_time: list[float],
        busy: list[float] | np.ndarray,
        timeline: list[TimelineOp] | None = None,
    ) -> IterationResult:
        """Data-parallel gradient all-reduce at iteration end, then the
        makespan (shared by the scalar and the batched executor)."""
        comm_extra = 0.0
        if self.dp_ways > 1 and self.comm is not None:
            # per-stage gradient bytes exchanged across the DP group
            # (frozen/pruned parameters are excluded, as in the paper)
            grads = self.cost.layer_bytes(states[None])[2, 0]
            grad_bytes = plan.stage_sums(grads).astype(float)
            for s in range(plan.num_stages):
                t = self.comm.allreduce_time(self._dp_group(s), grad_bytes[s])
                worker_time[s] += t
                comm_extra = max(comm_extra, t)
        makespan = float(max(worker_time))
        return IterationResult(makespan, np.array(busy), comm_extra, timeline or [])

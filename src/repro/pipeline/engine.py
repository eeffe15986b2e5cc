"""Dependency-exact discrete-event simulation of one pipeline iteration.

Given a :class:`PipelinePlan`, per-layer forward/backward times (from
:class:`repro.model.ModelCost` under the current dynamism state), a
communication cost model, a schedule and a micro-batch count, compute:

- iteration makespan,
- per-worker busy and idle time,
- the bubble ratio (mean idle fraction — the paper's Fig. 1 metric),
- optionally a full (worker, op, start, end) timeline.

Dependency rules (activation/grad passing between adjacent stages):

- F(s, m) needs F(s-1, m) + activation transfer.
- B(s, m) needs B(s+1, m) + gradient transfer (last stage: own F(s, m)).
- W(s, m) needs own B(s, m); W has no dependents, so under the ``zb``
  schedule the engine first lays out the F/B critical path and then
  fills idle gaps with eligible W work (greedy gap-filling, the ZB-H1
  idea) instead of serialising it.

Data-parallel gradient all-reduce (when ``dp_ways > 1``) is appended
after the last W/B of each worker, overlapped-free (pessimistic, like
Megatron's default non-overlapped reduce).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import Placement
from repro.model.cost import LayerState, ModelCost, state_matrix
from repro.pipeline.compiled import compile_schedule, execute_compiled
from repro.pipeline.plan import PipelinePlan
from repro.pipeline.schedules import Op, OpKind, Schedule


@dataclass
class IterationResult:
    makespan: float
    busy: np.ndarray  # (S,) seconds of compute per worker
    comm_extra: float = 0.0  # DP allreduce etc (already inside makespan)
    timeline: list[tuple[int, str, int, float, float]] = field(default_factory=list)

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
        worker_speeds: np.ndarray | None = None,
        use_compiled: bool = True,
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
        # The compiled fast path (repro.pipeline.compiled) is
        # bit-identical to the reference ready-loop; the reference is
        # kept as the oracle and as the only path that can record a
        # timeline.  ``use_compiled=False`` forces the oracle.
        self.use_compiled = use_compiled
        # Explicit stage→rank map; None falls back to the identity
        # mapping (rank == stage, DP groups 0..D-1) of a fresh packed
        # placement on a single-node cluster.
        self.placement = placement
        if worker_speeds is not None:
            worker_speeds = np.asarray(worker_speeds, dtype=float)
            if (worker_speeds <= 0).any():
                raise ValueError("worker speeds must be positive")
        self.worker_speeds = worker_speeds
        # transient per-rank slowdown factors (straggler windows from a
        # cluster-event trace); empty means no rank is degraded
        self.rank_slowdowns: dict[int, float] = {}
        # (key, speeds) memo for _effective_speeds; content-keyed, so
        # placement swaps and slowdown updates need no invalidation
        self._speeds_cache: tuple[tuple, np.ndarray | None] | None = None
        if rank_slowdowns:
            self.set_rank_slowdowns(rank_slowdowns)

    # -- per-stage aggregate times ------------------------------------------
    def stage_times(
        self, plan: PipelinePlan, states: list[LayerState]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(fwd, bwd_or_B, W, boundary activation bytes) per stage.

        The one-lane case of :meth:`ModelCost.stage_times`, divided by
        this engine's effective speeds.
        """
        fwd, bwd, wgt, act_bytes = self.cost.stage_times(
            state_matrix([states]), [plan.boundaries], self.schedule.name == "zb"
        )
        fwd, bwd, wgt, act_bytes = fwd[0], bwd[0], wgt[0], act_bytes[0]
        speeds = self._effective_speeds(plan.num_stages)
        if speeds is not None:
            fwd, bwd, wgt = fwd / speeds, bwd / speeds, wgt / speeds
        return fwd, bwd, wgt, act_bytes

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
        """Explicit override first, else speeds of the placed devices,
        both degraded by any active straggler windows.

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
            id(self.worker_speeds),
        )
        cached = self._speeds_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        speeds = self._effective_speeds_uncached(num_stages)
        self._speeds_cache = (key, speeds)
        return speeds

    def _effective_speeds_uncached(self, num_stages: int) -> np.ndarray | None:
        speeds: np.ndarray | None = None
        if self.worker_speeds is not None:
            if self.worker_speeds.shape[0] < num_stages:
                raise ValueError(
                    f"{self.worker_speeds.shape[0]} worker speeds for "
                    f"{num_stages} stages"
                )
            speeds = self.worker_speeds[:num_stages]
        elif self.placement is not None:
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

    @property
    def can_batch(self) -> bool:
        """Whether this engine's runs may take the vectorized batched
        path: compiled execution with no timeline recording.  Active
        rank slowdowns do *not* disqualify an engine — the map is fixed
        for the duration of one call, so per-lane tables price it
        exactly like the scalar path."""
        return self.use_compiled and not self.record_timeline

    # -- simulation ---------------------------------------------------------
    def run_iteration(
        self, plan: PipelinePlan, states: list[LayerState]
    ) -> IterationResult:
        if self.record_timeline or not self.use_compiled:
            return self.run_iteration_reference(plan, states)
        return self._run_iteration_compiled(plan, states)

    def _finalize_batched_lane(
        self,
        plan: PipelinePlan,
        states: list[LayerState],
        worker_time_row: np.ndarray,
        busy_row: np.ndarray,
    ) -> IterationResult:
        """DP all-reduce + makespan for one lane (same ops as scalar)."""
        worker_time = worker_time_row.tolist()
        comm_extra = 0.0
        if self.dp_ways > 1 and self.comm is not None:
            grad_bytes = self._dp_grad_bytes(plan, states)
            for s in range(plan.num_stages):
                t = self.comm.allreduce_time(self._dp_group(s), grad_bytes[s])
                worker_time[s] += t
                comm_extra = max(comm_extra, t)
        makespan = float(max(worker_time))
        return IterationResult(makespan, np.array(busy_row), comm_extra, [])

    def _run_iteration_compiled(
        self, plan: PipelinePlan, states: list[LayerState]
    ) -> IterationResult:
        """One topological pass over the process-wide compiled op tables."""
        self._check_placement(plan)
        fwd, bwd, wgt, act_bytes = self.stage_times(plan, states)
        S = plan.num_stages
        cs = compile_schedule(self.schedule.name, S, self.num_micro)
        fwd_xfer = [self._edge_time(s, s + 1, act_bytes[s]) for s in range(S - 1)]
        bwd_xfer = [self._edge_time(s + 1, s, act_bytes[s]) for s in range(S - 1)]
        worker_time, busy, _ = execute_compiled(cs, fwd, bwd, wgt, fwd_xfer, bwd_xfer)

        comm_extra = 0.0
        if self.dp_ways > 1 and self.comm is not None:
            grad_bytes = self._dp_grad_bytes(plan, states)
            for s in range(S):
                t = self.comm.allreduce_time(self._dp_group(s), grad_bytes[s])
                worker_time[s] += t
                comm_extra = max(comm_extra, t)

        makespan = float(max(worker_time))
        return IterationResult(makespan, np.asarray(busy), comm_extra, [])

    def run_iteration_reference(
        self, plan: PipelinePlan, states: list[LayerState]
    ) -> IterationResult:
        """The original dict-keyed ready-loop (differential oracle)."""
        self._check_placement(plan)
        fwd, bwd, wgt, act_bytes = self.stage_times(plan, states)
        S, M = plan.num_stages, self.num_micro
        ops: list[list[Op]] = [
            self.schedule.stage_ops(s, S, M) for s in range(S)
        ]

        finish: dict[tuple[int, OpKind, int], float] = {}
        worker_time = np.zeros(S)
        busy = np.zeros(S)
        # idle gaps per worker for zb W-filling: list of (start, end)
        gaps: list[list[list[float]]] = [[] for _ in range(S)]
        timeline: list[tuple[int, str, int, float, float]] = []
        idx = [0] * S
        pending_w: list[list[int]] = [[] for _ in range(S)]  # micro ids awaiting W

        # per-edge transfer costs, hoisted out of the scheduling loop
        fwd_xfer = [self._edge_time(s, s + 1, act_bytes[s]) for s in range(S - 1)]
        bwd_xfer = [self._edge_time(s + 1, s, act_bytes[s]) for s in range(S - 1)]

        def dep_ready(s: int, op: Op) -> float | None:
            """Earliest time the cross-worker dependency is satisfied,
            or None if not yet computable."""
            if op.kind is OpKind.F:
                if s == 0:
                    return 0.0
                key = (s - 1, OpKind.F, op.micro)
                if key not in finish:
                    return None
                return finish[key] + fwd_xfer[s - 1]
            if op.kind is OpKind.B:
                if s == S - 1:
                    key = (s, OpKind.F, op.micro)
                    return finish.get(key)
                key = (s + 1, OpKind.B, op.micro)
                if key not in finish:
                    return None
                return finish[key] + bwd_xfer[s]
            # W: own B must be done
            return finish.get((s, OpKind.B, op.micro))

        def dur_of(s: int, kind: OpKind) -> float:
            if kind is OpKind.F:
                return fwd[s]
            if kind is OpKind.B:
                return bwd[s]
            return wgt[s]

        total_ops = sum(len(o) for o in ops)
        scheduled = 0
        # W ops are handled by gap-filling, not the ready loop, under zb
        zb = self.schedule.name == "zb"
        if zb:
            for s in range(S):
                ops[s] = [op for op in ops[s] if op.kind is not OpKind.W]
            total_ops = sum(len(o) for o in ops) + S * M  # W counted later

        progress = True
        while progress:
            progress = False
            for s in range(S):
                while idx[s] < len(ops[s]):
                    op = ops[s][idx[s]]
                    ready = dep_ready(s, op)
                    if ready is None:
                        break
                    start = max(worker_time[s], ready)
                    if start > worker_time[s]:
                        gaps[s].append([worker_time[s], start])
                    dur = dur_of(s, op.kind)
                    end = start + dur
                    finish[(s, op.kind, op.micro)] = end
                    worker_time[s] = end
                    busy[s] += dur
                    if zb and op.kind is OpKind.B:
                        pending_w[s].append(op.micro)
                    if self.record_timeline:
                        timeline.append((s, op.kind.value, op.micro, start, end))
                    idx[s] += 1
                    scheduled += 1
                    progress = True

        if any(idx[s] < len(ops[s]) for s in range(S)):
            raise RuntimeError("pipeline schedule deadlocked (bug)")

        if zb:
            self._fill_weight_grads(
                S, wgt, finish, gaps, worker_time, busy, pending_w, timeline
            )

        # Data-parallel gradient all-reduce at iteration end.
        comm_extra = 0.0
        if self.dp_ways > 1 and self.comm is not None:
            grad_bytes = self._dp_grad_bytes(plan, states)
            for s in range(S):
                t = self.comm.allreduce_time(self._dp_group(s), grad_bytes[s])
                worker_time[s] += t
                comm_extra = max(comm_extra, t)

        makespan = float(worker_time.max())
        return IterationResult(makespan, busy, comm_extra, timeline)

    def _fill_weight_grads(
        self, S, wgt, finish, gaps, worker_time, busy, pending_w, timeline
    ) -> None:
        """Greedy ZB gap-filling: W(m) may run any time after B(m)."""
        M = self.num_micro
        for s in range(S):
            per_w = wgt[s]
            busy[s] += per_w * len(pending_w[s])
            if per_w <= 0:
                continue
            remaining = []
            for m in pending_w[s]:
                avail = finish[(s, OpKind.B, m)]
                remaining.append([avail, per_w, m])
            remaining.sort()
            for gap in gaps[s]:
                g0, g1 = gap
                for item in remaining:
                    avail, left, m = item
                    if left <= 0 or avail >= g1:
                        continue
                    start = max(g0, avail)
                    use = min(left, g1 - start)
                    if use <= 0:
                        continue
                    if self.record_timeline:
                        timeline.append((s, "W", m, start, start + use))
                    item[1] -= use
                    g0 = start + use
                    if g0 >= g1:
                        break
            leftover = sum(item[1] for item in remaining)
            if leftover > 0:
                if self.record_timeline:
                    timeline.append((s, "W", -1, worker_time[s], worker_time[s] + leftover))
                worker_time[s] += leftover

    def _dp_grad_bytes(self, plan: PipelinePlan, states) -> np.ndarray:
        """Per-stage gradient bytes exchanged across the DP group
        (frozen/pruned parameters are excluded, as in the paper)."""
        out = np.zeros(plan.num_stages)
        for s in range(plan.num_stages):
            for li in plan.stage_layers(s):
                out[s] += self.cost.grad_bytes(self.cost.specs[li], states[li])
        return out

    # -- convenience ---------------------------------------------------------
    def throughput_tokens_per_s(
        self,
        plan: PipelinePlan,
        states: list[LayerState],
        tokens_per_micro: int,
    ) -> float:
        res = self.run_iteration(plan, states)
        total_tokens = tokens_per_micro * self.num_micro * self.dp_ways
        return total_tokens / res.makespan if res.makespan > 0 else 0.0

"""The reference ready-loop: the oracle the pipeline executors are held to.

:func:`run_iteration` simulates one iteration the slow, obvious way — a
dict keyed by ``(stage, OpKind, micro)`` resolves every cross-stage
dependency, each worker runs its schedule's ops as soon as they are
ready, and under ``zb`` a greedy filler re-scans every pending W item
for every idle gap.  The compiled and batched executors in
``repro.pipeline`` must reproduce its makespan, busy times and
timeline bit for bit: the same IEEE-754 operations in the same order.
The engine benchmarks time it as the denominator of their speedups.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.plan import PipelinePlan
from repro.pipeline.schedules import Op, OpKind

import cost_oracle


def engine_stage_times(
    engine: PipelineEngine, plan: PipelinePlan, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(fwd, bwd_or_B, W, boundary activation bytes)`` per stage: the
    one-lane case of ``ModelCost.stage_times``, divided by the engine's
    effective speeds.  Array arithmetic, not the per-layer loop of
    ``cost_oracle.stage_times``: the engine benchmarks time this oracle
    as their denominator, and a slower table would inflate their
    speedups."""
    fwd, bwd, wgt, act_bytes = engine.cost.stage_times(
        states[None], [plan.boundaries], engine.schedule.name == "zb"
    )
    fwd, bwd, wgt, act_bytes = fwd[0], bwd[0], wgt[0], act_bytes[0]
    speeds = engine._effective_speeds(plan.num_stages)
    if speeds is not None:
        fwd, bwd, wgt = fwd / speeds, bwd / speeds, wgt / speeds
    return fwd, bwd, wgt, act_bytes


def run_iteration(
    engine: PipelineEngine,
    plan: PipelinePlan,
    states: np.ndarray,
    stage_times: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    timeline: bool = False,
) -> IterationResult:
    """One iteration of ``engine`` on ``plan``/``states``.

    ``stage_times`` replaces the engine's ``(fwd, bwd, wgt, act_bytes)``
    tables (by default :func:`engine_stage_times`); ``timeline`` records
    every op as ``(stage, kind, micro, start, end)``.
    """
    engine._check_placement(plan)
    fwd, bwd, wgt, act_bytes = (
        stage_times if stage_times is not None else engine_stage_times(engine, plan, states)
    )
    S, M = plan.num_stages, engine.num_micro
    ops: list[list[Op]] = [engine.schedule.stage_ops(s, S, M) for s in range(S)]

    finish: dict[tuple[int, OpKind, int], float] = {}
    worker_time = np.zeros(S)
    busy = np.zeros(S)
    # idle gaps per worker for zb W-filling: list of (start, end)
    gaps: list[list[list[float]]] = [[] for _ in range(S)]
    ops_log: list[tuple[int, str, int, float, float]] = []
    idx = [0] * S
    pending_w: list[list[int]] = [[] for _ in range(S)]  # micro ids awaiting W

    # per-edge transfer costs, hoisted out of the scheduling loop
    fwd_xfer = [engine._edge_time(s, s + 1, act_bytes[s]) for s in range(S - 1)]
    bwd_xfer = [engine._edge_time(s + 1, s, act_bytes[s]) for s in range(S - 1)]

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

    # W ops are handled by gap-filling, not the ready loop, under zb
    zb = engine.schedule.name == "zb"
    if zb:
        for s in range(S):
            ops[s] = [op for op in ops[s] if op.kind is not OpKind.W]

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
                if timeline:
                    ops_log.append((s, op.kind.value, op.micro, start, end))
                idx[s] += 1
                progress = True

    if any(idx[s] < len(ops[s]) for s in range(S)):
        raise RuntimeError("pipeline schedule deadlocked (bug)")

    if zb:
        _fill_weight_grads(S, wgt, finish, gaps, worker_time, busy, pending_w, ops_log, timeline)

    # Data-parallel gradient all-reduce at iteration end.
    comm_extra = 0.0
    if engine.dp_ways > 1 and engine.comm is not None:
        grad_bytes = cost_oracle.dp_grad_bytes(engine.cost, plan, states)
        for s in range(S):
            t = engine.comm.allreduce_time(engine._dp_group(s), grad_bytes[s])
            worker_time[s] += t
            comm_extra = max(comm_extra, t)

    makespan = float(worker_time.max())
    return IterationResult(makespan, busy, comm_extra, ops_log)


def _fill_weight_grads(S, wgt, finish, gaps, worker_time, busy, pending_w, ops_log, timeline):
    """Greedy ZB gap-filling: W(m) may run any time after B(m)."""
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
                if timeline:
                    ops_log.append((s, "W", m, start, start + use))
                item[1] -= use
                g0 = start + use
                if g0 >= g1:
                    break
        leftover = sum(item[1] for item in remaining)
        if leftover > 0:
            if timeline:
                ops_log.append((s, "W", -1, worker_time[s], worker_time[s] + leftover))
            worker_time[s] += leftover

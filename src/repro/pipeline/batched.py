"""The one pricing path: :func:`simulate_many` and the vectorized executor.

Every simulated iteration is priced by :func:`simulate_many`, the only
code that builds stage and edge tables and picks an executor;
``PipelineEngine.run_iteration`` is its one-lane case.  A chunk of one
lane, and every lane of a timeline-recording engine, runs the scalar
cascade of :mod:`repro.pipeline.compiled` (the faster one for a single
lane, and the only one that records timelines).  Any other chunk runs
:func:`execute_compiled_batched`, which stacks the N lanes' tables
into ``(N, slots)`` float64 matrices and replays the topological op
order **once**, with every step vectorized across the lane axis:

- ops are grouped into *levels* (antichains of the dependency DAG with
  at most one op per stage), compiled once per ``(schedule, S, M)``
  and cached process-wide alongside the op tables;
- one level executes as a handful of NumPy column operations —
  ``finish[:, ops] = maximum(finish[:, pred] + xfer, worker_time) + dur``
  — instead of N Python iterations per op;
- the ZB weight-grad filler runs the scalar executor's
  :func:`~repro.pipeline.compiled.merge_lane` per scenario, over gap
  lists extracted vectorized from the cascade (the merge is
  data-dependent control flow; its inputs and arithmetic are
  identical, so its outputs are too).

Bit-identity: per scenario column, the same IEEE-754 operations run in
the same order as the scalar compiled executor (elementwise float64
``maximum``/``+`` are the same operations CPython performs on floats),
so a scenario's ``IterationResult`` does not depend on which executor
ran it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.pipeline.compiled import (
    CompiledSchedule,
    compile_schedule,
    execute_compiled,
    merge_lane,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.pipeline.engine import IterationResult, PipelineEngine
    from repro.pipeline.plan import PipelinePlan

#: lanes x ops per batched executor call: bounds each ``(N, num_ops)``
#: float64 work matrix at 1 MiB whatever the schedule's size (256
#: lanes at the default 8 stages x 32 micro-batches, 64 at 16 x 64),
#: while keeping per-level NumPy calls well amortised.
MAX_CELLS = 2**17


@dataclass
class BatchStats:
    """Process-wide lane accounting for :func:`simulate_many`.

    Tests read these counters to assert which executor ran the lanes
    of the call under test.  ``reset()`` before it, then inspect.
    """

    calls: int = 0
    batched_lanes: int = 0  # lanes the vectorized executor ran
    scalar_lanes: int = 0  # lanes the scalar executor ran

    def reset(self) -> None:
        self.calls = 0
        self.batched_lanes = 0
        self.scalar_lanes = 0


#: module-level counters, cumulative until :meth:`BatchStats.reset`
stats = BatchStats()


@dataclass(frozen=True)
class CompiledLevels:
    """Level decomposition of a :class:`CompiledSchedule`, cached per key.

    Ops are permuted into *level-major* order: ``perm[j]`` is the
    original (topological) op id of level-major op ``j``.  Each level is
    a contiguous ``[lo, hi)`` range of ops with pairwise-distinct stages
    and all predecessors in earlier levels, so one level executes as a
    single set of NumPy column operations.  Predecessor ids are remapped
    to level-major; ``-1`` (no predecessor) points at a dummy finish
    column holding 0.0, which — with the op table's zero-transfer edge —
    reproduces the scalar path's ``ready = 0.0`` exactly.
    """

    cs: CompiledSchedule
    #: per level: (lo, hi, level-major predecessor ids, stage ids)
    levels: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    dur_slot: np.ndarray  # (num_ops,) level-major duration-table slots
    edge: np.ndarray  # (num_ops,) level-major transfer-table slots
    #: per stage, level-major ids of its ops in execution order
    stage_ops: tuple[np.ndarray, ...]
    #: per stage, level-major ids of its B ops in execution order
    b_ids: tuple[np.ndarray, ...]

    @property
    def num_ops(self) -> int:
        return self.cs.num_ops


@lru_cache(maxsize=256)
def compile_levels(name: str, num_stages: int, num_micro: int) -> CompiledLevels:
    """Level-decompose a compiled schedule (process-wide cached)."""
    cs = compile_schedule(name, num_stages, num_micro)
    S, num_ops = cs.num_stages, cs.num_ops
    depth = np.empty(num_ops, dtype=np.intp)
    stage_depth = [-1] * S
    for i, (s, p) in enumerate(zip(cs.stage, cs.pred)):
        d = stage_depth[s] + 1
        if p >= 0:
            pd = depth[p] + 1
            if pd > d:
                d = pd
        depth[i] = d
        stage_depth[s] = d

    perm = np.argsort(depth, kind="stable")  # level-major, topo within level
    inv = np.empty(num_ops, dtype=np.intp)
    inv[perm] = np.arange(num_ops, dtype=np.intp)

    stage_arr = np.asarray(cs.stage, dtype=np.intp)[perm]
    dur_slot = np.asarray(cs.dur_slot, dtype=np.intp)[perm]
    edge = np.asarray(cs.edge, dtype=np.intp)[perm]
    pred_perm = np.asarray(cs.pred, dtype=np.intp)[perm]
    # -1 -> dummy finish column num_ops (0.0); its edge slot is already
    # the zero-transfer slot, so ready = 0.0 + 0.0 = 0.0 exactly
    pred = np.where(pred_perm >= 0, inv[np.maximum(pred_perm, 0)], num_ops)

    sorted_depth = depth[perm]
    bounds = np.searchsorted(sorted_depth, np.arange(sorted_depth[-1] + 2))
    levels = tuple(
        (int(lo), int(hi), pred[lo:hi].copy(), stage_arr[lo:hi].copy())
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    )

    stage_ops = tuple(np.nonzero(stage_arr == s)[0] for s in range(S))
    b_ids = tuple(np.asarray(inv[list(cs.b_ops[s])], dtype=np.intp) for s in range(S))
    return CompiledLevels(
        cs=cs,
        levels=levels,
        dur_slot=dur_slot,
        edge=edge,
        stage_ops=stage_ops,
        b_ids=b_ids,
    )


def execute_compiled_batched(
    lv: CompiledLevels,
    fwd: np.ndarray,
    bwd: np.ndarray,
    wgt: np.ndarray,
    fwd_xfer: np.ndarray,
    bwd_xfer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay the compiled cascade for N scenarios at once.

    ``fwd``/``bwd``/``wgt`` are ``(N, S)`` per-run duration tables,
    ``fwd_xfer``/``bwd_xfer`` are ``(N, S-1)`` per-run transfer tables.
    Returns ``(worker_time, busy)`` as ``(N, S)`` float64 arrays whose
    rows are bit-identical to the scalar executor's outputs for the
    same row of inputs.
    """
    cs = lv.cs
    n, S = fwd.shape[0], cs.num_stages
    num_ops = lv.num_ops
    dur = np.concatenate([fwd, bwd], axis=1)
    zero = np.zeros((n, 1))
    xfer = np.concatenate([fwd_xfer, bwd_xfer, zero], axis=1)
    D = dur[:, lv.dur_slot]  # (n, num_ops) level-major per-op durations
    # x + 0.0 == x for the non-negative finish times here, so a run
    # with no transfer costs (comm=None) skips the per-level edge add
    has_xfer = bool(xfer.any())
    if has_xfer:
        X = xfer[:, lv.edge]  # (n, num_ops) level-major per-op edge costs
    finish = np.empty((n, num_ops + 1))
    finish[:, num_ops] = 0.0  # dummy predecessor column
    worker_time = np.zeros((n, S))
    if cs.zb:
        starts = np.empty((n, num_ops))
        wts = np.empty((n, num_ops))
    for lo, hi, pred, stages in lv.levels:
        ready = finish[:, pred]
        if has_xfer:
            ready += X[:, lo:hi]
        wt = worker_time[:, stages]
        start = np.maximum(ready, wt)
        end = start + D[:, lo:hi]
        finish[:, lo:hi] = end
        worker_time[:, stages] = end
        if cs.zb:
            starts[:, lo:hi] = start
            wts[:, lo:hi] = wt
    # busy[s] accumulates durations in the stage's execution order;
    # cumsum performs the identical sequential float64 adds (NumPy's
    # reduce would pairwise-sum, which rounds differently)
    busy = np.zeros((n, S))
    for s in range(S):
        busy[:, s] = np.cumsum(D[:, lv.stage_ops[s]], axis=1)[:, -1]
    if cs.zb:
        _fill_weight_grads_batched(lv, wgt, finish, starts, wts, worker_time, busy)
    return worker_time, busy


def _fill_weight_grads_batched(
    lv: CompiledLevels,
    wgt: np.ndarray,
    finish: np.ndarray,
    starts: np.ndarray,
    wts: np.ndarray,
    worker_time: np.ndarray,
    busy: np.ndarray,
) -> None:
    """Per-scenario :func:`~repro.pipeline.compiled.merge_lane`.

    The merge itself is data-dependent control flow (which W item lands
    in which gap differs per scenario), so it stays scalar per lane —
    but everything feeding it is vectorized: gap intervals come from the
    cascade's ``(start > worker_time)`` columns via one ``nonzero`` per
    stage, and item availabilities are one gather of the B-op finish
    columns, in the execution order the merge expects.
    """
    n, S = wgt.shape[0], lv.cs.num_stages
    for s in range(S):
        b = lv.b_ids[s]
        n_items = len(b)
        per_w_col = wgt[:, s]
        busy[:, s] += per_w_col * n_items
        if n_items == 0 or not np.any(per_w_col > 0):
            continue
        # gap intervals per lane, extracted vectorized from the cascade
        # ((worker_time, start) pairs where start > worker_time — the
        # scalar executor's gap-recording condition)
        ops = lv.stage_ops[s]
        g0m = wts[:, ops]
        g1m = starts[:, ops]
        is_gap = g1m > g0m
        g0v = g0m[is_gap].tolist()  # row-major: per-lane chronological
        g1v = g1m[is_gap].tolist()
        offs_l = [0, *np.cumsum(is_gap.sum(axis=1)).tolist()]
        avail_rows = finish[:, b].tolist()
        per_w_l = per_w_col.tolist()
        partials = [0.0] * n
        tails = [0] * n
        for lane in range(n):
            per_w = per_w_l[lane]
            if per_w <= 0:
                continue
            lo, hi = offs_l[lane], offs_l[lane + 1]
            partials[lane], tails[lane] = merge_lane(
                g0v[lo:hi], g1v[lo:hi], avail_rows[lane], per_w
            )
        # Finish each lane's leftover sum vectorized: the scalar path
        # adds the untouched tail items — ``tails[lane]`` copies of
        # per_w — one by one onto the partial sum.  A row-wise
        # ``add.accumulate`` performs exactly those sequential float64
        # adds; rows are padded with 0.0 (x + 0.0 == x for the
        # non-negative work amounts here), and lanes with per_w <= 0
        # contribute 0.0 like the scalar path's early ``continue``.
        max_tail = max(tails)
        acc = np.zeros((n, max_tail + 1))
        acc[:, 0] = partials
        if max_tail:
            mask = np.arange(1, max_tail + 1) <= np.asarray(tails)[:, None]
            acc[:, 1:] = np.where(mask, per_w_col[:, None], 0.0)
        leftovers = np.add.accumulate(acc, axis=1)[:, -1]
        # the scalar path adds leftover only when > 0; x + 0.0 == x
        # exactly for the non-negative times here, so add unconditionally
        worker_time[:, s] += leftovers


def simulate_many(
    requests: Sequence[tuple["PipelineEngine", "PipelinePlan", np.ndarray]],
) -> list["IterationResult"]:
    """Simulate many (engine, plan, states) scenarios, batching by key.

    Scenarios are binned by ``(schedule, S, M, record_timeline)`` and
    each bin is cut into chunks of at most :data:`MAX_CELLS` lanes x
    ops.  Every lane's tables are built alike; a chunk of one lane and
    every lane of a timeline bin then run the scalar executor, and any
    other chunk replays the op tables once with the scenario axis
    vectorized.  Engines with active rank slowdowns (straggler windows)
    batch like any other: the map is fixed for the duration of this
    call.  Results come back in request order.
    """
    stats.calls += 1
    results: list["IterationResult" | None] = [None] * len(requests)
    groups: dict[tuple[str, int, int, bool], list[int]] = {}
    for i, (eng, plan, _) in enumerate(requests):
        eng._check_placement(plan)
        key = (eng.schedule.name, plan.num_stages, eng.num_micro, eng.record_timeline)
        groups.setdefault(key, []).append(i)

    for (name, S, M, timeline), idxs in groups.items():
        cs = compile_schedule(name, S, M)
        split = cs.zb  # the compiled key fixes the schedule, so zb is per bin
        per = max(1, MAX_CELLS // cs.num_ops)
        for chunk_at in range(0, len(idxs), per):
            chunk = idxs[chunk_at : chunk_at + per]
            n = len(chunk)
            fwd = np.empty((n, S))
            bwd = np.empty((n, S))
            wgt = np.empty((n, S))
            act = np.empty((n, S))
            speeds = np.ones((n, S))
            # unscaled stage tables depend only on the cost model's
            # content, the plan and the states: one layer-times call
            # prices every lane of one content, across engines and
            # plans.  Each lane then divides by its own engine's speeds
            # (x / 1.0 == x for unscaled lanes).
            by_content: dict[bytes, list[int]] = {}
            for lane, i in enumerate(chunk):
                eng, plan, _ = requests[i]
                by_content.setdefault(eng.cost.content_key, []).append(lane)
                lane_speeds = eng._effective_speeds(S)
                if lane_speeds is not None:
                    speeds[lane] = lane_speeds
            for lanes in by_content.values():
                reqs = [requests[chunk[lane]] for lane in lanes]
                stack = [states for _, _, states in reqs]
                f, b, w, a = reqs[0][0].cost.stage_times(
                    # one lane's view skips np.stack's fixed cost
                    np.stack(stack) if len(stack) > 1 else stack[0][None],
                    [plan.boundaries for _, plan, _ in reqs],
                    split,
                )
                fwd[lanes], bwd[lanes], wgt[lanes], act[lanes] = f, b, w, a
            fwd /= speeds
            bwd /= speeds
            wgt /= speeds
            # edge costs depend only on (comm, placement grid, slowdown
            # map, boundary activation bytes); ensemble lanes mostly
            # share all four, so memo the (S-1)-vectors per content key
            fwd_xfer = np.empty((n, S - 1))
            bwd_xfer = np.empty((n, S - 1))
            edge_memo: dict[tuple, tuple[list, list]] = {}
            for lane, i in enumerate(chunk):
                eng = requests[i][0]
                a = act[lane]
                ek = (
                    id(eng.comm),
                    eng.placement.grid if eng.placement is not None else None,
                    tuple(sorted(eng.rank_slowdowns.items())),
                    a.tobytes(),
                )
                edges = edge_memo.get(ek)
                if edges is None:
                    edges = (
                        [eng._edge_time(s, s + 1, a[s]) for s in range(S - 1)],
                        [eng._edge_time(s + 1, s, a[s]) for s in range(S - 1)],
                    )
                    edge_memo[ek] = edges
                fwd_xfer[lane], bwd_xfer[lane] = edges
            if timeline or n == 1:
                stats.scalar_lanes += n
                for lane, i in enumerate(chunk):
                    eng, plan, states = requests[i]
                    lane_time, lane_busy, ops = execute_compiled(
                        cs,
                        fwd[lane],
                        bwd[lane],
                        wgt[lane],
                        fwd_xfer[lane].tolist(),
                        bwd_xfer[lane].tolist(),
                        timeline,
                    )
                    results[i] = eng._finish(plan, states, lane_time, lane_busy, ops)
                continue
            stats.batched_lanes += n
            worker_time, busy = execute_compiled_batched(
                compile_levels(name, S, M), fwd, bwd, wgt, fwd_xfer, bwd_xfer
            )
            for lane, i in enumerate(chunk):
                eng, plan, states = requests[i]
                results[i] = eng._finish(
                    plan, states, worker_time[lane].tolist(), busy[lane]
                )
    return results  # type: ignore[return-value]

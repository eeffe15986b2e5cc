"""Compiled pipeline-engine core: op tables and the scalar executor.

A schedule's dependency *structure* depends only on
``(schedule, num_stages, num_micro)``.  This module compiles that key
into flat integer op tables, cached process-wide:

- ``stage[i]``     worker that runs op ``i``;
- ``dur_slot[i]``  index into the per-run duration table
  ``[fwd(0..S-1) | bwd(0..S-1)]``;
- ``pred[i]``      dense op id of the cross-stage predecessor (-1 for
  F at stage 0, which is ready at t=0);
- ``edge[i]``      index into the per-run transfer table
  ``[fwd_xfer | bwd_xfer | 0.0]`` added to the predecessor's finish;
- ``micro[i]``     micro-batch of op ``i`` (timelines only).

Ops are stored in a topological execution order (each stage's ops stay
in schedule order), so one pass over flat tuples replays the event
cascade with no dict lookups, tuple keys or enum hashing.
:func:`execute_compiled` is that pass for one lane, and
:func:`repro.pipeline.batched.simulate_many`, which builds its tables,
is its only caller in the package.  The order is
the wavefront of a ready-loop that schedules every op as soon as its
dependency finished; the test suite keeps that loop as the oracle and
holds this executor to it bit for bit (the same IEEE-754 operations
in the same order).

Under ``zb``, weight-gradient (W) work has no dependents, so it is not
tabled: :func:`merge_lane` pours each stage's W items into the idle
gaps the cascade left, greedily, in (availability, micro) order.  Both
this scalar executor and the batched one in
:mod:`repro.pipeline.batched` call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.pipeline.schedules import OpKind, Schedule

#: one timeline entry: (stage, "F" | "B" | "W", micro, start, end)
TimelineOp = tuple[int, str, int, float, float]


@dataclass(frozen=True)
class CompiledSchedule:
    """Flat op tables for one ``(schedule, S, M)`` in topological order.

    Tables are plain Python tuples, not numpy arrays: the executor is a
    scalar event cascade, and CPython list/tuple indexing is several
    times faster than numpy scalar indexing.
    """

    name: str
    num_stages: int
    num_micro: int
    zb: bool
    stage: tuple[int, ...]
    dur_slot: tuple[int, ...]
    pred: tuple[int, ...]
    edge: tuple[int, ...]
    micro: tuple[int, ...]
    #: per stage, op ids of its B ops in execution order (drives ZB
    #: gap-filling; empty tuples for non-zb schedules)
    b_ops: tuple[tuple[int, ...], ...]

    @property
    def num_ops(self) -> int:
        return len(self.stage)


@lru_cache(maxsize=256)
def compile_schedule(name: str, num_stages: int, num_micro: int) -> CompiledSchedule:
    """One-time compilation of a schedule's dependency structure.

    Process-wide cached: every engine/sweep process compiles each
    ``(schedule, S, M)`` triple exactly once.
    """
    S, M = num_stages, num_micro
    sched = Schedule(name)
    zb = name == "zb"
    ops = [sched.stage_ops(s, S, M) for s in range(S)]
    if zb:
        # W ops are gap-filled, not event-scheduled (they have no
        # dependents)
        ops = [[op for op in stage_ops if op.kind is not OpKind.W] for stage_ops in ops]

    # Wavefront traversal of the dependency DAG (a ready loop with
    # dependency *presence* instead of times) yields a topological
    # order that keeps each stage's ops in schedule order.
    topo_id: dict[tuple[int, OpKind, int], int] = {}
    order: list[tuple[int, OpKind, int]] = []
    idx = [0] * S
    progress = True
    while progress:
        progress = False
        for s in range(S):
            while idx[s] < len(ops[s]):
                op = ops[s][idx[s]]
                if op.kind is OpKind.F:
                    ready = s == 0 or (s - 1, OpKind.F, op.micro) in topo_id
                elif s == S - 1:
                    ready = (s, OpKind.F, op.micro) in topo_id
                else:
                    ready = (s + 1, OpKind.B, op.micro) in topo_id
                if not ready:
                    break
                topo_id[(s, op.kind, op.micro)] = len(order)
                order.append((s, op.kind, op.micro))
                idx[s] += 1
                progress = True
    if any(idx[s] < len(ops[s]) for s in range(S)):
        raise RuntimeError(f"schedule {name!r} deadlocked at compile time (bug)")

    zero_edge = 2 * (S - 1)  # the 0.0 slot of the per-run transfer table
    stage: list[int] = []
    dur_slot: list[int] = []
    pred: list[int] = []
    edge: list[int] = []
    for s, kind, m in order:
        stage.append(s)
        if kind is OpKind.F:
            dur_slot.append(s)
            if s == 0:
                pred.append(-1)
                edge.append(zero_edge)
            else:
                pred.append(topo_id[(s - 1, OpKind.F, m)])
                edge.append(s - 1)
        else:
            dur_slot.append(S + s)
            if s == S - 1:
                pred.append(topo_id[(s, OpKind.F, m)])
                edge.append(zero_edge)
            else:
                pred.append(topo_id[(s + 1, OpKind.B, m)])
                edge.append(S - 1 + s)

    b_ops: tuple[tuple[int, ...], ...] = tuple(() for _ in range(S))
    if zb:
        b_micros = [[op.micro for op in ops[s] if op.kind is OpKind.B] for s in range(S)]
        # Finish times on one stage never decrease in execution order,
        # so ascending micros make execution order the filler's
        # (availability, micro) order for any run's durations.
        if any(ms != sorted(ms) for ms in b_micros):
            raise RuntimeError(
                f"schedule {name!r} emits B ops out of micro order; "
                "the W-filler relies on execution order"
            )
        b_ops = tuple(
            tuple(topo_id[(s, OpKind.B, m)] for m in b_micros[s]) for s in range(S)
        )
    return CompiledSchedule(
        name=name,
        num_stages=S,
        num_micro=M,
        zb=zb,
        stage=tuple(stage),
        dur_slot=tuple(dur_slot),
        pred=tuple(pred),
        edge=tuple(edge),
        micro=tuple(m for _, _, m in order),
        b_ops=b_ops,
    )


def execute_compiled(
    cs: CompiledSchedule,
    fwd,
    bwd,
    wgt,
    fwd_xfer: list[float],
    bwd_xfer: list[float],
    timeline: bool = False,
) -> tuple[list[float], list[float], list[TimelineOp] | None]:
    """Replay the compiled event cascade with this run's costs.

    Returns ``(worker_time, busy, ops)`` with per-stage Python float
    lists.  ``ops`` is None unless ``timeline``: then it lists every op
    as ``(stage, kind, micro, start, end)``, F and B ops in execution
    order followed by each stage's W placements, whose final tail lump
    (W work no gap could hold) uses micro -1.
    """
    S = cs.num_stages
    dur_table = fwd.tolist() + bwd.tolist()
    xfer = fwd_xfer + bwd_xfer + [0.0]
    worker_time = [0.0] * S
    busy = [0.0] * S
    finish: list[float] = []
    append_finish = finish.append
    # idle [worker_time, start) intervals per stage, for the W-filler
    zb = cs.zb
    gap0: list[list[float]] = [[] for _ in range(S)]
    gap1: list[list[float]] = [[] for _ in range(S)]

    for s, slot, p, e in zip(cs.stage, cs.dur_slot, cs.pred, cs.edge):
        ready = 0.0 if p < 0 else finish[p] + xfer[e]
        wt = worker_time[s]
        start = ready if ready > wt else wt
        if zb and start > wt:
            gap0[s].append(wt)
            gap1[s].append(start)
        dur = dur_table[slot]
        end = start + dur
        append_finish(end)
        worker_time[s] = end
        busy[s] += dur

    ops: list[TimelineOp] | None = None
    if timeline:
        # start times, recomputed with the cascade's own operations
        ops = []
        prev = [0.0] * S
        for s, slot, p, e, m, end in zip(
            cs.stage, cs.dur_slot, cs.pred, cs.edge, cs.micro, finish
        ):
            ready = 0.0 if p < 0 else finish[p] + xfer[e]
            wt = prev[s]
            ops.append((s, "F" if slot < S else "B", m, ready if ready > wt else wt, end))
            prev[s] = end

    if zb:
        for s, (per_w, b_ids) in enumerate(zip(wgt.tolist(), cs.b_ops)):
            busy[s] += per_w * len(b_ids)
            if per_w <= 0:
                continue
            fills: list[tuple[int, float, float]] | None = [] if timeline else None
            partial, tail = merge_lane(
                gap0[s], gap1[s], [finish[i] for i in b_ids], per_w, fills
            )
            leftover = partial
            for _ in range(tail):
                leftover += per_w
            if ops is not None and fills is not None:
                ops.extend((s, "W", cs.micro[b_ids[j]], t0, t1) for j, t0, t1 in fills)
            if leftover > 0:
                if ops is not None:
                    ops.append((s, "W", -1, worker_time[s], worker_time[s] + leftover))
                worker_time[s] += leftover
    return worker_time, busy, ops


def merge_lane(
    g0s: list[float],
    g1s: list[float],
    avails: list[float],
    per_w: float,
    fills: list[tuple[int, float, float]] | None = None,
) -> tuple[float, int]:
    """The ZB W-filler for one stage of one run.

    Pours W items — ``per_w`` seconds each, item ``j`` available from
    ``avails[j]`` (its B op's finish) — into the chronological idle
    gaps ``[g0s[i], g1s[i])``, greedily: each gap takes the earliest
    items with work left, each fill computing ``start = max(g0, avail)``,
    ``use = min(left, g1 - start)``, ``g0 = start + use``.  ``avails``
    is in execution order, which :func:`compile_schedule` guarantees is
    the (availability, micro) order.

    Returns ``(partial, tail)``: the sum of the work left on the
    partially drained items, and the count of untouched trailing items,
    each still holding exactly ``per_w``.  The caller adds ``tail``
    copies of ``per_w`` onto ``partial`` one by one, which is the
    sequential leftover sum over all items (drained items hold exactly
    0.0, and adding 0.0 is the identity).  ``fills``, when given,
    receives every placement as ``(item, start, end)``.
    """
    n = len(avails)
    if fills is None:
        # Fast replay: at most one item is ever partially drained (the
        # head at ``ptr``) — an item is left partial only when its gap
        # is exhausted, and the next gap resumes at that same item — so
        # the per-item ``left`` list collapses to one running value.
        # The one exception is the floating-point "sliver": a fill that
        # takes a gap's whole capacity may end short of ``g1``
        # (``start + (g1 - start) < g1``), and the next item then pours
        # into the rest of the same gap.  That case takes the per-item
        # merge below.
        ptr = 0
        lh = per_w
        avail = avails[0]
        sliver = False
        for g0, g1 in zip(g0s, g1s):
            if avail >= g1:
                continue  # no later item fits this gap either
            while True:
                start = g0 if g0 > avail else avail
                cap = g1 - start
                if lh <= cap:
                    ptr += 1
                    if ptr == n:
                        return 0.0, 0  # every item drained
                    g0 = start + lh
                    lh = per_w
                    avail = avails[ptr]
                    if g0 >= g1 or avail >= g1:
                        break
                else:
                    lh = lh - cap
                    sliver = start + cap < g1
                    break
            if sliver:
                break
        if not sliver:
            touched = lh < per_w
            return (lh if touched else 0.0), n - ptr - touched

    left = [per_w] * n
    ptr = 0  # first item with work left; everything before is drained
    touched = 0  # items [0, touched) may have been modified
    for g0, g1 in zip(g0s, g1s):
        if ptr >= n:
            break
        j = ptr
        while j < n:
            lw = left[j]
            if lw <= 0.0:
                j += 1
                continue
            avail = avails[j]
            if avail >= g1:
                break
            start = g0 if g0 > avail else avail
            cap = g1 - start
            use = lw if lw <= cap else cap
            left[j] = lw - use
            if j >= touched:
                touched = j + 1
            if fills is not None:
                fills.append((j, start, start + use))
            g0 = start + use
            if g0 >= g1:
                break
            j += 1
        while ptr < n and left[ptr] <= 0.0:
            ptr += 1
    partial = 0.0
    for j in range(ptr, touched):
        lw = left[j]
        if lw != 0.0:
            partial += lw
    # ptr never passes ``touched``: it only skips drained (modified) items
    return partial, n - touched

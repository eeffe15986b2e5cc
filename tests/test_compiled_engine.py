"""Differential golden tests: compiled engine core vs reference loop.

The compiled executor must be *bit-identical* to the reference
ready-loop in ``engine_oracle`` — same IEEE-754 operations in the same
order, and the same timeline when one is recorded — across every
axis the sweeps exercise: schedules x placements x heterogeneous
clusters x dp_ways, plus post-repack surviving placements and random
dynamism states.  Equality below is exact (``==`` / ``array_equal``),
not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import PLACEMENT_STRATEGIES, make_placement
from repro.cluster.topology import parse_cluster
from repro.model.cost import (
    ATTN_DENSITY,
    FROZEN,
    MOE_MULTIPLIER,
    SPARSITY,
    TOKEN_FRACTION,
    fresh_states,
)
from repro.pipeline.compiled import compile_schedule, execute_compiled, merge_lane
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan
from repro.pipeline.schedules import Op, OpKind, Schedule

import cost_oracle
import engine_oracle

N_LAYERS = 26
SCHEDULES = ("gpipe", "1f1b", "zb")


def assert_identical(fast, ref):
    assert fast.makespan == ref.makespan
    assert np.array_equal(fast.busy, ref.busy)
    assert fast.comm_extra == ref.comm_extra


def run_both(cost, comm, plan, states, **kw):
    engine = PipelineEngine(cost, comm, **kw)
    fast = engine.run_iteration(plan, states)
    ref = engine_oracle.run_iteration(engine, plan, states)
    return fast, ref


def random_states(rng, states):
    for row in states:
        row[SPARSITY] = rng.uniform(0.0, 0.9) if rng.random() < 0.3 else 0.0
        row[FROZEN] = rng.random() < 0.2
        row[ATTN_DENSITY] = rng.uniform(0.1, 1.0)
        row[TOKEN_FRACTION] = rng.uniform(0.3, 1.0)
        row[MOE_MULTIPLIER] = rng.uniform(1.0, 2.0)
    return states


# -- compile cache ----------------------------------------------------------


def test_compile_is_cached_process_wide():
    a = compile_schedule("zb", 4, 8)
    b = compile_schedule("zb", 4, 8)
    assert a is b


@pytest.mark.parametrize("sched", SCHEDULES)
def test_compiled_tables_cover_all_fb_ops(sched):
    S, M = 5, 7
    cs = compile_schedule(sched, S, M)
    # every F and B op appears exactly once; W is gap-filled, not tabled
    assert cs.num_ops == 2 * S * M
    per_stage = [0] * S
    for s in cs.stage:
        per_stage[s] += 1
    assert per_stage == [2 * M] * S
    if sched == "zb":
        assert all([cs.micro[i] for i in b] == list(range(M)) for b in cs.b_ops)
    # predecessors precede their dependents in the topological order
    for i, p in enumerate(cs.pred):
        assert p < i


def test_zb_compile_rejects_b_ops_out_of_micro_order(monkeypatch):
    """The W-filler takes execution order as (availability, micro)
    order, so compiling a zb key checks once that every stage runs its
    B ops in ascending micro order."""
    monkeypatch.setattr(
        Schedule,
        "stage_ops",
        lambda self, s, S, M: Schedule._gpipe(M) + [Op(OpKind.W, i) for i in range(M)],
    )
    with pytest.raises(RuntimeError, match="out of micro order"):
        compile_schedule.__wrapped__("zb", 3, 4)


# -- differential grid ------------------------------------------------------


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("num_micro", [1, 3, 8])
def test_identical_no_comm(sched, num_micro, gpt24_cost, gpt24_states):
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    fast, ref = run_both(
        gpt24_cost, None, plan, gpt24_states, schedule=sched, num_micro=num_micro
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("placement_strategy", [None, *PLACEMENT_STRATEGIES])
@pytest.mark.parametrize("dp_ways", [1, 2])
def test_identical_placement_grid(
    sched, placement_strategy, dp_ways, gpt24_cost, gpt24_states, comm
):
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    placement = (
        make_placement(comm.topology, 4, dp_ways, placement_strategy)
        if placement_strategy
        else None
    )
    fast, ref = run_both(
        gpt24_cost,
        comm,
        plan,
        gpt24_states,
        schedule=sched,
        num_micro=6,
        dp_ways=dp_ways,
        placement=placement,
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("placement_strategy", PLACEMENT_STRATEGIES)
def test_identical_heterogeneous_cluster(sched, placement_strategy, gpt24_cost):
    """Mixed 2x8+2x4 cluster: per-stage speeds differ across workers."""
    topo = parse_cluster("2x8+2x4:a100")
    comm = CommCostModel(topo)
    placement = make_placement(topo, 8, 2, placement_strategy)
    plan = PipelinePlan.uniform(N_LAYERS, 8)
    states = random_states(np.random.default_rng(7), fresh_states(N_LAYERS))
    fast, ref = run_both(
        gpt24_cost,
        comm,
        plan,
        states,
        schedule=sched,
        num_micro=8,
        dp_ways=2,
        placement=placement,
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("sched", SCHEDULES)
def test_identical_post_repack_survivors(sched, gpt24_cost, gpt24_states, comm):
    """Re-packed placements keep the surviving ranks, not rank 0..S-1."""
    placement = make_placement(comm.topology, 8, 1, "packed")
    survivors = placement.after_repack([0, 2, 5, 7])
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    fast, ref = run_both(
        gpt24_cost,
        comm,
        plan,
        gpt24_states,
        schedule=sched,
        num_micro=6,
        placement=survivors,
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("trial", range(12))
def test_identical_random_stress(trial, gpt24_cost, gpt24_states):
    """Random plans, speeds, micro counts and dynamism states."""
    rng = np.random.default_rng(trial)
    S = int(rng.integers(1, 8))
    M = int(rng.integers(1, 17))
    sched = SCHEDULES[trial % 3]
    cuts = np.sort(rng.choice(np.arange(1, N_LAYERS), size=S - 1, replace=False))
    plan = PipelinePlan((0, *map(int, cuts), N_LAYERS), N_LAYERS)
    states = random_states(rng, gpt24_states)
    speeds = rng.uniform(0.5, 2.0, size=S)
    fast, ref = run_both(
        gpt24_cost,
        None,
        plan,
        states,
        schedule=sched,
        num_micro=M,
        rank_slowdowns={s: 1.0 / v for s, v in enumerate(speeds)},
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("dp_ways", [1, 2])
def test_timeline_matches_reference(sched, dp_ways, gpt24_cost, comm):
    """A timeline engine records exactly the oracle's timeline (same
    entries, same order, same floats) and prices the iteration exactly
    like an engine that records none."""
    rng = np.random.default_rng(21 + dp_ways)
    placement = make_placement(comm.topology, 4, dp_ways, "scattered")
    kw = dict(schedule=sched, num_micro=6, dp_ways=dp_ways, placement=placement)
    plan = PipelinePlan((0, 3, 11, 19, N_LAYERS), N_LAYERS)
    states = random_states(rng, fresh_states(N_LAYERS))
    eng = PipelineEngine(gpt24_cost, comm, record_timeline=True, **kw)
    res = eng.run_iteration(plan, states)
    ref = engine_oracle.run_iteration(eng, plan, states, timeline=True)
    assert res.timeline == ref.timeline
    assert_identical(res, ref)
    plain = PipelineEngine(gpt24_cost, comm, **kw).run_iteration(plan, states)
    assert_identical(res, plain)
    assert plain.timeline == []
    kinds = {kind for _, kind, _, _, _ in res.timeline}
    assert kinds == ({"F", "B", "W"} if sched == "zb" else {"F", "B"})


# -- ZB gap-fill property ---------------------------------------------------


def w_segments(cs, fwd, bwd, wgt):
    """``(stage, micro, start, end)`` of every W placement of a run
    without transfer costs (the tail lump has micro -1)."""
    S = cs.num_stages
    _, _, ops = execute_compiled(
        cs, fwd, bwd, wgt, [0.0] * (S - 1), [0.0] * (S - 1), timeline=True
    )
    return [(s, m, start, end) for s, kind, m, start, end in ops if kind == "W"]


@pytest.mark.parametrize("trial", range(10))
def test_zb_gap_fill_never_precedes_backward(trial, gpt24_cost, gpt24_states):
    """Property: no W(m) fill segment starts before B(m) finished."""
    rng = np.random.default_rng(100 + trial)
    S = int(rng.integers(2, 7))
    M = int(rng.integers(2, 13))
    cuts = np.sort(rng.choice(np.arange(1, N_LAYERS), size=S - 1, replace=False))
    plan = PipelinePlan((0, *map(int, cuts), N_LAYERS), N_LAYERS)
    states = random_states(rng, gpt24_states)
    eng = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=M)
    fwd, bwd, wgt, act = cost_oracle.stage_times(eng, plan, states)
    segments = w_segments(compile_schedule("zb", S, M), fwd, bwd, wgt)
    # recover B finish times from a reference timeline run
    b_finish = {
        (s, m): end
        for s, kind, m, _, end in engine_oracle.run_iteration(
            eng, plan, states, timeline=True
        ).timeline
        if kind == "B"
    }
    filled = 0
    for s, m, start, end in segments:
        assert end >= start
        if m >= 0:
            filled += 1
            assert start >= b_finish[(s, m)]
    if any(w > 0 for w in wgt):
        assert segments, "zb run with W work produced no fill segments"


def test_zb_gap_fill_conserves_work(gpt24_cost, gpt24_states):
    """Fill segments + tail lump account for exactly M x wgt per stage."""
    S, M = 4, 8
    plan = PipelinePlan.uniform(N_LAYERS, S)
    eng = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=M)
    fwd, bwd, wgt, _ = cost_oracle.stage_times(eng, plan, gpt24_states)
    segments = w_segments(compile_schedule("zb", S, M), fwd, bwd, wgt)
    per_stage = np.zeros(S)
    for s, _, start, end in segments:
        per_stage[s] += end - start
    np.testing.assert_allclose(per_stage, wgt * M, rtol=1e-9)


# -- the W-merge against the oracle's greedy filler ---------------------------


def oracle_fill(gaps, avails, per_w):
    """(leftover, fills) of the reference filler on one stage whose
    item ``m`` is available from ``avails[m]``."""
    finish = {(0, OpKind.B, m): a for m, a in enumerate(avails)}
    worker_time, busy, log = [0.0], [0.0], []
    engine_oracle._fill_weight_grads(
        1,
        [per_w],
        finish,
        [[list(g) for g in gaps]],
        worker_time,
        busy,
        [list(range(len(avails)))],
        log,
        True,
    )
    return worker_time[0], [(m, t0, t1) for _, _, m, t0, t1 in log if m >= 0]


def merged_fill(gaps, avails, per_w, fills=None):
    partial, tail = merge_lane([g0 for g0, _ in gaps], [g1 for _, g1 in gaps], avails, per_w, fills)
    leftover = partial
    for _ in range(tail):
        leftover += per_w
    return leftover if leftover > 0 else 0.0


def assert_merge_matches_oracle(gaps, avails, per_w):
    want_leftover, want_fills = oracle_fill(gaps, avails, per_w)
    fills: list = []
    assert merged_fill(gaps, avails, per_w, fills) == want_leftover
    assert fills == want_fills
    assert merged_fill(gaps, avails, per_w) == want_leftover


def test_merge_lane_sliver_corner():
    """A fill that takes a gap's whole capacity can end one ulp short
    of the gap (``g0 + (g1 - g0) < g1``); the greedy filler then pours
    the next item into that sliver, and so must the merge."""
    g0, g1 = 3.013769260397329, 7.747412096414174
    assert g0 + (g1 - g0) < g1
    per_w = 1.5 * (g1 - g0)
    assert_merge_matches_oracle([(g0, g1)], [0.0, 0.0], per_w)
    _, fills = oracle_fill([(g0, g1)], [0.0, 0.0], per_w)
    assert [m for m, _, _ in fills] == [0, 1]


@given(
    points=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=0, max_size=16, unique=True
    ),
    avails=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=10),
    per_w=st.floats(1e-3, 20.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_merge_lane_matches_greedy_filler(points, avails, per_w):
    """Random chronological gaps and items in (availability, micro)
    order: the merge's leftover and fills equal the greedy filler's."""
    points = sorted(points)
    gaps = list(zip(points[0::2], points[1::2]))
    assert_merge_matches_oracle(gaps, sorted(avails), per_w)


# -- schedule-table sanity --------------------------------------------------


def test_compiled_matches_schedule_op_sequence():
    """Per stage, the compiled topological order preserves the
    schedule's F/B op sequence (W ops excluded)."""
    S, M = 6, 9
    for name in SCHEDULES:
        cs = compile_schedule(name, S, M)
        sched = Schedule(name)
        per_stage_kinds: dict[int, list[str]] = {s: [] for s in range(S)}
        for i in range(cs.num_ops):
            kind = "F" if cs.dur_slot[i] < S else "B"
            per_stage_kinds[cs.stage[i]].append(kind)
        for s in range(S):
            want = [
                op.kind.value
                for op in sched.stage_ops(s, S, M)
                if op.kind is not OpKind.W
            ]
            assert per_stage_kinds[s] == want

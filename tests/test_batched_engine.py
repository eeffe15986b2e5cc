"""Differential golden tests: batched backend vs compiled vs reference.

The batched multi-run replay must be *bit-identical*, per scenario, to
both the compiled scalar engine and the reference ready-loop — the same
IEEE-754 operations in the same order per lane — across every axis the
sweeps exercise: schedules x placements x heterogeneous clusters x
dp_ways, plus post-repack surviving placements, random dynamism states
and heterogeneous bins (mixed plans in one batch).  Equality below is
exact (``==`` / ``array_equal``), not approximate.
"""

import numpy as np
import pytest

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import PLACEMENT_STRATEGIES, make_placement
from repro.cluster.topology import parse_cluster
from repro.model.cost import fresh_states
from repro.pipeline import batched as batched_mod
from repro.pipeline.batched import compile_levels, simulate_many
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan

N_LAYERS = 26
SCHEDULES = ("gpipe", "1f1b", "zb")


def random_states(rng, n=N_LAYERS, extreme=False):
    states = fresh_states(n)
    for s in states:
        s.sparsity = float(rng.uniform(0.0, 0.99)) if rng.random() < 0.4 else 0.0
        s.frozen = bool(rng.random() < 0.25)
        s.droppable_bwd = bool(rng.random() < 0.15)
        s.attn_density = float(rng.uniform(0.0 if extreme else 0.1, 1.0))
        s.token_fraction = float(rng.uniform(0.0 if extreme else 0.3, 1.0))
        s.moe_multiplier = float(rng.uniform(1.0, 3.0))
    return states


def assert_all_identical(engine, scenarios):
    """Batched results must equal scalar compiled and reference exactly."""
    batched = simulate_many([(engine, plan, states) for plan, states in scenarios])
    for (plan, states), fast in zip(scenarios, batched):
        scalar = engine.run_iteration(plan, states)
        ref = engine.run_iteration_reference(plan, states)
        assert fast.makespan == scalar.makespan == ref.makespan
        assert np.array_equal(fast.busy, scalar.busy)
        assert np.array_equal(fast.busy, ref.busy)
        assert fast.comm_extra == scalar.comm_extra == ref.comm_extra


# -- level compilation ------------------------------------------------------


def test_levels_are_cached_process_wide():
    assert compile_levels("zb", 4, 8) is compile_levels("zb", 4, 8)


@pytest.mark.parametrize("sched", SCHEDULES)
def test_levels_partition_ops_topologically(sched):
    S, M = 5, 7
    lv = compile_levels(sched, S, M)
    seen_stage_per_level = []
    covered = 0
    for lo, hi, pred, stages in lv.levels:
        # one op per stage per level, predecessors strictly earlier
        assert len(set(stages.tolist())) == hi - lo
        assert (pred[pred != lv.num_ops] < lo).all()
        covered += hi - lo
        seen_stage_per_level.append(stages)
    assert covered == lv.num_ops == 2 * S * M
    # per stage, level-major order preserves the schedule's op sequence
    for s in range(S):
        assert len(lv.stage_ops[s]) == 2 * M
    if sched == "zb":
        assert lv.b_sorted
        assert all(len(b) == M for b in lv.b_ids)


# -- differential grids -----------------------------------------------------


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("num_micro", [1, 3, 8])
def test_identical_no_comm(sched, num_micro, gpt24_cost):
    rng = np.random.default_rng(1)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    engine = PipelineEngine(gpt24_cost, None, schedule=sched, num_micro=num_micro)
    scenarios = [(plan, random_states(rng)) for _ in range(7)]
    assert_all_identical(engine, scenarios)


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("placement_strategy", [None, *PLACEMENT_STRATEGIES])
@pytest.mark.parametrize("dp_ways", [1, 2])
def test_identical_placement_grid(
    sched, placement_strategy, dp_ways, gpt24_cost, comm
):
    rng = np.random.default_rng(2)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    placement = (
        make_placement(comm.topology, 4, dp_ways, placement_strategy)
        if placement_strategy
        else None
    )
    engine = PipelineEngine(
        gpt24_cost,
        comm,
        schedule=sched,
        num_micro=6,
        dp_ways=dp_ways,
        placement=placement,
    )
    scenarios = [(plan, random_states(rng)) for _ in range(5)]
    assert_all_identical(engine, scenarios)


@pytest.mark.parametrize("sched", SCHEDULES)
@pytest.mark.parametrize("placement_strategy", PLACEMENT_STRATEGIES)
def test_identical_heterogeneous_cluster(sched, placement_strategy, gpt24_cost):
    """Mixed 2x8+2x4 cluster: per-stage speeds differ across workers."""
    topo = parse_cluster("2x8+2x4:a100")
    comm = CommCostModel(topo)
    placement = make_placement(topo, 8, 2, placement_strategy)
    plan = PipelinePlan.uniform(N_LAYERS, 8)
    rng = np.random.default_rng(3)
    engine = PipelineEngine(
        gpt24_cost,
        comm,
        schedule=sched,
        num_micro=8,
        dp_ways=2,
        placement=placement,
    )
    scenarios = [(plan, random_states(rng)) for _ in range(5)]
    assert_all_identical(engine, scenarios)


@pytest.mark.parametrize("sched", SCHEDULES)
def test_identical_post_repack_survivors(sched, gpt24_cost, comm):
    """Re-packed placements keep the surviving ranks, not rank 0..S-1."""
    placement = make_placement(comm.topology, 8, 1, "packed")
    survivors = placement.after_repack([0, 2, 5, 7])
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    rng = np.random.default_rng(4)
    engine = PipelineEngine(
        gpt24_cost, comm, schedule=sched, num_micro=6, placement=survivors
    )
    scenarios = [(plan, random_states(rng)) for _ in range(5)]
    assert_all_identical(engine, scenarios)


@pytest.mark.parametrize("trial", range(8))
def test_identical_random_stress(trial, gpt24_cost):
    """Random plans, speeds, micro counts and extreme dynamism states."""
    rng = np.random.default_rng(100 + trial)
    S = int(rng.integers(1, 8))
    M = int(rng.integers(1, 17))
    sched = SCHEDULES[trial % 3]
    cuts = np.sort(rng.choice(np.arange(1, N_LAYERS), size=S - 1, replace=False))
    plan = PipelinePlan((0, *map(int, cuts), N_LAYERS), N_LAYERS)
    speeds = rng.uniform(0.5, 2.0, size=S)
    engine = PipelineEngine(
        gpt24_cost, None, schedule=sched, num_micro=M, worker_speeds=speeds
    )
    scenarios = [
        (plan, random_states(rng, extreme=True)) for _ in range(6)
    ]
    assert_all_identical(engine, scenarios)


def test_heterogeneous_bin_splits_and_falls_back(gpt24_cost):
    """Mixed stage counts in one call: each (S, M) bin runs batched,
    and a bin of one falls back to the scalar engine — results stay
    bit-identical and come back in request order."""
    rng = np.random.default_rng(5)
    plans = [PipelinePlan.uniform(N_LAYERS, s) for s in (4, 4, 6, 4, 6, 3)]
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=8)
    scenarios = [(p, random_states(rng)) for p in plans]
    assert_all_identical(engine, scenarios)


def test_reference_engines_fall_back_per_scenario(gpt24_cost):
    """use_compiled=False engines route through the reference loop."""
    rng = np.random.default_rng(6)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    engine = PipelineEngine(
        gpt24_cost, None, schedule="zb", num_micro=6, use_compiled=False
    )
    scenarios = [(plan, random_states(rng)) for _ in range(3)]
    batched = simulate_many([(engine, p, states) for p, states in scenarios])
    for (p, states), res in zip(scenarios, batched):
        ref = engine.run_iteration_reference(p, states)
        assert res.makespan == ref.makespan
        assert np.array_equal(res.busy, ref.busy)


def test_batched_stage_times_match_scalar(gpt24_cost, comm):
    """The vectorized stage-time tables equal the scalar loop bitwise."""
    rng = np.random.default_rng(7)
    plan = PipelinePlan.uniform(N_LAYERS, 5)
    for sched in ("1f1b", "zb"):
        engine = PipelineEngine(gpt24_cost, comm, schedule=sched, num_micro=4)
        states_list = [random_states(rng, extreme=True) for _ in range(9)]
        fwd, bwd, wgt, act = engine.batched_stage_times(plan, states_list)
        for lane, states in enumerate(states_list):
            f, b, w, a = engine.stage_times(plan, states)
            assert np.array_equal(fwd[lane], f)
            assert np.array_equal(bwd[lane], b)
            assert np.array_equal(wgt[lane], w)
            assert np.array_equal(act[lane], a)


def test_batched_layer_times_validate_states(gpt24_cost):
    bad = fresh_states(N_LAYERS)
    bad[3].sparsity = 1.5
    with pytest.raises(ValueError, match="sparsity"):
        gpt24_cost.batched_layer_times([bad], split=True)


def test_single_scenario_matches_scalar(gpt24_cost):
    """A batch of one returns exactly the scalar engine's result."""
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=8)
    states = fresh_states(N_LAYERS)
    (res,) = simulate_many([(engine, plan, states)])
    scalar = engine.run_iteration(plan, states)
    assert res.makespan == scalar.makespan
    assert np.array_equal(res.busy, scalar.busy)


def test_simulate_modes(gpt24_cost):
    """One simulate_many call mixes batched lanes with engines that
    cannot batch: a reference engine (``use_compiled=False``) and a
    timeline engine take the scalar path, are counted as unbatchable,
    and agree bit for bit with the batched lanes."""
    rng = np.random.default_rng(11)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=6)
    ref_engine = PipelineEngine(
        gpt24_cost, None, schedule="zb", num_micro=6, use_compiled=False
    )
    timeline_engine = PipelineEngine(
        gpt24_cost, None, schedule="zb", num_micro=6, record_timeline=True
    )
    assert engine.can_batch
    assert not ref_engine.can_batch and not timeline_engine.can_batch
    states = [random_states(rng) for _ in range(4)]
    requests = [
        (eng, plan, sts)
        for eng in (engine, ref_engine, timeline_engine)
        for sts in states
    ]
    batched_mod.stats.reset()
    results = simulate_many(requests)
    assert batched_mod.stats.batched_lanes == len(states)
    assert batched_mod.stats.scalar_unbatchable == 2 * len(states)
    lanes, ref, timeline = (
        results[at : at + len(states)] for at in range(0, len(results), len(states))
    )
    for a, r, t in zip(lanes, ref, timeline):
        assert a.makespan == r.makespan == t.makespan
        assert np.array_equal(a.busy, r.busy)
        assert np.array_equal(a.busy, t.busy)
        assert a.comm_extra == r.comm_extra == t.comm_extra
        assert t.timeline  # the timeline engine still records its ops


def test_slowed_engines_batch_identically(gpt24_cost, comm):
    """Engines with active rank slowdowns take the batched path (the
    map is fixed per call) and stay bit-identical to the scalar loop."""
    rng = np.random.default_rng(12)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    for sched in SCHEDULES:
        engine = PipelineEngine(
            gpt24_cost,
            comm,
            schedule=sched,
            num_micro=6,
            rank_slowdowns={0: 1.7, 2: 3.0},
        )
        scenarios = [(plan, random_states(rng)) for _ in range(5)]
        batched_mod.stats.reset()
        assert_all_identical(engine, scenarios)
        assert batched_mod.stats.batched_lanes >= len(scenarios)
        assert batched_mod.stats.scalar_unbatchable == 0

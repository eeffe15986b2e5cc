"""Differential golden tests: batched backend vs compiled vs reference.

The batched multi-run replay must be *bit-identical*, per scenario, to
both the compiled scalar engine and the reference ready-loop in
``engine_oracle`` — the same
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
from repro.model.cost import (
    ATTN_DENSITY,
    DROPPABLE_BWD,
    FROZEN,
    MOE_MULTIPLIER,
    SPARSITY,
    STATE_FIELDS,
    TOKEN_FRACTION,
    ModelCost,
    fresh_states,
)
from repro.pipeline import batched as batched_mod
from repro.pipeline.batched import compile_levels, simulate_many
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan

import cost_oracle
import engine_oracle

N_LAYERS = 26
SCHEDULES = ("gpipe", "1f1b", "zb")


def random_states(rng, n=N_LAYERS, extreme=False):
    states = fresh_states(n)
    for row in states:
        row[SPARSITY] = rng.uniform(0.0, 0.99) if rng.random() < 0.4 else 0.0
        row[FROZEN] = rng.random() < 0.25
        row[DROPPABLE_BWD] = rng.random() < 0.15
        row[ATTN_DENSITY] = rng.uniform(0.0 if extreme else 0.1, 1.0)
        row[TOKEN_FRACTION] = rng.uniform(0.0 if extreme else 0.3, 1.0)
        row[MOE_MULTIPLIER] = rng.uniform(1.0, 3.0)
    return states


def assert_all_identical(engine, scenarios):
    """Batched results must equal scalar compiled, reference, and the
    reference loop priced by the scalar cost oracle, exactly."""
    batched = simulate_many([(engine, plan, states) for plan, states in scenarios])
    for (plan, states), fast in zip(scenarios, batched):
        scalar = engine.run_iteration(plan, states)
        ref = engine_oracle.run_iteration(engine, plan, states)
        oracle = cost_oracle.run_iteration(engine, plan, states)
        assert fast.makespan == scalar.makespan == ref.makespan == oracle.makespan
        assert np.array_equal(fast.busy, scalar.busy)
        assert np.array_equal(fast.busy, ref.busy)
        assert np.array_equal(fast.busy, oracle.busy)
        assert fast.comm_extra == scalar.comm_extra == ref.comm_extra == oracle.comm_extra


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
        gpt24_cost,
        None,
        schedule=sched,
        num_micro=M,
        rank_slowdowns={s: 1.0 / v for s, v in enumerate(speeds)},
    )
    scenarios = [
        (plan, random_states(rng, extreme=True)) for _ in range(6)
    ]
    assert_all_identical(engine, scenarios)


def test_chunks_stay_within_the_cell_budget(gpt24_cost, monkeypatch):
    """One zb bin of 150 lanes at 16 stages x 64 micro-batches (2,048
    ops a lane) reaches the executor in chunks of at most MAX_CELLS
    lanes x ops, and every lane still equals its scalar run."""
    rng = np.random.default_rng(9)
    plan = PipelinePlan.uniform(N_LAYERS, 16)
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=64)
    scenarios = [(plan, random_states(rng)) for _ in range(150)]
    cells = []
    real = batched_mod.execute_compiled_batched

    def recording(lv, fwd, *tables):
        cells.append(fwd.shape[0] * lv.num_ops)
        return real(lv, fwd, *tables)

    monkeypatch.setattr(batched_mod, "execute_compiled_batched", recording)
    batched = simulate_many([(engine, plan, states) for plan, states in scenarios])
    assert sum(cells) == 150 * 2048
    assert max(cells) <= batched_mod.MAX_CELLS
    for (plan, states), fast in zip(scenarios, batched):
        scalar = engine.run_iteration(plan, states)
        assert fast.makespan == scalar.makespan
        assert np.array_equal(fast.busy, scalar.busy)


def test_heterogeneous_bin_splits_and_falls_back(gpt24_cost):
    """Mixed stage counts in one call: each (S, M) bin runs batched,
    and a bin of one falls back to the scalar engine — results stay
    bit-identical and come back in request order."""
    rng = np.random.default_rng(5)
    plans = [PipelinePlan.uniform(N_LAYERS, s) for s in (4, 4, 6, 4, 6, 3)]
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=8)
    scenarios = [(p, random_states(rng)) for p in plans]
    assert_all_identical(engine, scenarios)


def test_batched_stage_times_match_scalar(gpt24_cost, comm):
    """Many-lane stage-time tables, and the engine's one-lane tables,
    equal the scalar cost oracle's per-layer loop bitwise."""
    rng = np.random.default_rng(7)
    plan = PipelinePlan.uniform(N_LAYERS, 5)
    for sched in ("1f1b", "zb"):
        engine = PipelineEngine(
            gpt24_cost, comm, schedule=sched, num_micro=4, rank_slowdowns={1: 2.5}
        )
        states_list = [random_states(rng, extreme=True) for _ in range(9)]
        fwd, bwd, wgt, act = gpt24_cost.stage_times(
            np.stack(states_list), [plan.boundaries] * 9, sched == "zb"
        )
        for lane, states in enumerate(states_list):
            f, b, w, a = cost_oracle.base_stage_times(gpt24_cost, plan, states, sched == "zb")
            assert fwd[lane].tobytes() == f.tobytes()
            assert bwd[lane].tobytes() == b.tobytes()
            assert wgt[lane].tobytes() == w.tobytes()
            assert act[lane].tobytes() == a.tobytes()
            for got, want in zip(
                engine.stage_times(plan, states), cost_oracle.stage_times(engine, plan, states)
            ):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [float("nan"), 1.5], ids=["nan", "out_of_range"])
@pytest.mark.parametrize(
    "field", ["sparsity", "attn_density", "token_fraction", "moe_multiplier"]
)
def test_layer_times_validate_states(gpt24_cost, field, value):
    """NaN fails like an out-of-range value."""
    bad = fresh_states(N_LAYERS)
    bad[3, STATE_FIELDS.index(field)] = -value if field == "moe_multiplier" else value
    with pytest.raises(ValueError, match=field):
        gpt24_cost.layer_times(bad[None], split=True)


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
    """One simulate_many call mixes batched lanes with an engine that
    cannot batch: the timeline engine takes the scalar path, is counted
    as unbatchable, and agrees bit for bit with the batched lanes and
    the reference loop."""
    rng = np.random.default_rng(11)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    engine = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=6)
    timeline_engine = PipelineEngine(
        gpt24_cost, None, schedule="zb", num_micro=6, record_timeline=True
    )
    assert engine.can_batch
    assert not timeline_engine.can_batch
    states = [random_states(rng) for _ in range(4)]
    requests = [
        (eng, plan, sts) for eng in (engine, timeline_engine) for sts in states
    ]
    batched_mod.stats.reset()
    results = simulate_many(requests)
    assert batched_mod.stats.batched_lanes == len(states)
    assert batched_mod.stats.scalar_unbatchable == len(states)
    lanes, timeline = results[: len(states)], results[len(states) :]
    for sts, a, t in zip(states, lanes, timeline):
        r = engine_oracle.run_iteration(engine, plan, sts, timeline=True)
        assert a.makespan == r.makespan == t.makespan
        assert np.array_equal(a.busy, r.busy)
        assert np.array_equal(a.busy, t.busy)
        assert a.comm_extra == r.comm_extra == t.comm_extra
        assert t.timeline == r.timeline  # the timeline engine still records its ops


def test_slowed_engines_batch_identically(gpt24_cost, gpt24_specs, comm, monkeypatch):
    """Engines with active rank slowdowns take the batched path (the
    map is fixed per call) and stay bit-identical to the scalar loop.

    One call may also mix engines.  Lanes whose cost models are distinct
    objects of equal content share one layer-times call across plans
    and straggler slowdowns; a lane whose model differs
    only in activation recompute gets its own.  Every lane matches the
    reference loop priced by the scalar cost oracle."""
    rng = np.random.default_rng(12)
    plan = PipelinePlan.uniform(N_LAYERS, 4)
    skewed = PipelinePlan((0, 3, 10, 20, N_LAYERS), N_LAYERS)
    priced_by: list[ModelCost] = []
    real_layer_times = ModelCost.layer_times
    monkeypatch.setattr(
        ModelCost,
        "layer_times",
        lambda self, *a, **kw: priced_by.append(self) or real_layer_times(self, *a, **kw),
    )
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

        twins = [
            PipelineEngine(ModelCost(gpt24_specs), comm, schedule=sched, num_micro=6),
            PipelineEngine(
                ModelCost(gpt24_specs),
                comm,
                schedule=sched,
                num_micro=6,
                rank_slowdowns={
                    s: 1.0 / v for s, v in enumerate([1.0, 0.5, 2.0, 0.8])
                },
            ),
            PipelineEngine(
                ModelCost(gpt24_specs),
                comm,
                schedule=sched,
                num_micro=6,
                rank_slowdowns={1: 2.0, 3: 1.25},
            ),
        ]
        recompute = PipelineEngine(
            ModelCost(gpt24_specs, activation_recompute=True),
            comm,
            schedule=sched,
            num_micro=6,
        )
        requests = [(eng, p, random_states(rng)) for eng in twins for p in (plan, skewed)]
        requests.append((recompute, skewed, random_states(rng)))
        priced_by.clear()
        batched_mod.stats.reset()
        results = simulate_many(requests)
        assert batched_mod.stats.batched_lanes == len(requests)
        twin_costs = [eng.cost for eng in twins]
        assert sum(any(c is t for t in twin_costs) for c in priced_by) == 1
        assert len(priced_by) == 2
        for (eng, p, states), res in zip(requests, results):
            want = cost_oracle.run_iteration(eng, p, states)
            assert res.makespan == want.makespan
            assert np.array_equal(res.busy, want.busy)
            assert res.comm_extra == want.comm_extra

"""Property-based tests for the pipeline engine and plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.repack import first_fit_repack
from repro.model.cost import LayerState, ModelCost, build_layer_specs, fresh_states
from repro.model.config import GPTConfig
from repro.pipeline import PipelineEngine, PipelinePlan


def small_cost():
    cfg = GPTConfig("p", num_layers=6, hidden=256, num_heads=4, seq_len=128, vocab_size=1000)
    return ModelCost(build_layer_specs(cfg))


COST = small_cost()
NLAYERS = len(COST.specs)


@st.composite
def random_states(draw):
    states = []
    for _ in range(NLAYERS):
        states.append(
            LayerState(
                sparsity=draw(st.sampled_from([0.0, 0.5, 0.9])),
                frozen=draw(st.booleans()),
                attn_density=draw(st.floats(min_value=0.05, max_value=1.0)),
                token_fraction=draw(st.floats(min_value=0.05, max_value=1.0)),
                moe_multiplier=draw(st.floats(min_value=1.0, max_value=3.0)),
            )
        )
    return states


class TestEngineProperties:
    @given(
        states=random_states(),
        stages=st.integers(1, 4),
        micro=st.integers(1, 8),
        schedule=st.sampled_from(["gpipe", "1f1b", "zb"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, states, stages, micro, schedule):
        """max(busy) <= makespan <= sum of all work (sequential)."""
        eng = PipelineEngine(COST, None, schedule=schedule, num_micro=micro)
        plan = PipelinePlan.uniform(NLAYERS, stages)
        res = eng.run_iteration(plan, states)
        assert res.makespan >= res.busy.max() - 1e-12
        total_work = res.busy.sum()
        assert res.makespan <= total_work + 1e-9
        assert 0.0 <= res.bubble_ratio() <= 1.0

    @given(states=random_states(), micro=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_work_conservation_across_schedules(self, states, micro):
        """All schedules execute the same total compute."""
        plan = PipelinePlan.uniform(NLAYERS, 3)
        totals = []
        for sched in ("gpipe", "1f1b", "zb"):
            eng = PipelineEngine(COST, None, schedule=sched, num_micro=micro)
            totals.append(eng.run_iteration(plan, states).busy.sum())
        assert totals[0] == pytest.approx(totals[1], rel=1e-9)
        assert totals[0] == pytest.approx(totals[2], rel=1e-9)

    @given(states=random_states())
    @settings(max_examples=30, deadline=None)
    def test_zb_no_slower_than_1f1b(self, states):
        plan = PipelinePlan.uniform(NLAYERS, 3)
        t1 = PipelineEngine(COST, None, schedule="1f1b", num_micro=6).run_iteration(
            plan, states
        )
        t2 = PipelineEngine(COST, None, schedule="zb", num_micro=6).run_iteration(
            plan, states
        )
        assert t2.makespan <= t1.makespan + 1e-9


class TestPlanProperties:
    @given(
        n=st.integers(2, 60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_plan_invariants(self, n, data):
        s = data.draw(st.integers(1, n))
        plan = PipelinePlan.uniform(n, s)
        sizes = plan.stage_sizes()
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        stages = plan.layer_stages()
        for layer in range(n):
            assert layer in plan.stage_layers(int(stages[layer]))


class TestRepackProperties:
    @given(
        mems=st.lists(st.floats(min_value=0.1, max_value=10), min_size=2, max_size=10),
        cap=st.floats(min_value=5, max_value=50),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_repack_invariants(self, mems, cap, data):
        target = data.draw(st.integers(1, len(mems)))
        layers = [1] * len(mems)
        res = first_fit_repack(mems, layers, max_mem=cap, target_num_workers=target)
        # memory conserved
        assert sum(res.mem_usage) == pytest.approx(sum(mems))
        # target floor respected
        assert res.num_active >= min(target, len(mems))
        # no active worker above capacity unless it started above
        for i, (m0, m1) in enumerate(zip(mems, res.mem_usage)):
            if res.active_workers[i] and m1 > m0:
                assert m1 < cap
        # inactive workers hold nothing
        for i, a in enumerate(res.active_workers):
            if not a:
                assert res.mem_usage[i] == 0.0

"""Tests for the baseline systems."""

import numpy as np
import pytest

from repro.baselines import (
    EgeriaBaseline,
    TutelMoEBaseline,
    deepspeed_plan,
    megatron_uniform_plan,
)
from repro.dynamics import FreezingDynamism, MoEDynamism
from repro.model.config import GPTConfig
from repro.model.cost import build_layer_specs
from repro.pipeline import PipelinePlan


class TestMegatron:
    def test_blocks_evenly_split(self, gpt24_specs):
        plan = megatron_uniform_plan(gpt24_specs, 8)
        assert plan.num_stages == 8
        # 24 blocks / 8 stages = 3 each; emb rides stage0, head stage7
        sizes = plan.stage_sizes()
        assert sizes[0] == 4  # embedding + 3 blocks
        assert sizes[-1] == 4  # 3 blocks + head
        assert all(s == 3 for s in sizes[1:-1])

    def test_remainder_spread(self, gpt24_specs):
        plan = megatron_uniform_plan(gpt24_specs, 7)  # 24 = 7*3 + 3
        sizes = plan.stage_sizes()
        assert sum(sizes) == 26

    def test_invalid_stage_count(self, gpt24_specs):
        with pytest.raises(ValueError):
            megatron_uniform_plan(gpt24_specs, 25)


class TestDeepSpeed:
    def test_uniform(self, gpt24_specs):
        plan = deepspeed_plan(gpt24_specs, 4, "uniform")
        assert plan.num_stages == 4
        assert plan.stage_sizes() == [7, 7, 6, 6]

    def test_parameters_balances_params(self, gpt24_specs):
        plan = deepspeed_plan(gpt24_specs, 4, "parameters")
        w = np.array([sp.param_count for sp in gpt24_specs], dtype=float)
        loads = plan.stage_loads(w)
        uniform_loads = PipelinePlan.uniform(26, 4).stage_loads(w)
        assert loads.max() <= uniform_loads.max()

    def test_regex_blocks_only(self, gpt24_specs):
        plan = deepspeed_plan(gpt24_specs, 4, "regex:block")
        w = np.array(
            [sp.param_count if sp.kind == "block" else 0 for sp in gpt24_specs],
            dtype=float,
        )
        loads = plan.stage_loads(w)
        assert loads.max() / loads.min() < 1.5

    def test_regex_no_match_raises(self, gpt24_specs):
        with pytest.raises(ValueError):
            deepspeed_plan(gpt24_specs, 4, "regex:nonexistent")

    def test_unknown_method_raises(self, gpt24_specs):
        with pytest.raises(ValueError):
            deepspeed_plan(gpt24_specs, 4, "random")


class TestTutel:
    def _scheme(self):
        cfg = GPTConfig("m", num_layers=8, moe_every=1, num_experts=8)
        specs = build_layer_specs(cfg)
        return MoEDynamism(specs, seed=0)

    def test_damps_multipliers(self):
        inner1, inner2 = self._scheme(), self._scheme()
        raw = inner1
        tutel = TutelMoEBaseline(inner2, damping=0.5, dispatch_overhead=0.0)
        s_raw, s_tut = raw.initial_states(), tutel.initial_states()
        for k in range(10):
            raw.step(k, s_raw)
            tutel.step(k, s_tut)
        raw_excess = np.mean([s.moe_multiplier - 1 for s in s_raw if s.moe_multiplier > 1])
        tut_excess = np.mean([s.moe_multiplier - 1 for s in s_tut if s.moe_multiplier > 1])
        assert tut_excess < raw_excess

    def test_never_rebalances_pipeline(self):
        tutel = TutelMoEBaseline(self._scheme())
        assert tutel.rebalance_every > 10**6

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            TutelMoEBaseline(self._scheme(), damping=1.5)


class TestEgeria:
    def test_wraps_freezing(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        eg = EgeriaBaseline(scheme)
        states = eg.initial_states()
        changed = False
        for k in range(0, 100, 10):
            changed |= eg.step(k, states)
        assert changed
        assert eg.rebalance_every > 10**6  # never balances

    def test_overhead_grows_with_depth(self):
        from repro.model.config import gpt_48, gpt_24

        s24 = FreezingDynamism(build_layer_specs(gpt_24()), seed=0)
        s48 = FreezingDynamism(build_layer_specs(gpt_48()), seed=0)
        assert (
            EgeriaBaseline(s48).per_iteration_overhead_s()
            > EgeriaBaseline(s24).per_iteration_overhead_s()
        )


"""Tests for GPT configs and the per-layer cost model."""

import numpy as np
import pytest

from repro.model import (
    GPTConfig,
    LayerSpec,
    LayerState,
    ModelCost,
    build_layer_specs,
    gpt_24,
    gpt_48,
    mixtral_8x7b_like,
)
from repro.model.cost import fresh_states, state_matrix


class TestConfig:
    def test_presets(self):
        assert gpt_24().num_layers == 24
        assert gpt_48().num_layers == 48
        assert gpt_24().hidden == 1024
        assert gpt_24().seq_len == 2048
        assert gpt_24().num_heads == 32

    def test_moe_layers(self):
        cfg = mixtral_8x7b_like()
        assert cfg.is_moe
        assert len(cfg.moe_layers()) == 32

    def test_moe_every_two(self):
        cfg = GPTConfig("x", num_layers=4, moe_every=2, num_experts=4)
        assert cfg.moe_layers() == [1, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            GPTConfig("x", num_layers=0)
        with pytest.raises(ValueError):
            GPTConfig("x", num_layers=4, hidden=100, num_heads=3)
        with pytest.raises(ValueError):
            GPTConfig("x", num_layers=4, moe_every=1, num_experts=1)


class TestBuildLayerSpecs:
    def test_layout(self):
        specs = build_layer_specs(gpt_24())
        assert len(specs) == 26
        assert specs[0].kind == "embedding"
        assert specs[-1].kind == "head"
        assert all(sp.kind == "block" for sp in specs[1:-1])

    def test_moe_flags(self):
        specs = build_layer_specs(mixtral_8x7b_like())
        assert all(sp.is_moe for sp in specs[1:-1])
        assert specs[1].num_experts == 8

    def test_moe_ffn_flops_scale_with_topk(self):
        dense = build_layer_specs(gpt_24())[1]
        cfg = GPTConfig("x", num_layers=24, moe_every=1, num_experts=8, moe_top_k=2)
        moe = build_layer_specs(cfg)[1]
        assert moe.ffn_flops == pytest.approx(dense.ffn_flops * 2)

    def test_tp_shards_head(self):
        s1 = build_layer_specs(gpt_24(), tp_ways=1)
        s8 = build_layer_specs(gpt_24(), tp_ways=8)
        assert s8[-1].matmul_flops == pytest.approx(s1[-1].matmul_flops / 8)

    def test_ffn_not_exceeding_matmul(self):
        for sp in build_layer_specs(gpt_24()):
            assert sp.ffn_flops <= sp.matmul_flops + 1e-9

    def test_bad_tp_raises(self):
        with pytest.raises(ValueError):
            build_layer_specs(gpt_24(), tp_ways=0)


class TestLayerState:
    def test_copy_independent(self):
        a = LayerState(sparsity=0.5)
        b = a.copy()
        b.sparsity = 0.9
        assert a.sparsity == 0.5


def layer_time(cost, state, split=False, layer=1):
    """(fwd, bwd, wgt) of one layer in ``state`` via the array path."""
    states = fresh_states(len(cost.specs))
    states[layer] = state
    fwd, bwd, wgt = cost.layer_times(state_matrix([states]), split)
    return fwd[0, layer], bwd[0, layer], wgt[0, layer]


def layer_bytes(cost, state, layer=1, in_flight=1):
    """Mixed-precision BYTE_FIELDS of one layer in ``state`` via the
    array path."""
    states = fresh_states(len(cost.specs))
    states[layer] = state
    return cost.layer_bytes(state_matrix([states]), in_flight)[:, 0, layer].tolist()


class TestModelCost:
    @pytest.fixture
    def cost(self):
        return ModelCost(build_layer_specs(gpt_24()))

    def test_forward_time_positive(self, cost):
        assert layer_time(cost, LayerState())[0] > 0

    def test_backward_approx_twice_forward(self, cost):
        f, b, _ = layer_time(cost, LayerState())
        assert 1.5 * f < b < 3.0 * f

    def test_frozen_drops_weight_grad(self, cost):
        full = layer_time(cost, LayerState())[1]
        frozen = layer_time(cost, LayerState(frozen=True))[1]
        assert frozen < full
        assert layer_time(cost, LayerState(frozen=True), split=True)[2] == 0.0

    def test_droppable_bwd_zero(self, cost):
        st = LayerState(frozen=True, droppable_bwd=True)
        assert layer_time(cost, st)[1] == 0.0

    def test_b_w_split_sums_to_backward(self, cost):
        st = LayerState()
        total = layer_time(cost, st)[1]
        _, b, w = layer_time(cost, st, split=True)
        assert b + w == pytest.approx(total)

    def test_token_fraction_scales_time(self, cost):
        full = layer_time(cost, LayerState())[0]
        half = layer_time(cost, LayerState(token_fraction=0.5))[0]
        assert half == pytest.approx(0.5 * full)

    def test_attn_density_scales_quadratic_only(self, cost):
        sp = cost.specs[1]
        dense = layer_time(cost, LayerState())[0]
        sparse = layer_time(cost, LayerState(attn_density=0.0))[0]
        expected_drop = sp.attn_quad_flops / (cost.peak_flops * cost.efficiency)
        assert dense - sparse == pytest.approx(expected_drop)

    def test_moe_multiplier_scales_ffn(self, cost):
        sp = cost.specs[1]
        base = layer_time(cost, LayerState())[0]
        doubled = layer_time(cost, LayerState(moe_multiplier=2.0))[0]
        extra = sp.ffn_flops / (cost.peak_flops * cost.efficiency)
        assert doubled - base == pytest.approx(extra)

    def test_high_sparsity_faster(self, cost):
        dense = layer_time(cost, LayerState())[0]
        pruned = layer_time(cost, LayerState(sparsity=0.95))[0]
        assert pruned < dense

    def test_moderate_sparsity_not_faster(self, cost):
        """Below the Sputnik crossover (~75%), sparse kernels don't
        win, so time must not decrease."""
        dense = layer_time(cost, LayerState())[0]
        half = layer_time(cost, LayerState(sparsity=0.5))[0]
        assert half >= dense * 0.99

    def test_memory_components(self, cost):
        weight, master, grad, opt, act = layer_bytes(cost, LayerState(), in_flight=2)
        assert weight > 0 and master > 0 and act > 0
        assert grad > 0
        assert opt == 2 * grad
        assert sum(layer_bytes(cost, LayerState(), in_flight=2)) > weight + master

    def test_frozen_memory_smaller(self, cost):
        frozen = layer_bytes(cost, LayerState(frozen=True))
        assert frozen[2] == frozen[3] == 0
        assert sum(frozen) < sum(layer_bytes(cost, LayerState()))

    def test_pruned_memory_smaller_at_high_sparsity(self, cost):
        pruned = layer_bytes(cost, LayerState(sparsity=0.9))
        dense = layer_bytes(cost, LayerState())
        assert pruned[0] + pruned[1] < dense[0] + dense[1]

    def test_in_flight_scales_activations_only(self, cost):
        one = layer_bytes(cost, LayerState(), in_flight=1)
        four = layer_bytes(cost, LayerState(), in_flight=4)
        assert four[:4] == one[:4]
        assert four[4] == 4 * one[4]
        held = layer_bytes(
            ModelCost(cost.specs, activation_recompute=True), LayerState(), in_flight=4
        )
        assert held == one  # recompute holds only the boundary activation

    def test_totals_require_matching_lengths(self, cost):
        with pytest.raises(ValueError):
            cost.layer_times(state_matrix([[LayerState()]]))

    def test_fresh_states(self):
        states = fresh_states(5)
        assert len(states) == 5
        assert all(s.sparsity == 0 and not s.frozen for s in states)

    def test_empty_specs_raises(self):
        with pytest.raises(ValueError):
            ModelCost([])

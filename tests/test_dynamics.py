"""Tests for the six dynamism schemes."""

import numpy as np
import pytest

from repro.dynamics import (
    EarlyExitDynamism,
    FreezingDynamism,
    GlobalMagnitudePruner,
    GradualPruningSchedule,
    MoDDynamism,
    MoEDynamism,
    PruningDynamism,
    SparseAttentionDynamism,
    StaticScheme,
)
from repro.experiments.common import build_scenario, make_trainer
from repro.model.config import GPTConfig
from repro.model.cost import build_layer_specs


@pytest.fixture
def moe_specs():
    cfg = GPTConfig("t-moe", num_layers=8, moe_every=1, num_experts=8, moe_top_k=2)
    return build_layer_specs(cfg)


class TestStaticScheme:
    def test_never_changes(self, gpt24_specs):
        scheme = StaticScheme(gpt24_specs)
        states = scheme.initial_states()
        assert not scheme.step(0, states)
        assert all(s.sparsity == 0 and s.token_fraction == 1.0 for s in states)


class TestMoEDynamism:
    def test_changes_every_iteration(self, moe_specs):
        scheme = MoEDynamism(moe_specs, seed=0)
        states = scheme.initial_states()
        assert scheme.step(0, states)
        m0 = [s.moe_multiplier for s in states]
        scheme.step(1, states)
        m1 = [s.moe_multiplier for s in states]
        assert m0 != m1
        assert scheme.rebalance_every == 1

    def test_multiplier_at_least_one(self, moe_specs):
        scheme = MoEDynamism(moe_specs, seed=1)
        states = scheme.initial_states()
        for k in range(20):
            scheme.step(k, states)
            for i in scheme.moe_layers:
                assert states[i].moe_multiplier >= 1.0 - 1e-9

    def test_sbase_nearly_balanced(self, moe_specs):
        scheme = MoEDynamism(moe_specs, router="sbase", seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        for i in scheme.moe_layers:
            assert states[i].moe_multiplier == pytest.approx(1.02, abs=0.01)

    def test_aux_loss_more_imbalanced_than_sbase(self, moe_specs):
        aux = MoEDynamism(moe_specs, router="aux_loss", seed=0)
        sb = MoEDynamism(moe_specs, router="sbase", seed=0)
        sa, ss = aux.initial_states(), sb.initial_states()
        for k in range(30):
            aux.step(k, sa)
            sb.step(k, ss)
        slowest_expert = [
            np.mean([states[i].moe_multiplier for i in aux.moe_layers])
            for states in (sa, ss)
        ]
        assert slowest_expert[0] > slowest_expert[1]

    def test_counts_conserve_tokens(self, moe_specs):
        scheme = MoEDynamism(moe_specs, tokens_per_iter=4096, seed=0)
        for i in scheme.moe_layers:
            assert scheme._counts_for(i).sum() == 4096

    def test_unknown_router_raises(self, moe_specs):
        with pytest.raises(ValueError):
            MoEDynamism(moe_specs, router="magic")

    def test_requires_moe_layers(self, gpt24_specs):
        with pytest.raises(ValueError):
            MoEDynamism(gpt24_specs)


class TestPruningSchedule:
    def test_cubic_shape(self):
        s = GradualPruningSchedule(0.0, 0.9, 1000, 5000, 1000)
        assert s.sparsity_at(0) == 0.0
        assert s.sparsity_at(1000) == pytest.approx(0.0)
        assert s.sparsity_at(5000) == pytest.approx(0.9)
        assert s.sparsity_at(9999) == pytest.approx(0.9)
        # cubic: fast early progress — midpoint is well past half
        assert s.sparsity_at(3000) > 0.45 * 0.9 + 0.3

    def test_monotone(self):
        s = GradualPruningSchedule()
        vals = [s.sparsity_at(k) for k in range(0, 10000, 250)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_pruning_steps(self):
        s = GradualPruningSchedule(start_iter=100, end_iter=400, prune_every=100)
        assert s.is_pruning_step(100)
        assert s.is_pruning_step(200)
        assert not s.is_pruning_step(150)
        assert not s.is_pruning_step(500)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradualPruningSchedule(final_sparsity=1.5)
        with pytest.raises(ValueError):
            GradualPruningSchedule(start_iter=10, end_iter=5)
        with pytest.raises(ValueError):
            GradualPruningSchedule(prune_every=0)


class TestGlobalMagnitudePruner:
    def test_global_topk_exact(self, rng):
        """Algorithm 1 must keep exactly the global top-k by |w|."""
        shards = [rng.normal(size=100) for _ in range(4)]
        pruner = GlobalMagnitudePruner(4)
        keeps = pruner.prune(shards, sparsity=0.8)
        all_w = np.concatenate([np.abs(s) for s in shards])
        kept = np.concatenate(keeps)
        k = int(round(400 * 0.2))
        thresh = np.sort(all_w)[-k]
        expected = all_w >= thresh
        assert np.array_equal(kept, expected)
        assert kept.sum() == pytest.approx(k, abs=2)

    def test_zero_sparsity_keeps_all(self, rng):
        shards = [rng.normal(size=50) for _ in range(2)]
        keeps = GlobalMagnitudePruner(2).prune(shards, 0.0)
        assert all(k.all() for k in keeps)

    def test_uneven_shards(self, rng):
        shards = [rng.normal(size=10), rng.normal(size=200)]
        keeps = GlobalMagnitudePruner(2).prune(shards, 0.5)
        assert keeps[0].shape == (10,)
        assert keeps[1].shape == (200,)

    def test_shard_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            GlobalMagnitudePruner(3).prune([rng.normal(size=5)], 0.5)


class TestPruningDynamism:
    def _scheme(self, specs, **kw):
        sched = GradualPruningSchedule(start_iter=10, end_iter=50, prune_every=10)
        return PruningDynamism(specs, schedule=sched, **kw)

    def test_no_change_before_region(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs)
        states = scheme.initial_states()
        assert not scheme.step(5, states)
        assert all(s.sparsity == 0 for s in states)

    def test_sparsity_rises_through_region(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs, seed=0)
        states = scheme.initial_states()
        means = []
        for k in range(60):
            scheme.step(k, states)
            if k in (10, 30, 50):
                means.append(np.mean([s.sparsity for s in states[1:-1]]))
        assert means[0] < means[1] < means[2]
        assert means[-1] > 0.8

    def test_nonuniform_retention(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs, seed=0)
        states = scheme.initial_states()
        for k in range(60):
            scheme.step(k, states)
        sp = [s.sparsity for s in states[1:-1]]
        assert max(sp) - min(sp) > 0.1  # global pruning is uneven

    def test_embedding_head_untouched(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs)
        states = scheme.initial_states()
        for k in range(60):
            scheme.step(k, states)
        assert states[0].sparsity == 0.0
        assert states[-1].sparsity == 0.0

    @pytest.mark.parametrize("mode", ["megatron", "dynmo-partition"])
    def test_full_sparsity_run_completes(self, mode):
        """final_sparsity=1.0 is a valid schedule: the last pruning step
        keeps no weight at all instead of crashing the run."""
        setup = build_scenario("pruning", iterations=60)
        sched = GradualPruningSchedule(
            final_sparsity=1.0, start_iter=10, end_iter=50, prune_every=10
        )
        scheme = PruningDynamism(setup.specs, schedule=sched, seed=0)
        trainer = make_trainer(setup, mode, scheme=scheme)
        assert trainer.run().iterations == 60
        assert all(trainer.states[i].sparsity == 1.0 for i in scheme.block_indices)


class TestFreezingDynamism:
    def test_front_contiguous(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=50, tau0=100, seed=0)
        states = scheme.initial_states()
        for k in range(0, 2000, 50):
            scheme.step(k, states)
        flags = [states[i].frozen for i in scheme.block_indices]
        # frozen prefix: no unfrozen layer before a frozen one
        first_unfrozen = flags.index(False) if False in flags else len(flags)
        assert all(flags[:first_unfrozen])
        assert not any(flags[first_unfrozen:])

    def test_droppable_matches_prefix(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=50, tau0=100, seed=0)
        states = scheme.initial_states()
        for k in range(0, 1000, 50):
            scheme.step(k, states)
        for i in scheme.block_indices:
            if states[i].droppable_bwd:
                assert states[i].frozen

    def test_budget_cap(self, gpt24_specs):
        scheme = FreezingDynamism(
            gpt24_specs, freeze_every=10, tau0=1, max_frozen_fraction=0.5, seed=0
        )
        states = scheme.initial_states()
        for k in range(0, 10000, 10):
            scheme.step(k, states)
        assert scheme.frozen_flags.mean() <= 0.5 + 1e-9

    def test_only_on_cadence(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=300, tau0=1, seed=0)
        states = scheme.initial_states()
        assert not scheme.step(7, states)

    def test_invalid_freeze_every(self, gpt24_specs):
        with pytest.raises(ValueError):
            FreezingDynamism(gpt24_specs, freeze_every=0)


class TestSparseAttention:
    def test_densities_in_range(self, gpt24_specs):
        scheme = SparseAttentionDynamism(gpt24_specs, seed=0)
        states = scheme.initial_states()
        for k in range(10):
            scheme.step(k, states)
            for i in scheme.block_indices:
                assert 0.0 < states[i].attn_density <= 1.0

    def test_mean_density_near_target(self, gpt24_specs):
        scheme = SparseAttentionDynamism(gpt24_specs, mean_density=0.25, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        dens = [states[i].attn_density for i in scheme.block_indices]
        assert 0.1 < np.mean(dens) < 0.45

    def test_changes_every_iteration(self, gpt24_specs):
        scheme = SparseAttentionDynamism(gpt24_specs, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        d0 = [states[i].attn_density for i in scheme.block_indices]
        scheme.step(1, states)
        d1 = [states[i].attn_density for i in scheme.block_indices]
        assert d0 != d1

    def test_invalid_density(self, gpt24_specs):
        with pytest.raises(ValueError):
            SparseAttentionDynamism(gpt24_specs, mean_density=0.0)

class TestEarlyExit:
    def test_survival_monotone_nonincreasing(self, gpt24_specs):
        scheme = EarlyExitDynamism(gpt24_specs, seed=0)
        surv = scheme.survival_curve(1000)
        assert all(b <= a + 1e-12 for a, b in zip(surv, surv[1:]))
        assert surv[0] == 1.0

    def test_no_exits_before_start(self, gpt24_specs):
        scheme = EarlyExitDynamism(gpt24_specs, exit_start_frac=0.5, seed=0)
        surv = scheme.survival_curve(1000)
        start = int(0.5 * len(scheme.block_indices))
        assert all(s == 1.0 for s in surv[: start + 1])

    def test_exits_strengthen_over_training(self, gpt24_specs):
        scheme = EarlyExitDynamism(gpt24_specs, ramp_iters=1000, seed=0)
        early = scheme.survival_curve(0).mean()
        late = scheme.survival_curve(1000).mean()
        assert late < early

    def test_min_fraction_floor(self, gpt24_specs):
        scheme = EarlyExitDynamism(
            gpt24_specs, final_exit_rate=0.99, min_fraction=0.05, seed=0
        )
        surv = scheme.survival_curve(10**6)
        assert surv.min() >= 0.05 - 1e-12

    def test_states_updated_on_cadence(self, gpt24_specs):
        scheme = EarlyExitDynamism(gpt24_specs, seed=0)
        states = scheme.initial_states()
        assert scheme.step(0, states)
        assert not scheme.step(1, states)
        assert scheme.step(scheme.rebalance_every, states)

class TestMoD:
    def test_alternating_pattern(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, every_other=2, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        blocks = scheme.block_indices
        routed = [states[i].token_fraction < 1.0 for i in blocks]
        assert routed == [j % 2 == 1 for j in range(len(blocks))]

    def test_capacity_bound(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, capacity=0.125, seed=0)
        states = scheme.initial_states()
        for k in range(10):
            scheme.step(k, states)
            for i in scheme.routed:
                assert 0.01 <= states[i].token_fraction <= 1.0
                assert states[i].token_fraction >= 0.125 * 0.99

    def test_moe_multipliers_on_all_blocks(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, moe_imbalance=0.3, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        mults = [states[i].moe_multiplier for i in scheme.block_indices]
        assert all(m >= 1.0 for m in mults)
        assert max(mults) > 1.0

    def test_no_moe_when_disabled(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, moe_imbalance=0.0, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        assert all(states[i].moe_multiplier == 1.0 for i in scheme.block_indices)

    def test_validation(self, gpt24_specs):
        with pytest.raises(ValueError):
            MoDDynamism(gpt24_specs, capacity=1.5)
        with pytest.raises(ValueError):
            MoDDynamism(gpt24_specs, every_other=0)

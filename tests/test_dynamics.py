"""Tests for the six dynamism schemes."""

import hashlib

import numpy as np
import pytest

from repro.dynamics import (
    EarlyExitDynamism,
    FreezingDynamism,
    GradualPruningSchedule,
    MoDDynamism,
    MoEDynamism,
    PruningDynamism,
    SparseAttentionDynamism,
    StaticScheme,
)
from repro.experiments.common import build_scenario, make_scheme, make_trainer
from repro.model.config import GPTConfig
from repro.model.cost import (
    ATTN_DENSITY,
    DROPPABLE_BWD,
    FROZEN,
    MOE_MULTIPLIER,
    SPARSITY,
    TOKEN_FRACTION,
    build_layer_specs,
)

from pruning_oracle import GlobalMagnitudePruner


@pytest.fixture
def moe_specs():
    cfg = GPTConfig("t-moe", num_layers=8, moe_every=1, num_experts=8, moe_top_k=2)
    return build_layer_specs(cfg)


class TestStaticScheme:
    def test_never_changes(self, gpt24_specs):
        scheme = StaticScheme(gpt24_specs)
        states = scheme.initial_states()
        assert not scheme.step(0, states)
        assert (states[:, SPARSITY] == 0).all() and (states[:, TOKEN_FRACTION] == 1.0).all()


class TestMoEDynamism:
    def test_changes_every_iteration(self, moe_specs):
        scheme = MoEDynamism(moe_specs, seed=0)
        states = scheme.initial_states()
        assert scheme.step(0, states)
        m0 = states[:, MOE_MULTIPLIER].tolist()
        scheme.step(1, states)
        m1 = states[:, MOE_MULTIPLIER].tolist()
        assert m0 != m1
        assert scheme.rebalance_every == 1

    def test_multiplier_at_least_one(self, moe_specs):
        scheme = MoEDynamism(moe_specs, seed=1)
        states = scheme.initial_states()
        for k in range(20):
            scheme.step(k, states)
            for i in scheme.moe_layers:
                assert states[i, MOE_MULTIPLIER] >= 1.0 - 1e-9

    def test_sbase_nearly_balanced(self, moe_specs):
        scheme = MoEDynamism(moe_specs, router="sbase", seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        for i in scheme.moe_layers:
            assert states[i, MOE_MULTIPLIER] == pytest.approx(1.02, abs=0.01)

    def test_aux_loss_more_imbalanced_than_sbase(self, moe_specs):
        aux = MoEDynamism(moe_specs, router="aux_loss", seed=0)
        sb = MoEDynamism(moe_specs, router="sbase", seed=0)
        sa, ss = aux.initial_states(), sb.initial_states()
        for k in range(30):
            aux.step(k, sa)
            sb.step(k, ss)
        slowest_expert = [
            np.mean(states[aux.moe_layers, MOE_MULTIPLIER])
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
        assert (states[:, SPARSITY] == 0).all()

    def test_sparsity_rises_through_region(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs, seed=0)
        states = scheme.initial_states()
        means = []
        for k in range(60):
            scheme.step(k, states)
            if k in (10, 30, 50):
                means.append(np.mean(states[1:-1, SPARSITY]))
        assert means[0] < means[1] < means[2]
        assert means[-1] > 0.8

    def test_nonuniform_retention(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs, seed=0)
        states = scheme.initial_states()
        for k in range(60):
            scheme.step(k, states)
        sp = states[1:-1, SPARSITY]
        assert sp.max() - sp.min() > 0.1  # global pruning is uneven

    def test_embedding_head_untouched(self, gpt24_specs):
        scheme = self._scheme(gpt24_specs)
        states = scheme.initial_states()
        for k in range(60):
            scheme.step(k, states)
        assert states[0, SPARSITY] == 0.0
        assert states[-1, SPARSITY] == 0.0

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
        assert (trainer.states[scheme.block_indices, SPARSITY] == 1.0).all()


class TestFreezingDynamism:
    def test_front_contiguous(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=50, tau0=100, seed=0)
        states = scheme.initial_states()
        for k in range(0, 2000, 50):
            scheme.step(k, states)
        flags = [bool(states[i, FROZEN]) for i in scheme.block_indices]
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
            if states[i, DROPPABLE_BWD]:
                assert states[i, FROZEN]

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
                assert 0.0 < states[i, ATTN_DENSITY] <= 1.0

    def test_mean_density_near_target(self, gpt24_specs):
        scheme = SparseAttentionDynamism(gpt24_specs, mean_density=0.25, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        dens = states[scheme.block_indices, ATTN_DENSITY]
        assert 0.1 < np.mean(dens) < 0.45

    def test_changes_every_iteration(self, gpt24_specs):
        scheme = SparseAttentionDynamism(gpt24_specs, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        d0 = states[scheme.block_indices, ATTN_DENSITY].tolist()
        scheme.step(1, states)
        d1 = states[scheme.block_indices, ATTN_DENSITY].tolist()
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
        routed = [bool(states[i, TOKEN_FRACTION] < 1.0) for i in blocks]
        assert routed == [j % 2 == 1 for j in range(len(blocks))]

    def test_capacity_bound(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, capacity=0.125, seed=0)
        states = scheme.initial_states()
        for k in range(10):
            scheme.step(k, states)
            for i in scheme.routed:
                assert 0.01 <= states[i, TOKEN_FRACTION] <= 1.0
                assert states[i, TOKEN_FRACTION] >= 0.125 * 0.99

    def test_moe_multipliers_on_all_blocks(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, moe_imbalance=0.3, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        mults = states[scheme.block_indices, MOE_MULTIPLIER]
        assert (mults >= 1.0).all()
        assert mults.max() > 1.0

    def test_no_moe_when_disabled(self, gpt24_specs):
        scheme = MoDDynamism(gpt24_specs, moe_imbalance=0.0, seed=0)
        states = scheme.initial_states()
        scheme.step(0, states)
        assert (states[scheme.block_indices, MOE_MULTIPLIER] == 1.0).all()

    def test_validation(self, gpt24_specs):
        with pytest.raises(ValueError):
            MoDDynamism(gpt24_specs, capacity=1.5)
        with pytest.raises(ValueError):
            MoDDynamism(gpt24_specs, every_other=0)


#: blake2b over the 150 per-iteration ``states_fingerprint``s of each
#: scheme's trajectory, and the trajectory's distinct fingerprint count
#: (which keeps every pin from being vacuous).  Iteration-cache keys,
#: goldens and perfbench digests all rest on these trajectories, so a
#: change that moves one moves simulated numbers.
TRAJECTORY_PINS = {
    ("moe", 0): ("2a9b27d4aca7b051319d8d89560f943b", 150),
    ("moe", 1): ("20bb07e95d969b00718479c2e1ff6d59", 150),
    ("pruning", 0): ("9ece9a2abafaf5498d2b0871f3755194", 5),
    ("pruning", 1): ("72e76b5dc181df950918b1bcc468a865", 5),
    ("freezing", 0): ("de6f4bc6f0b0c3ba2ab1bddb019ddb71", 13),
    ("freezing", 1): ("edc2e60eac9905038f75a10c42c9d9bc", 10),
    ("sparse_attention", 0): ("5690f43b0beb98bea9f9a7fc78554052", 150),
    ("sparse_attention", 1): ("57c12c050436205576106122dc87dbf1", 150),
    ("early_exit", 0): ("d0db67f3c7f929e57fa2e2e26c5a2549", 150),
    ("early_exit", 1): ("21de3b2293743f076a59d5af97c2f1e1", 150),
    ("mod", 0): ("e41bd051855f03b278660c0b5e99c79e", 150),
    ("mod", 1): ("b0a313e598b148d8f5604941406de9a3", 150),
    ("tutel", 0): ("0816b6eb69b8e299151f931cd800f1be", 150),
    ("tutel", 1): ("0491e33e7b13ea2ed78c86f7a0737b46", 150),
    ("egeria", 0): ("de6f4bc6f0b0c3ba2ab1bddb019ddb71", 13),
    ("egeria", 1): ("edc2e60eac9905038f75a10c42c9d9bc", 10),
}

#: pin name -> (scenario, mode) of the baselines, which wrap the
#: scenario's scheme
_BASELINE_PINS = {"tutel": ("moe", "tutel"), "egeria": ("freezing", "egeria")}


def _pinned_scheme(name: str, seed: int = 0):
    """A fresh scheme of pin ``name``, built the way a run builds it."""
    scenario, mode = _BASELINE_PINS.get(name, (name, "megatron"))
    setup = build_scenario(
        scenario, num_layers=24, pp_stages=8, dp_ways=1, iterations=150, seed=seed
    )
    return make_scheme(setup, mode)


class TestStateTrajectoryPins:
    """Every scheme's 150-iteration state trajectory, bit for bit.

    Steps ``advance``, as the Trainer does, on the scenario's scheme
    (Tutel wraps the MoE one, Egeria the freezing one) and pins the
    fingerprint sequence, so a change to how schemes write their
    states cannot move a value or reorder a random draw unnoticed.
    """

    @pytest.mark.parametrize("name,seed", sorted(TRAJECTORY_PINS))
    def test_trajectory_pinned(self, name, seed):
        from repro.training.trainer import states_fingerprint

        scheme = _pinned_scheme(name, seed)
        states = scheme.initial_states()
        fps = []
        for k in range(150):
            scheme.advance(k, states)
            fps.append(states_fingerprint(states))
        assert len(set(fps)) >= 2  # the trajectory moves
        digest = hashlib.blake2b(b"".join(fps), digest_size=16).hexdigest()
        assert (digest, len(set(fps))) == TRAJECTORY_PINS[name, seed]


class TestReplayScheme:
    """A replay writes the recorded states, and bumps ``version``,
    exactly where the recorded scheme's step reported a change."""

    @pytest.mark.parametrize("name", sorted({name for name, _ in TRAJECTORY_PINS}))
    def test_replay_steps_the_schemes_trajectory(self, name):
        from repro.dynamics.base import ReplayScheme

        replay = ReplayScheme(_pinned_scheme(name), 150)
        scheme = _pinned_scheme(name)
        assert replay.rebalance_every == scheme.rebalance_every
        assert replay.per_iteration_overhead_s == scheme.per_iteration_overhead_s
        live, replayed = scheme.initial_states(), replay.initial_states()
        for k in range(150):
            before = live.tobytes()
            changed = scheme.advance(k, live)
            assert replay.advance(k, replayed) == changed
            assert replay.version == scheme.version
            assert replayed.tobytes() == live.tobytes()
            if not changed:
                # a step that reports no change writes nothing
                assert live.tobytes() == before

    @pytest.mark.parametrize("name", sorted(_BASELINE_PINS))
    def test_a_baseline_whose_inner_step_reports_no_change_writes_nothing(
        self, name, monkeypatch
    ):
        """MoE reports a change every step, so the replay test above
        never sees Tutel's no-change path: a wrapper passes its inner
        scheme's verdict on and writes nothing either."""
        scheme = _pinned_scheme(name)
        monkeypatch.setattr(scheme.scheme, "step", lambda k, states: False)
        states = scheme.initial_states()
        before = states.tobytes()
        assert not scheme.advance(0, states)
        assert states.tobytes() == before and scheme.version == 0

    def test_iterations_outside_the_recording_raise(self, gpt24_specs):
        from repro.dynamics.base import ReplayScheme

        replay = ReplayScheme(StaticScheme(gpt24_specs), 10)
        with pytest.raises(ValueError, match="outside the 10 recorded"):
            replay.step(10, replay.initial_states())

"""Tests for the DynMo controller and profiler."""

import numpy as np
import pytest

from repro.core import DynMoConfig, DynMoController, PipelineProfiler
from repro.core.controller import _PROFILE_OVERHEAD_FRAC
from repro.model.cost import LayerState, fresh_states
from repro.pipeline import PipelinePlan


class TestProfiler:
    def test_report_shapes(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        rep = PipelineProfiler(gpt24_cost).profile(plan, gpt24_states)
        assert rep.layer_fwd_s.shape == (26,)
        assert rep.layer_bwd_s.shape == (26,)
        assert rep.worker_memory.shape == (4,)
        assert (rep.layer_total_s == rep.layer_fwd_s + rep.layer_bwd_s).all()

    def test_weight_kinds(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        rep = PipelineProfiler(gpt24_cost).profile(plan, gpt24_states)
        assert (rep.weights("time") > 0).any()
        assert (rep.weights("param") > 0).any()
        with pytest.raises(ValueError):
            rep.weights("flops")

    def test_noise_perturbs(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        clean = PipelineProfiler(gpt24_cost, noise=0.0).profile(plan, gpt24_states)
        noisy = PipelineProfiler(gpt24_cost, noise=0.1, seed=1).profile(
            plan, gpt24_states
        )
        assert not np.allclose(clean.layer_fwd_s[1:-1], noisy.layer_fwd_s[1:-1])

    def test_pruned_params_reduced(self, gpt24_cost):
        states = fresh_states(26)
        states[1].sparsity = 0.9
        plan = PipelinePlan.uniform(26, 4)
        rep = PipelineProfiler(gpt24_cost).profile(plan, states)
        assert rep.layer_params[1] == pytest.approx(
            gpt24_cost.specs[1].param_count * 0.1
        )

    def test_negative_noise_raises(self, gpt24_cost):
        with pytest.raises(ValueError):
            PipelineProfiler(gpt24_cost, noise=-0.1)


class TestDynMoConfig:
    def test_defaults_valid(self):
        DynMoConfig()

    def test_invalid_balancer(self):
        with pytest.raises(ValueError):
            DynMoConfig(balancer="magic")

    def test_invalid_weight_by(self):
        with pytest.raises(ValueError):
            DynMoConfig(weight_by="flops")


class TestController:
    def _controller(self, cost, comm=None, **kw):
        return DynMoController(cost, comm, DynMoConfig(**kw))

    def test_should_invoke_cadence(self, gpt24_cost):
        ctl = self._controller(gpt24_cost)
        assert ctl.should_invoke(0, scheme_every=100)
        assert not ctl.should_invoke(50, scheme_every=100)
        assert ctl.should_invoke(100, scheme_every=100)

    def test_config_override_cadence(self, gpt24_cost):
        ctl = self._controller(gpt24_cost, rebalance_every=10)
        assert ctl.should_invoke(10, scheme_every=1000)
        assert not ctl.should_invoke(5, scheme_every=1000)

    def test_rebalances_skewed_model(self, gpt24_cost, comm):
        """Front-frozen model: controller must move layers backward."""
        states = fresh_states(26)
        for i in range(1, 13):
            states[i].frozen = True
            states[i].droppable_bwd = True
        plan = PipelinePlan.uniform(26, 4)
        ctl = self._controller(gpt24_cost, comm, balancer="partition")
        decision = ctl.rebalance(0, plan, states)
        assert decision.rebalanced
        assert decision.layers_moved > 0
        assert decision.plan != plan
        w = ctl.profiler.profile(decision.plan, states).weights("time")
        assert decision.plan.stage_loads(w).max() <= plan.stage_loads(w).max()

    def test_balanced_model_no_move(self, gpt24_cost, comm):
        states = fresh_states(26)
        plan = PipelinePlan.uniform(26, 2)
        ctl = self._controller(gpt24_cost, comm, balancer="diffusion")
        decision = ctl.rebalance(0, plan, states)
        # uniform dense split over 2 stages is near-balanced; diffusion
        # may make at most a marginal improvement without repacking
        assert decision.plan.num_stages == 2

    def test_overhead_accounted(self, gpt24_cost, comm):
        states = fresh_states(26)
        for i in range(1, 13):
            states[i].frozen = True
        ctl = self._controller(gpt24_cost, comm)
        d = ctl.rebalance(0, PipelinePlan.uniform(26, 4), states)
        # the profiled iteration's share of the previous makespan, plus
        # the measured balancer time and the migration, in that order
        assert d.layers_moved > 0 and d.migration_s > 0 and d.balance_s > 0
        assert d.overhead_s(1.0) == (
            _PROFILE_OVERHEAD_FRAC * 1.0 + d.balance_s + d.migration_s
        )
        assert d.overhead_s(1.0) > _PROFILE_OVERHEAD_FRAC * 1.0
        # nothing moves on one stage: no migration term
        still = ctl.rebalance(1, PipelinePlan.uniform(26, 1), states)
        assert still.migration_s is None
        assert still.overhead_s(2.0) == _PROFILE_OVERHEAD_FRAC * 2.0 + still.balance_s

    def test_repack_shrinks_plan(self, gpt24_cost, comm):
        """Heavily pruned model on generous memory: repack must fire."""
        states = fresh_states(26)
        for s in states[1:-1]:
            s.sparsity = 0.95
        plan = PipelinePlan.uniform(26, 8)
        rep = PipelineProfiler(gpt24_cost).profile(plan, states)
        capacity = float(rep.worker_memory.sum())  # everything fits on one
        ctl = self._controller(
            gpt24_cost,
            comm,
            repack=True,
            repack_target_workers=2,
            memory_capacity_bytes=capacity,
        )
        # first invocation on the dense model sets the compute baseline
        d0 = ctl.rebalance(0, plan, fresh_states(26))
        assert not d0.repacked  # dense model has not shrunk yet
        d = ctl.rebalance(1, plan, states)
        assert d.repacked
        assert d.plan.num_stages < 8


class TestBalancerFailure:
    def test_balancer_exception_leaves_controller_usable(self, gpt24_cost, comm):
        """A crashing balancer propagates, and the next invocation with
        a healthy balancer works."""

        from repro.core.balancers.base import LoadBalancer

        class Boom(LoadBalancer):
            def rebalance(self, plan, weights, memory_per_layer=None,
                          memory_capacity=None):
                raise RuntimeError("boom")

        ctl = DynMoController(
            gpt24_cost, comm, DynMoConfig(), balancer_override=Boom()
        )
        plan = PipelinePlan.uniform(26, 4)
        with pytest.raises(RuntimeError, match="boom"):
            ctl.rebalance(0, plan, fresh_states(26))
        ctl.balancer_override = None
        d = ctl.rebalance(1, plan, fresh_states(26))
        assert d.plan.num_stages == 4

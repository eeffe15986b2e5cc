"""Cross-module integration tests: the full DynMo story end to end."""

import pytest

from repro.baselines.megatron import megatron_uniform_plan
from repro.core import (
    DPExactBalancer,
    DynMoConfig,
    DynMoController,
    PipelineProfiler,
)
from repro.dynamics import (
    EarlyExitDynamism,
    FreezingDynamism,
    PruningDynamism,
)
from repro.dynamics.pruning import GradualPruningSchedule
from repro.model.config import GPTConfig
from repro.model.cost import ModelCost, build_layer_specs
from repro.pipeline import PipelineEngine, PipelinePlan
from repro.training import Trainer, TrainingConfig


class TestBalancedVsOracle:
    """DynMo's online plans should track the per-iteration oracle."""

    def test_partition_tracks_oracle_under_pruning(self, gpt24_cost, gpt24_specs, comm):
        sched = GradualPruningSchedule(start_iter=5, end_iter=45, prune_every=10)
        scheme = PruningDynamism(gpt24_specs, schedule=sched, seed=0)
        states = scheme.initial_states()
        plan = megatron_uniform_plan(gpt24_specs, 8)
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        profiler = PipelineProfiler(gpt24_cost)
        oracle = DPExactBalancer()
        for k in range(50):
            scheme.step(k, states)
            if k % 10 == 0:
                plan = ctl.rebalance(k, plan, states).plan
                w = profiler.profile(plan, states).weights("time")
                best = oracle.rebalance(PipelinePlan.uniform(26, 8), w)
                got = plan.stage_loads(w).max()
                assert got <= best.loads_after.max() * 1.001

    def test_every_scenario_dynmo_not_worse(self, comm):
        """Across dynamism types, DynMo never ends up slower than the
        static plan it started from (net of overhead)."""
        specs = build_layer_specs(
            GPTConfig("int", num_layers=16, hidden=512, num_heads=8, seq_len=512, vocab_size=8192)
        )
        cost = ModelCost(specs)
        factories = [
            lambda: FreezingDynamism(specs, freeze_every=10, tau0=15, seed=0),
            lambda: EarlyExitDynamism(specs, ramp_iters=30, seed=0),
        ]
        for factory in factories:
            cfg = TrainingConfig(iterations=60, seq_len=512, pp_stages=4, dp_ways=1)
            static = Trainer(cfg, cost, factory(), comm=comm).run()
            ctl = DynMoController(cost, comm, DynMoConfig(balancer="partition"))
            dyn = Trainer(cfg, cost, factory(), comm=comm, controller=ctl).run()
            assert dyn.tokens_per_s >= static.tokens_per_s * 0.99


class TestActivationCheckpointing:
    def test_tradeoff(self, gpt24_specs):
        base = ModelCost(gpt24_specs)
        ckpt = ModelCost(gpt24_specs, activation_recompute=True)
        from repro.model.cost import BYTE_FIELDS, fresh_states

        states = fresh_states(len(gpt24_specs))[None]
        base_fwd, base_bwd, _ = (t[0, 1] for t in base.layer_times(states))
        ckpt_bwd = ckpt.layer_times(states)[1][0, 1]
        # slower backward...
        assert ckpt_bwd > base_bwd
        assert ckpt_bwd == pytest.approx(base_bwd + base_fwd)
        # ...but less activation memory in flight
        act = BYTE_FIELDS.index("activation")
        assert ckpt.layer_bytes(states, 8)[act, 0, 1] < base.layer_bytes(
            states, 8
        )[act, 0, 1]

    def test_enables_tighter_repack(self, gpt24_specs):
        """Checkpointing shrinks worker memory, letting re-packing fold
        further under the same capacity."""
        from repro.core.repack import repack_plan
        from repro.model.cost import fresh_states

        states = fresh_states(26)
        plan = PipelinePlan.uniform(26, 8)
        base_mem = PipelineProfiler(ModelCost(gpt24_specs), in_flight=8).profile(
            plan, states
        ).worker_memory
        ckpt_mem = PipelineProfiler(
            ModelCost(gpt24_specs, activation_recompute=True), in_flight=8
        ).profile(plan, states).worker_memory
        assert ckpt_mem.sum() < base_mem.sum()
        capacity = float(base_mem.max() * 2.5)
        _, res_base = repack_plan(plan, base_mem, capacity)
        _, res_ckpt = repack_plan(plan, ckpt_mem, capacity)
        assert res_ckpt.num_active <= res_base.num_active

"""Tests for extensions: hardware variability, hetero balancing,
composite dynamism, traces."""

import numpy as np
import pytest

from repro.cluster.variability import GPUVariability
from repro.core.balancers.hetero import HeteroPartitionBalancer, dp_partition_hetero
from repro.dynamics import (
    EarlyExitDynamism,
    FreezingDynamism,
    MoDDynamism,
    PruningDynamism,
    SparseAttentionDynamism,
)
from repro.dynamics.composite import CompositeDynamism
from repro.dynamics.pruning import GradualPruningSchedule
from repro.model.cost import fresh_states, state_matrix
from repro.pipeline import PipelineEngine, PipelinePlan
from repro.training.trace import TraceRecorder, TrainingTrace


class TestGPUVariability:
    def test_speeds_positive_and_drift(self):
        var = GPUVariability(8, seed=0)
        s0 = var.speeds().copy()
        s1 = var.step()
        assert (s0 > 0).all() and (s1 > 0).all()
        assert not np.allclose(s0, s1)
        assert var.spread() >= 1.0

    def test_zero_sigma_uniform(self):
        var = GPUVariability(4, binning_sigma=0.0, thermal_sigma=0.0)
        assert np.allclose(var.speeds(), 1.0)
        var.step()
        assert np.allclose(var.speeds(), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUVariability(0)
        with pytest.raises(ValueError):
            GPUVariability(2, binning_sigma=-1)


class TestHeteroBalancer:
    def test_equal_speeds_match_homogeneous(self, rng):
        w = rng.random(16) + 0.1
        plan = dp_partition_hetero(w, np.ones(4))
        from repro.core.balancers.dpexact import dp_partition

        homo, _ = dp_partition(w, 4)
        assert plan.stage_loads(w).max() == pytest.approx(
            homo.stage_loads(w).max()
        )

    def test_slow_worker_gets_less(self):
        w = np.ones(12)
        speeds = np.array([1.0, 1.0, 0.5])  # worker 2 at half speed
        plan = dp_partition_hetero(w, speeds)
        sizes = plan.stage_sizes()
        assert sizes[2] < sizes[0]

    def test_balancer_reduces_time_bottleneck(self, rng):
        w = rng.random(20) + 0.1
        speeds = np.array([1.0, 0.9, 1.1, 0.7])
        bal = HeteroPartitionBalancer(speeds)
        start = PipelinePlan.uniform(20, 4)
        res = bal.rebalance(start, w)
        assert res.loads_after.max() <= res.loads_before.max() + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_partition_hetero(np.ones(4), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            HeteroPartitionBalancer(np.array([0.0]))
        bal = HeteroPartitionBalancer(np.ones(3))
        with pytest.raises(ValueError):
            bal.rebalance(PipelinePlan.uniform(8, 4), np.ones(8))

    def test_engine_worker_speeds(self, gpt24_cost, gpt24_states):
        """A slow worker must slow the simulated iteration."""
        plan = PipelinePlan.uniform(26, 4)
        fast = PipelineEngine(gpt24_cost, None, num_micro=8)
        speeds = np.array([1.0, 1.0, 1.0, 0.5])
        slow = PipelineEngine(gpt24_cost, None, num_micro=8, worker_speeds=speeds)
        assert (
            slow.run_iteration(plan, gpt24_states).makespan
            > fast.run_iteration(plan, gpt24_states).makespan
        )

    def test_engine_speed_validation(self, gpt24_cost):
        with pytest.raises(ValueError):
            PipelineEngine(gpt24_cost, worker_speeds=np.array([1.0, 0.0]))

    def test_hetero_rebalance_beats_uniform_on_engine(self, gpt24_cost, gpt24_states):
        """End-to-end: speed-aware plan beats uniform on a skewed cluster."""
        speeds = np.array([1.0, 1.0, 1.0, 0.6])
        eng = PipelineEngine(gpt24_cost, None, num_micro=16, worker_speeds=speeds)
        uniform = PipelinePlan.uniform(26, 4)
        fwd, bwd, _ = gpt24_cost.layer_times(state_matrix([gpt24_states]))
        w = fwd[0] + bwd[0]
        balanced = HeteroPartitionBalancer(speeds).rebalance(uniform, w).plan
        t_uni = eng.run_iteration(uniform, gpt24_states).makespan
        t_bal = eng.run_iteration(balanced, gpt24_states).makespan
        assert t_bal < t_uni


class TestComposite:
    def test_freezing_plus_pruning(self, gpt24_specs):
        sched = GradualPruningSchedule(start_iter=10, end_iter=40, prune_every=10)
        comp = CompositeDynamism(
            [
                FreezingDynamism(gpt24_specs, freeze_every=10, tau0=20, seed=0),
                PruningDynamism(gpt24_specs, schedule=sched, seed=0),
            ]
        )
        states = comp.initial_states()
        changed = 0
        for k in range(60):
            changed += comp.step(k, states)
        assert changed > 1
        assert any(s.frozen for s in states)
        assert any(s.sparsity > 0 for s in states)
        assert comp.rebalance_every == 10

    def test_conflicting_fields_rejected(self, gpt24_specs):
        with pytest.raises(ValueError):
            CompositeDynamism(
                [
                    EarlyExitDynamism(gpt24_specs, seed=0),
                    MoDDynamism(gpt24_specs, seed=0),  # both write token_fraction
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeDynamism([])

    def test_name_and_cadence(self, gpt24_specs):
        comp = CompositeDynamism(
            [
                SparseAttentionDynamism(gpt24_specs, seed=0),
                FreezingDynamism(gpt24_specs, seed=0),
            ]
        )
        assert comp.rebalance_every == 1
        assert "sparse_attention" in comp.name and "freezing" in comp.name

    def test_composite_trains_with_dynmo(self, gpt24_cost, gpt24_specs, comm):
        from repro.core import DynMoConfig, DynMoController
        from repro.training import Trainer, TrainingConfig

        sched = GradualPruningSchedule(start_iter=5, end_iter=25, prune_every=5)
        comp = CompositeDynamism(
            [
                FreezingDynamism(gpt24_specs, freeze_every=5, tau0=10, seed=0),
                PruningDynamism(gpt24_specs, schedule=sched, seed=0),
            ]
        )
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        cfg = TrainingConfig(iterations=40, pp_stages=4, dp_ways=1)
        res = Trainer(cfg, gpt24_cost, comp, comm=comm, controller=ctl).run()
        assert res.tokens_per_s > 0
        assert res.layers_moved > 0


class TestTrace:
    def _make_trace(self, cost, states, iters=5):
        rec = TraceRecorder(every=1)
        plan = PipelinePlan.uniform(26, 4)
        eng = PipelineEngine(cost, None, num_micro=4)
        for k in range(iters):
            res = eng.run_iteration(plan, states)
            rec.record(k, plan, states, res.makespan, res.bubble_ratio())
        return rec.trace

    def test_roundtrip(self, tmp_path, gpt24_cost, gpt24_states):
        trace = self._make_trace(gpt24_cost, gpt24_states)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrainingTrace.load(path)
        assert len(loaded) == len(trace)
        assert loaded.records[0].boundaries == trace.records[0].boundaries
        assert loaded.records[2].makespan == pytest.approx(
            trace.records[2].makespan
        )

    def test_replay_matches(self, gpt24_cost, gpt24_states):
        trace = self._make_trace(gpt24_cost, gpt24_states)
        eng = PipelineEngine(gpt24_cost, None, num_micro=4)
        makespans = trace.replay(eng)
        assert makespans[0] == pytest.approx(trace.records[0].makespan)

    def test_replay_other_schedule_differs(self, gpt24_cost, gpt24_states):
        trace = self._make_trace(gpt24_cost, gpt24_states)
        zb = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=4)
        replayed = trace.replay(zb)
        assert replayed[0] <= trace.records[0].makespan + 1e-12

    def test_recorder_every(self, gpt24_cost, gpt24_states):
        rec = TraceRecorder(every=2)
        plan = PipelinePlan.uniform(26, 2)
        for k in range(6):
            rec.record(k, plan, gpt24_states, 0.1, 0.2)
        assert len(rec.trace) == 3
        with pytest.raises(ValueError):
            TraceRecorder(every=0)

    def test_plan_changes_counter(self, gpt24_states, gpt24_cost):
        rec = TraceRecorder()
        a = PipelinePlan.uniform(26, 4)
        b = a.move_boundary(1, 1)
        for k, plan in enumerate([a, a, b, b, a]):
            rec.record(k, plan, gpt24_states, 0.0, 0.0)
        assert rec.trace.plan_changes() == 2

    def test_trainer_integration(self, gpt24_cost, gpt24_specs):
        from repro.dynamics import StaticScheme
        from repro.training import Trainer, TrainingConfig

        rec = TraceRecorder(every=1)
        cfg = TrainingConfig(iterations=5, pp_stages=4, dp_ways=1)
        Trainer(
            cfg, gpt24_cost, StaticScheme(gpt24_specs), trace_recorder=rec
        ).run()
        assert len(rec.trace) == 5
        assert rec.trace.bubble_series().shape == (5,)


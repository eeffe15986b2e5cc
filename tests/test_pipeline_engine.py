"""Tests for the discrete-event pipeline engine."""

import numpy as np
import pytest

from repro.model.cost import ModelCost, fresh_states, state_matrix
from repro.pipeline import PipelineEngine, PipelinePlan
from repro.pipeline.migration import diff_plans


class TestEngineBasics:
    def _engine(self, cost, comm=None, **kw):
        defaults = dict(schedule="1f1b", num_micro=8)
        defaults.update(kw)
        return PipelineEngine(cost, comm, **defaults)

    def test_makespan_positive(self, gpt24_cost, gpt24_states):
        eng = self._engine(gpt24_cost)
        plan = PipelinePlan.uniform(26, 4)
        res = eng.run_iteration(plan, gpt24_states)
        assert res.makespan > 0
        assert res.num_workers == 4

    def test_single_stage_no_bubble(self, gpt24_cost, gpt24_states):
        """One stage = sequential execution, no pipeline bubbles."""
        eng = self._engine(gpt24_cost)
        plan = PipelinePlan.uniform(26, 1)
        res = eng.run_iteration(plan, gpt24_states)
        assert res.bubble_ratio() == pytest.approx(0.0, abs=1e-9)

    def test_makespan_lower_bound(self, gpt24_cost, gpt24_states):
        """Makespan >= busiest worker's compute."""
        eng = self._engine(gpt24_cost)
        plan = PipelinePlan.uniform(26, 4)
        res = eng.run_iteration(plan, gpt24_states)
        assert res.makespan >= res.busy.max() - 1e-12

    def test_busy_equals_work(self, gpt24_cost, gpt24_states):
        """Sum of busy time = total layer compute x micro-batches."""
        eng = self._engine(gpt24_cost, num_micro=4)
        plan = PipelinePlan.uniform(26, 4)
        res = eng.run_iteration(plan, gpt24_states)
        fwd, bwd, _ = gpt24_cost.layer_times(state_matrix([gpt24_states]))
        per_micro = fwd.sum() + bwd.sum()
        assert res.busy.sum() == pytest.approx(4 * per_micro, rel=1e-9)

    def test_more_micro_batches_reduce_bubble(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        b_small = self._engine(gpt24_cost, num_micro=4).run_iteration(
            plan, gpt24_states
        )
        b_big = self._engine(gpt24_cost, num_micro=32).run_iteration(
            plan, gpt24_states
        )
        assert b_big.bubble_ratio() < b_small.bubble_ratio()

    def test_zb_beats_1f1b(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        t_1f1b = self._engine(gpt24_cost, schedule="1f1b").run_iteration(
            plan, gpt24_states
        )
        t_zb = self._engine(gpt24_cost, schedule="zb").run_iteration(
            plan, gpt24_states
        )
        assert t_zb.makespan <= t_1f1b.makespan + 1e-12
        assert t_zb.busy.sum() == pytest.approx(t_1f1b.busy.sum())

    def test_gpipe_not_faster_than_1f1b(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        g = self._engine(gpt24_cost, schedule="gpipe").run_iteration(plan, gpt24_states)
        f = self._engine(gpt24_cost, schedule="1f1b").run_iteration(plan, gpt24_states)
        assert f.makespan <= g.makespan + 1e-12

    def test_comm_increases_makespan(self, gpt24_cost, gpt24_states, comm):
        plan = PipelinePlan.uniform(26, 4)
        no_comm = self._engine(gpt24_cost, None).run_iteration(plan, gpt24_states)
        with_comm = self._engine(gpt24_cost, comm).run_iteration(plan, gpt24_states)
        assert with_comm.makespan > no_comm.makespan

    def test_dp_allreduce_adds_time(self, gpt24_cost, gpt24_states, comm):
        plan = PipelinePlan.uniform(26, 4)
        dp1 = self._engine(gpt24_cost, comm, dp_ways=1).run_iteration(
            plan, gpt24_states
        )
        dp4 = self._engine(gpt24_cost, comm, dp_ways=4).run_iteration(
            plan, gpt24_states
        )
        assert dp4.makespan > dp1.makespan
        assert dp4.comm_extra > 0

    def test_frozen_layers_no_dp_traffic(self, gpt24_cost, comm):
        states = fresh_states(26)
        for s in states:
            s.frozen = True
        eng = self._engine(gpt24_cost, comm, dp_ways=4)
        res = eng.run_iteration(PipelinePlan.uniform(26, 4), states)
        assert res.comm_extra == 0.0

    def test_timeline_recorded(self, gpt24_cost, gpt24_states):
        eng = PipelineEngine(gpt24_cost, None, schedule="1f1b", num_micro=2, record_timeline=True)
        res = eng.run_iteration(PipelinePlan.uniform(26, 2), gpt24_states)
        assert len(res.timeline) == 2 * 2 * 2  # 2 stages x 2 micro x (F+B)
        for s, kind, m, t0, t1 in res.timeline:
            assert t1 >= t0

    def test_timeline_no_worker_overlap(self, gpt24_cost, gpt24_states):
        eng = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=4, record_timeline=True)
        res = eng.run_iteration(PipelinePlan.uniform(26, 4), gpt24_states)
        by_worker = {}
        for s, kind, m, t0, t1 in res.timeline:
            by_worker.setdefault(s, []).append((t0, t1))
        for spans in by_worker.values():
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert b0 >= a1 - 1e-9

    def test_imbalanced_load_creates_bubbles(self, gpt24_cost):
        """An artificially heavy stage must raise the bubble ratio."""
        states = fresh_states(26)
        balanced = self._engine(gpt24_cost, num_micro=16).run_iteration(
            PipelinePlan.uniform(26, 4), states
        )
        for i in range(1, 7):  # first stage's layers get 3x FFN work
            states[i].moe_multiplier = 3.0
        skewed = self._engine(gpt24_cost, num_micro=16).run_iteration(
            PipelinePlan.uniform(26, 4), states
        )
        assert skewed.bubble_ratio() > balanced.bubble_ratio()
        assert skewed.imbalance() > balanced.imbalance()

    def test_invalid_construction(self, gpt24_cost):
        with pytest.raises(ValueError):
            PipelineEngine(gpt24_cost, num_micro=0)
        with pytest.raises(ValueError):
            PipelineEngine(gpt24_cost, dp_ways=0)

    def test_state_length_mismatch(self, gpt24_cost):
        eng = self._engine(gpt24_cost)
        with pytest.raises(ValueError):
            eng.run_iteration(PipelinePlan.uniform(26, 2), fresh_states(5))

    def test_throughput_helper(self, gpt24_cost, gpt24_states):
        eng = self._engine(gpt24_cost)
        tps = eng.throughput_tokens_per_s(
            PipelinePlan.uniform(26, 4), gpt24_states, tokens_per_micro=4096
        )
        assert tps > 0


class TestMigration:
    def test_diff_identical_plans_empty(self, gpt24_cost, gpt24_states):
        plan = PipelinePlan.uniform(26, 4)
        mig = diff_plans(plan, plan, gpt24_cost, gpt24_states)
        assert mig.num_layers_moved == 0
        assert mig.total_bytes == 0

    def test_diff_boundary_move(self, gpt24_cost, gpt24_states):
        a = PipelinePlan.from_stage_sizes([13, 13])
        b = PipelinePlan.from_stage_sizes([12, 14])
        mig = diff_plans(a, b, gpt24_cost, gpt24_states)
        assert mig.num_layers_moved == 1
        assert mig.transfers[0].layer == 12
        assert mig.transfers[0].src_stage == 0
        assert mig.transfers[0].dst_stage == 1

    def test_diff_repack(self, gpt24_cost, gpt24_states):
        a = PipelinePlan.uniform(26, 4)
        b = PipelinePlan.uniform(26, 2)
        mig = diff_plans(a, b, gpt24_cost, gpt24_states)
        assert mig.num_layers_moved > 0

    def test_diff_length_mismatch(self, gpt24_cost, gpt24_states):
        with pytest.raises(ValueError):
            diff_plans(
                PipelinePlan.uniform(26, 2),
                PipelinePlan.uniform(25, 2),
                gpt24_cost,
                gpt24_states,
            )

    def test_migration_cost_overlap(self, gpt24_cost, gpt24_states, comm):
        a = PipelinePlan.from_stage_sizes([13, 13])
        b = PipelinePlan.from_stage_sizes([10, 16])
        mig = diff_plans(a, b, gpt24_cost, gpt24_states)
        full = mig.cost_seconds(comm, overlap=0.0)
        hidden = mig.cost_seconds(comm, overlap=0.9)
        assert hidden == pytest.approx(full * 0.1)
        assert mig.cost_seconds(None) == 0.0
        with pytest.raises(ValueError):
            mig.cost_seconds(comm, overlap=1.5)

    def test_layer_bytes_pruned_smaller(self, gpt24_cost, gpt24_states):
        """A pruned layer ships fewer bytes when it migrates."""
        a = PipelinePlan.from_stage_sizes([13, 13])
        b = PipelinePlan.from_stage_sizes([10, 16])
        sparse = [s.copy() for s in gpt24_states]
        sparse[11].sparsity = 0.9
        dense = diff_plans(a, b, gpt24_cost, gpt24_states).transfers
        pruned = diff_plans(a, b, gpt24_cost, sparse).transfers
        assert [t.layer for t in dense] == [10, 11, 12]
        assert pruned[1].nbytes < dense[1].nbytes
        assert pruned[0].nbytes == dense[0].nbytes

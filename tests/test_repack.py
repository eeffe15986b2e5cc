"""Tests for Algorithm 2 (first-fit re-packing) and repack_plan."""

import numpy as np
import pytest

from repro.core.repack import RepackResult, first_fit_repack, repack_plan
from repro.pipeline import PipelinePlan


class TestFirstFitRepack:
    def test_merges_when_memory_allows(self):
        res = first_fit_repack([10.0, 10.0, 10.0, 10.0], [2, 2, 2, 2], max_mem=25.0)
        assert res.num_active < 4
        assert res.transfers  # layers actually moved

    def test_no_merge_when_memory_tight(self):
        res = first_fit_repack([20.0, 20.0], [3, 3], max_mem=25.0)
        assert res.num_active == 2
        assert res.transfers == []

    def test_respects_target_floor(self):
        res = first_fit_repack([1.0] * 8, [1] * 8, max_mem=100.0, target_num_workers=4)
        assert res.num_active == 4

    def test_memory_conserved(self):
        mem = [5.0, 7.0, 3.0, 4.0]
        res = first_fit_repack(mem, [1, 1, 1, 1], max_mem=100.0, target_num_workers=1)
        assert sum(res.mem_usage) == pytest.approx(sum(mem))
        active_mem = [m for m, a in zip(res.mem_usage, res.active_workers) if a]
        assert all(m <= 100.0 for m in active_mem)

    def test_transfer_list_structure(self):
        res = first_fit_repack([1.0, 1.0], [3, 2], max_mem=10.0, target_num_workers=1)
        # src 0 merged into dst 1: 3 layer transfers
        assert res.active_workers == [0, 1]
        assert [(s, d) for s, d, _ in res.transfers] == [(0, 1)] * 3
        assert [l for _, _, l in res.transfers] == [0, 1, 2]

    def test_greedy_first_fit_order(self):
        """Algorithm 2 scans (src, dst) pairs in index order: worker 0
        merges into worker 1 first."""
        res = first_fit_repack([2.0, 2.0, 2.0], [1, 1, 1], max_mem=5.0, target_num_workers=1)
        assert res.active_workers[0] == 0
        assert res.mem_usage[1] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            first_fit_repack([1.0], [1, 2], max_mem=10)
        with pytest.raises(ValueError):
            first_fit_repack([1.0], [1], max_mem=0)
        with pytest.raises(ValueError):
            first_fit_repack([1.0], [1], max_mem=1, target_num_workers=0)


class TestRepackPlan:
    def test_shrinks_stage_count(self):
        plan = PipelinePlan.uniform(16, 8)
        mem = np.full(8, 10.0)
        new_plan, res = repack_plan(plan, mem, max_mem=25.0, target_num_workers=2)
        assert new_plan.num_stages == res.num_active
        assert new_plan.num_stages < 8
        assert new_plan.num_layers == 16

    def test_no_change_when_tight(self):
        plan = PipelinePlan.uniform(16, 4)
        mem = np.full(4, 30.0)
        new_plan, res = repack_plan(plan, mem, max_mem=50.0)
        assert new_plan == plan
        assert res.num_active == 4

    def test_wrong_memory_length_raises(self):
        plan = PipelinePlan.uniform(8, 4)
        with pytest.raises(ValueError):
            repack_plan(plan, np.ones(3), max_mem=10.0)

    def test_target_of_one_fully_packs(self):
        plan = PipelinePlan.uniform(8, 4)
        new_plan, res = repack_plan(plan, np.full(4, 1.0), max_mem=100.0, target_num_workers=1)
        assert new_plan.num_stages == 1

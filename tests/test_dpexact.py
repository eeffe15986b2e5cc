"""Tests for the exact DP balancer and its Pareto row."""

import numpy as np
import pytest

from repro.core import DPExactBalancer, PartitionBalancer
from repro.core.balancers.dpexact import dp_partition
from repro.core.balancers.partition import partition_balanced
from repro.pipeline import PipelinePlan


class TestDPPartition:
    def test_matches_partition_balancer(self, rng):
        for seed in range(4):
            w = np.random.default_rng(seed).random(24) + 0.01
            plan_dp, _ = dp_partition(w, 6)
            plan_bs = PartitionBalancer().rebalance(PipelinePlan.uniform(24, 6), w).plan
            assert plan_dp.stage_loads(w).max() == pytest.approx(
                plan_bs.stage_loads(w).max(), rel=1e-9
            )

    def test_pareto_row_monotone(self, rng):
        """Optimal bottleneck is non-increasing in stage count."""
        w = rng.random(20) + 0.1
        _, pareto = dp_partition(w, 8)
        assert len(pareto) == 8
        assert all(b <= a + 1e-12 for a, b in zip(pareto, pareto[1:]))
        assert pareto[0] == pytest.approx(w.sum())

    def test_pareto_row_matches_partition(self, rng):
        """Each Pareto entry is the bottleneck the partition balancer
        reaches at that stage count."""
        w = rng.random(16) + 0.1
        _, pareto = dp_partition(w, 8)
        for s, bottleneck in enumerate(pareto, start=1):
            got = partition_balanced(w, s).stage_loads(w).max()
            assert got == pytest.approx(bottleneck, rel=1e-9)

    def test_memory_constraint(self):
        w = np.ones(8)
        mem = np.ones(8)
        plan, _ = dp_partition(w, 4, memory=mem, capacity=2.0)
        assert max(plan.stage_sizes()) <= 2

    def test_memory_infeasible_raises(self):
        with pytest.raises(ValueError):
            dp_partition(np.ones(4), 2, memory=np.full(4, 5.0), capacity=4.0)

    def test_memory_without_capacity_ignored(self):
        plan, _ = dp_partition(np.ones(4), 2, memory=np.full(4, 1e18))
        assert plan.num_stages == 2  # no capacity -> memory irrelevant

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            dp_partition(np.ones(3), 0)
        with pytest.raises(ValueError):
            dp_partition(np.ones(3), 4)


class TestDPExactBalancer:
    def test_never_worse(self, rng):
        w = rng.random(20)
        res = DPExactBalancer().rebalance(PipelinePlan.uniform(20, 5), w)
        assert res.loads_after.max() <= res.loads_before.max() + 1e-12

    def test_controller_accepts_dp(self, gpt24_cost, comm):
        from repro.core import DynMoConfig, DynMoController
        from repro.model.cost import fresh_states

        states = fresh_states(26)
        for i in range(1, 10):
            states[i].frozen = True
            states[i].droppable_bwd = True
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="dp"))
        d = ctl.rebalance(0, PipelinePlan.uniform(26, 4), states)
        assert d.rebalanced

"""Tests for the explicit stage→rank placement layer."""

import numpy as np
import pytest

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import (
    Placement,
    make_placement,
    node_interleaved_order,
)
from repro.cluster.topology import GPU_MODELS, hetero_cluster
from repro.core.controller import DynMoConfig, DynMoController
from repro.core.profiler import PipelineProfiler
from repro.core.repack import first_fit_repack
from repro.model.cost import SPARSITY, fresh_states
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.migration import LayerTransfer, MigrationPlan
from repro.pipeline.plan import PipelinePlan


class TestStrategies:
    def test_packed(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4, dp_ways=2, strategy="packed")
        assert p.stage_ranks(0) == (0, 1, 2, 3)
        assert p.stage_ranks(1) == (4, 5, 6, 7)
        assert p.dp_group(0) == (0, 4)
        assert p.dp_ways == 2 and p.num_stages == 4

    def test_dp_outer(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4, dp_ways=2, strategy="dp-outer")
        assert p.dp_group(0) == (0, 1)
        assert p.dp_group(3) == (6, 7)
        assert p.stage_ranks(0) == (0, 2, 4, 6)

    def test_scattered_round_robins_nodes(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4, strategy="scattered")
        ranks = p.stage_ranks()
        nodes = [small_cluster.node_of(r) for r in ranks]
        # adjacent stages always land on different nodes
        assert all(a != b for a, b in zip(nodes, nodes[1:]))

    def test_interleave_handles_uneven_nodes(self):
        topo = hetero_cluster([3, 1])
        assert node_interleaved_order(topo) == [0, 3, 1, 2]

    def test_unknown_strategy_raises(self, small_cluster):
        with pytest.raises(ValueError, match="strategy"):
            make_placement(small_cluster, 2, strategy="zigzag")

    def test_cluster_too_small_raises(self, small_cluster):
        with pytest.raises(ValueError, match="needs"):
            make_placement(small_cluster, num_stages=8, dp_ways=2)


class TestValidation:
    def test_duplicate_rank_rejected(self, small_cluster):
        with pytest.raises(ValueError, match="twice"):
            Placement(small_cluster, ((0,), (0,)))

    def test_out_of_range_rank_rejected(self, small_cluster):
        with pytest.raises(ValueError, match="out of range"):
            Placement(small_cluster, ((0,), (99,)))

    def test_ragged_grid_rejected(self, small_cluster):
        with pytest.raises(ValueError, match="replicas"):
            Placement(small_cluster, ((0, 1), (2,)))


class TestAfterRepack:
    def test_surviving_ranks_kept(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4)
        q = p.after_repack([1, 3])
        assert q.stage_ranks() == (1, 3)
        assert q.strategy == p.strategy
        assert p.released_ranks([1, 3]) == (0, 2)

    def test_chained_repacks_compose(self, small_cluster):
        p = make_placement(small_cluster, num_stages=8)
        q = p.after_repack([1, 3, 5, 7]).after_repack([0, 2])
        assert q.stage_ranks() == (1, 5)

    def test_empty_or_unsorted_rejected(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4)
        with pytest.raises(ValueError):
            p.after_repack([])
        with pytest.raises(ValueError):
            p.after_repack([3, 1])


class TestHeterogeneousSpeeds:
    def test_worker_speeds_follow_devices(self):
        topo = hetero_cluster(
            [4, 4], gpus=[GPU_MODELS["h100"], GPU_MODELS["a100"]]
        )
        p = make_placement(topo, num_stages=8)
        speeds = p.worker_speeds()
        assert np.allclose(speeds[:4], 1.0)
        assert np.all(speeds[4:] < 0.5)

    def test_uniform_non_reference_cluster_is_slower(self, gpt24_cost, gpt24_states):
        """A homogeneous A100 cluster must not simulate at H100 speed."""
        plan = PipelinePlan.uniform(26, 8)

        def makespan(model):
            topo = hetero_cluster([4, 4], gpus=[GPU_MODELS[model]] * 2)
            eng = PipelineEngine(
                gpt24_cost, None, num_micro=8, placement=make_placement(topo, 8)
            )
            return eng.run_iteration(plan, gpt24_states).makespan

        assert makespan("a100") > 2 * makespan("h100")

    def test_engine_slows_down_on_mixed_devices(self, gpt24_cost, gpt24_states):
        fast = hetero_cluster([4, 4])
        slow = hetero_cluster([4, 4], gpus=[GPU_MODELS["h100"], GPU_MODELS["a100"]])
        plan = PipelinePlan.uniform(26, 8)
        t_fast = PipelineEngine(
            gpt24_cost, None, num_micro=8,
            placement=make_placement(fast, 8),
        ).run_iteration(plan, gpt24_states)
        t_slow = PipelineEngine(
            gpt24_cost, None, num_micro=8,
            placement=make_placement(slow, 8),
        ).run_iteration(plan, gpt24_states)
        assert t_slow.makespan > t_fast.makespan


class TestEngineWithPlacement:
    def test_intra_vs_inter_node_makespan_differs(
        self, gpt24_cost, gpt24_states, comm
    ):
        """The same plan priced under packed vs scattered placement."""
        plan = PipelinePlan.uniform(26, 4)
        packed = PipelineEngine(
            gpt24_cost, comm, num_micro=8,
            placement=make_placement(comm.topology, 4, strategy="packed"),
        ).run_iteration(plan, gpt24_states)
        scattered = PipelineEngine(
            gpt24_cost, comm, num_micro=8,
            placement=make_placement(comm.topology, 4, strategy="scattered"),
        ).run_iteration(plan, gpt24_states)
        assert scattered.makespan > packed.makespan

    def test_dp_allreduce_uses_placement_groups(
        self, gpt24_cost, gpt24_states, comm
    ):
        """dp-outer keeps the gradient all-reduce on NVLink."""
        plan = PipelinePlan.uniform(26, 4)

        def run(strategy):
            eng = PipelineEngine(
                gpt24_cost, comm, num_micro=8, dp_ways=2,
                placement=make_placement(comm.topology, 4, 2, strategy),
            )
            return eng.run_iteration(plan, gpt24_states)

        assert run("dp-outer").comm_extra < run("packed").comm_extra

    def test_edge_cost_is_worst_replica(self, gpt24_cost):
        """DP replicas run in lockstep: a pipeline hop costs what the
        worst-placed replica pays (replica 1's 5→6 hop crosses nodes
        even though replica 0's 1→2 hop stays on NVLink)."""
        topo = hetero_cluster([6, 2])
        comm = CommCostModel(topo)
        eng = PipelineEngine(
            gpt24_cost, comm, num_micro=8, dp_ways=2,
            placement=make_placement(topo, 4, dp_ways=2, strategy="packed"),
        )
        nbytes = 1e8
        assert eng._edge_time(1, 2, nbytes) == comm.p2p_time(5, 6, nbytes)
        assert eng._edge_time(0, 1, nbytes) == comm.p2p_time(0, 1, nbytes)

    def test_stage_count_mismatch_raises(self, gpt24_cost, gpt24_states, comm):
        eng = PipelineEngine(
            gpt24_cost, comm, num_micro=8,
            placement=make_placement(comm.topology, 4),
        )
        with pytest.raises(ValueError, match="placement covers"):
            eng.run_iteration(PipelinePlan.uniform(26, 2), gpt24_states)

    def test_dp_mismatch_raises(self, gpt24_cost, gpt24_states, comm):
        eng = PipelineEngine(
            gpt24_cost, comm, num_micro=8, dp_ways=2,
            placement=make_placement(comm.topology, 4, dp_ways=1),
        )
        with pytest.raises(ValueError, match="DP replicas"):
            eng.run_iteration(PipelinePlan.uniform(26, 4), gpt24_states)


class TestPostRepackAccounting:
    """Regression: after a re-pack the surviving ranks — not 0..S-1 —
    must price migration and collectives (ISSUE 2 satellite)."""

    def _repacked_placement(self):
        # 2 nodes x 2 GPUs; 4 stages placed packed: stages {0,1} on
        # node 0, {2,3} on node 1.
        topo = hetero_cluster([2, 2])
        place = make_placement(topo, num_stages=4)
        result = first_fit_repack([1.0] * 4, [6, 6, 7, 7], max_mem=2.5,
                                  target_num_workers=2)
        assert result.surviving == [1, 3]
        return topo, place.after_repack(result.surviving)

    def test_old_stride_mapping_charged_the_wrong_link(self):
        topo, after = self._repacked_placement()
        comm = CommCostModel(topo)
        move = MigrationPlan([LayerTransfer(0, 0, 1, nbytes=10**9)])
        # identity mapping prices new stages 0→1 as ranks 0→1: NVLink
        naive = move.cost_seconds(comm, overlap=0.0)
        # the surviving GPUs are ranks 1 and 3 — an InfiniBand hop
        honest = move.cost_seconds(
            comm, overlap=0.0, src_placement=after, dst_placement=after
        )
        assert after.stage_ranks() == (1, 3)
        assert honest > 5 * naive

    def test_migration_cost_is_worst_replica(self, gpt24_cost):
        """Like the engine's edge pricing, migration charges the
        worst-placed replica's link (replica 1's 5→6 hop is IB)."""
        topo = hetero_cluster([6, 2])
        comm = CommCostModel(topo)
        place = make_placement(topo, 4, dp_ways=2, strategy="packed")
        move = MigrationPlan([LayerTransfer(0, 1, 2, nbytes=10**8)])
        cost = move.cost_seconds(comm, overlap=0.0, src_placement=place)
        assert cost == comm.p2p_time(5, 6, 10**8)
        assert cost > comm.p2p_time(1, 2, 10**8)

    def test_allreduce_group_after_repack_spans_nodes(self):
        topo, after = self._repacked_placement()
        comm = CommCostModel(topo)
        # surviving chain {1, 3} spans both nodes: a collective over it
        # must pay the inter-node link, unlike the naive 0..S-1 group
        assert comm._group_link(list(after.stage_ranks())) is topo.inter_link
        assert comm._group_link([0, 1]) is not topo.inter_link

    def test_controller_tracks_surviving_ranks(self, gpt24_cost, comm):
        states = fresh_states(26)
        states[1:-1, SPARSITY] = 0.95
        plan = PipelinePlan.uniform(26, 8)
        rep = PipelineProfiler(gpt24_cost).profile(plan, states)
        ctl = DynMoController(
            gpt24_cost,
            comm,
            DynMoConfig(
                repack=True,
                repack_target_workers=2,
                memory_capacity_bytes=float(rep.worker_memory.sum()),
            ),
        )
        placement = make_placement(comm.topology, 8)
        ctl.rebalance(0, plan, fresh_states(26), placement)
        d = ctl.rebalance(1, plan, states, placement)
        assert d.repacked
        assert d.placement is not None
        survivors = d.placement.stage_ranks()
        assert len(survivors) == d.plan.num_stages
        assert sorted(survivors) == sorted(set(range(8)) - set(d.released_ranks))

    def test_balancer_crash_does_not_commit_repack_state(self, gpt24_cost, comm):
        """A balancer exception after a re-pack leaves the caller's
        placement untouched (the controller holds none), so a retry
        with the same plan and placement re-packs."""

        from repro.core.balancers.base import BalanceResult, LoadBalancer

        class FlakyBalancer(LoadBalancer):
            def __init__(self):
                self.calls = 0

            def rebalance(self, plan, weights, memory_per_layer=None,
                          memory_capacity=None):
                self.calls += 1
                if self.calls == 2:  # crash on the repack invocation
                    raise RuntimeError("boom")
                loads = plan.stage_loads(weights)
                return BalanceResult(plan, loads, loads)

        states = fresh_states(26)
        states[1:-1, SPARSITY] = 0.95
        plan = PipelinePlan.uniform(26, 8)
        rep = PipelineProfiler(gpt24_cost).profile(plan, states)
        ctl = DynMoController(
            gpt24_cost,
            comm,
            DynMoConfig(
                repack=True,
                repack_target_workers=2,
                memory_capacity_bytes=float(rep.worker_memory.sum()),
            ),
            balancer_override=FlakyBalancer(),
        )
        placement = make_placement(comm.topology, 8)
        grid = placement.grid
        ctl.rebalance(0, plan, fresh_states(26), placement)
        with pytest.raises(RuntimeError, match="boom"):
            ctl.rebalance(1, plan, states, placement)
        assert placement.num_stages == 8 and placement.grid == grid
        d = ctl.rebalance(2, plan, states, placement)  # retry works
        assert d.repacked
        assert d.placement.num_stages == d.plan.num_stages < 8

    def test_repack_only_decision_is_not_rebalanced(self, gpt24_cost, comm):
        """Re-pack alone must not masquerade as a balancer move."""

        from repro.core.balancers.base import BalanceResult, LoadBalancer

        class IdentityBalancer(LoadBalancer):
            def rebalance(self, plan, weights, memory_per_layer=None,
                          memory_capacity=None):
                loads = plan.stage_loads(weights)
                return BalanceResult(plan, loads, loads)

        states = fresh_states(26)
        states[1:-1, SPARSITY] = 0.95
        plan = PipelinePlan.uniform(26, 8)
        rep = PipelineProfiler(gpt24_cost).profile(plan, states)
        ctl = DynMoController(
            gpt24_cost,
            comm,
            DynMoConfig(
                repack=True,
                repack_target_workers=2,
                memory_capacity_bytes=float(rep.worker_memory.sum()),
            ),
            balancer_override=IdentityBalancer(),
        )
        ctl.rebalance(0, plan, fresh_states(26))
        d = ctl.rebalance(1, plan, states)
        assert d.repacked
        assert not d.rebalanced
        assert d.plan.num_stages < 8

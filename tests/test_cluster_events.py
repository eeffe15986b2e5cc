"""Trace-driven cluster dynamism: events, regrow, slowdowns, trainer."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.cluster.placement import make_placement
from repro.cluster.topology import h100_cluster
from repro.experiments.common import build_scenario, make_trainer
from repro.model.cost import fresh_states
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan

import engine_oracle


class TestClusterEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ClusterEvent(0, "meteor", (0,))

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError, match="iteration"):
            ClusterEvent(-1, "failure", (0,))

    def test_empty_and_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError, match="at least one rank"):
            ClusterEvent(0, "failure", ())
        with pytest.raises(ValueError, match="twice"):
            ClusterEvent(0, "failure", (1, 1))

    def test_straggler_needs_duration_and_sane_slowdown(self):
        with pytest.raises(ValueError, match="duration"):
            ClusterEvent(0, "straggler", (0,))
        with pytest.raises(ValueError, match="slowdown"):
            ClusterEvent(0, "straggler", (0,), duration=5, slowdown=0.5)
        with pytest.raises(ValueError, match="no duration"):
            ClusterEvent(0, "failure", (0,), duration=5)


class TestClusterEventTrace:
    def test_sorted_and_canonical_json(self):
        a = ClusterEventTrace(
            (
                ClusterEvent(20, "recovery", (1,)),
                ClusterEvent(5, "failure", (1,)),
            )
        )
        b = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (1,)),
                ClusterEvent(20, "recovery", (1,)),
            )
        )
        assert a == b
        assert a.to_json() == b.to_json()
        assert [e.iteration for e in a.events] == [5, 20]

    def test_json_round_trip(self, tmp_path):
        trace = ClusterEventTrace(
            (
                ClusterEvent(3, "failure", (0, 2)),
                ClusterEvent(7, "straggler", (1,), duration=4, slowdown=2.5),
                ClusterEvent(11, "recovery", (0, 2)),
            )
        )
        assert ClusterEventTrace.from_json(trace.to_json()) == trace
        path = trace.save(str(tmp_path / "trace.json"))
        assert ClusterEventTrace.load(path) == trace

    def test_bad_json_raises_value_error(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ClusterEventTrace.from_json("{nope")
        with pytest.raises(ValueError, match="events"):
            ClusterEventTrace.from_json("[]")
        with pytest.raises(ValueError, match="version"):
            ClusterEventTrace.from_json('{"version": 99, "events": []}')
        with pytest.raises(ValueError, match="missing field"):
            ClusterEventTrace.from_json(
                '{"events": [{"kind": "failure", "ranks": [0]}]}'
            )

    def test_malformed_shapes_raise_value_error_not_typeerror(self):
        """Regression: every malformed hand-edited trace shape must
        surface as a clean ValueError — a string for 'ranks' must not
        silently iterate character-wise, and non-iterables must not
        escape as TypeError."""
        with pytest.raises(ValueError, match="list of ints"):
            ClusterEventTrace.from_json(
                '{"events": [{"iteration": 1, "kind": "failure", "ranks": "12"}]}'
            )
        with pytest.raises(ValueError, match="list of ints"):
            ClusterEventTrace.from_json(
                '{"events": [{"iteration": 1, "kind": "failure", "ranks": 3}]}'
            )
        with pytest.raises(ValueError, match="list of event objects"):
            ClusterEventTrace.from_json('{"events": "boom"}')
        with pytest.raises(ValueError, match="must be an object"):
            ClusterEventTrace.from_json('{"events": [17]}')
        with pytest.raises(ValueError, match="malformed cluster event"):
            ClusterEventTrace.from_json(
                '{"events": [{"iteration": "x", "kind": "failure", "ranks": [0]}]}'
            )

    def test_events_at(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (0,)),
                ClusterEvent(5, "straggler", (1,), duration=2),
                ClusterEvent(9, "recovery", (0,)),
            )
        )
        assert len(trace.events_at(5)) == 2
        assert trace.events_at(6) == ()
        assert trace.events_at(9)[0].kind == "recovery"
        assert trace.max_rank() == 1

    def test_generator_deterministic_and_in_range(self):
        kw = dict(
            iterations=200,
            num_ranks=8,
            seed=3,
            failure_rate=0.02,
            straggler_rate=0.05,
            preemption_rate=0.01,
            recover_after=30,
        )
        a = ClusterEventTrace.generate(**kw)
        b = ClusterEventTrace.generate(**kw)
        assert a == b and len(a) > 0
        assert a.max_rank() < 8
        counts = a.summary()
        assert counts["straggler"] > 0
        # every departure that recovers does so recover_after later (or
        # clamped to the final iteration)
        departed = {
            e.ranks[0]: e.iteration
            for e in a.events
            if e.kind in ("failure", "preemption")
        }
        for e in a.events:
            if e.kind == "recovery":
                assert e.iteration - departed[e.ranks[0]] <= 30

    def test_generator_never_fails_a_dead_rank(self):
        """Regression: a departed rank stays out of the draw pool until
        its scheduled recovery *fires* — no failure/straggler may name a
        rank that is currently dead."""
        trace = ClusterEventTrace.generate(
            iterations=300,
            num_ranks=4,
            seed=0,
            failure_rate=0.15,
            straggler_rate=0.2,
            recover_after=40,
        )
        dead: set[int] = set()
        for e in trace.events:
            if e.kind == "recovery":
                dead.difference_update(e.ranks)
            else:
                assert not dead.intersection(e.ranks), (e, dead)
                if e.kind in ("failure", "preemption"):
                    dead.update(e.ranks)

    def test_generator_validates_rates(self):
        with pytest.raises(ValueError, match="failure_rate"):
            ClusterEventTrace.generate(10, 4, failure_rate=1.5)
        with pytest.raises(ValueError, match="iterations"):
            ClusterEventTrace.generate(0, 4)

    def test_shifted(self):
        trace = ClusterEventTrace((ClusterEvent(5, "failure", (0,)),))
        assert trace.shifted(10).events[0].iteration == 15


class TestAfterRepackValidation:
    """Satellite bugfix: strictly ascending + in-range indices only."""

    def _placement(self, small_cluster):
        return make_placement(small_cluster, num_stages=4, dp_ways=2)

    def test_duplicates_rejected(self, small_cluster):
        p = self._placement(small_cluster)
        with pytest.raises(ValueError, match="strictly ascending"):
            p.after_repack([1, 1, 2])

    def test_descending_rejected(self, small_cluster):
        p = self._placement(small_cluster)
        with pytest.raises(ValueError, match="strictly ascending"):
            p.after_repack([2, 1])

    def test_out_of_range_rejected(self, small_cluster):
        p = self._placement(small_cluster)
        with pytest.raises(ValueError, match="out of range"):
            p.after_repack([0, 4])
        with pytest.raises(ValueError, match="out of range"):
            p.after_repack([-1, 0])

    def test_valid_subset_still_works(self, small_cluster):
        p = self._placement(small_cluster)
        q = p.after_repack([0, 2])
        assert q.num_stages == 2
        assert q.dp_group(1) == p.dp_group(2)


class TestAfterRegrow:
    def test_inverse_of_repack(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4, dp_ways=2)
        surviving = [0, 2]
        released = [(s, p.dp_group(s)) for s in (1, 3)]
        q = p.after_repack(surviving).after_regrow(released)
        assert q == p

    def test_validation(self, small_cluster):
        p = make_placement(small_cluster, num_stages=4, dp_ways=2)
        q = p.after_repack([0, 1, 2])
        with pytest.raises(ValueError, match="at least one"):
            q.after_regrow([])
        with pytest.raises(ValueError, match="strictly ascending"):
            q.after_regrow([(2, p.dp_group(3)), (1, p.dp_group(3))])
        with pytest.raises(ValueError, match="replicas"):
            q.after_regrow([(3, (6,))])  # width 1 into a dp_ways=2 grid
        with pytest.raises(ValueError, match="out of range"):
            q.after_regrow([(9, p.dp_group(3))])
        with pytest.raises(ValueError, match="twice"):
            q.after_regrow([(3, p.dp_group(0))])  # ranks already placed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_repack_then_regrow_round_trips(self, data):
        """Property: regrowing exactly the released groups at their old
        positions recovers the original placement, for any survivor
        subset of any grid shape."""
        topo = h100_cluster(num_nodes=4, gpus_per_node=4)
        num_stages = data.draw(st.integers(min_value=2, max_value=8))
        dp_ways = data.draw(
            st.integers(min_value=1, max_value=16 // num_stages)
        )
        strategy = data.draw(
            st.sampled_from(["packed", "scattered", "dp-outer"])
        )
        p = make_placement(topo, num_stages, dp_ways, strategy)
        surviving = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_stages - 1),
                min_size=1,
                max_size=num_stages - 1,
                unique=True,
            ).map(sorted)
        )
        released = [
            (s, p.dp_group(s)) for s in range(num_stages) if s not in surviving
        ]
        assert p.after_repack(surviving).after_regrow(released) == p


class TestEngineSlowdowns:
    def _engine(self, gpt24_cost, **kw):
        return PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=8, **kw)

    def test_slowdown_one_is_bit_identical(self, gpt24_cost, gpt24_specs):
        """Satellite: a straggler factor of exactly 1.0 produces
        bit-identical IterationResults to a no-event run."""
        plan = PipelinePlan.uniform(len(gpt24_specs), 4)
        states = fresh_states(len(gpt24_specs))
        base = self._engine(gpt24_cost).run_iteration(plan, states)
        slowed = self._engine(gpt24_cost)
        slowed.set_rank_slowdowns({0: 1.0, 2: 1.0})
        assert slowed.rank_slowdowns == {}  # 1.0 factors are dropped
        res = slowed.run_iteration(plan, states)
        assert res.makespan == base.makespan
        assert (res.busy == base.busy).all()

    def test_slowdown_scales_makespan(self, gpt24_cost, gpt24_specs):
        plan = PipelinePlan.uniform(len(gpt24_specs), 4)
        states = fresh_states(len(gpt24_specs))
        base = self._engine(gpt24_cost).run_iteration(plan, states)
        eng = self._engine(gpt24_cost)
        eng.set_rank_slowdowns({1: 2.0})
        res = eng.run_iteration(plan, states)
        assert res.makespan > base.makespan

    def test_compiled_matches_reference_under_slowdowns(
        self, gpt24_cost, gpt24_specs, comm, small_cluster
    ):
        placement = make_placement(small_cluster, num_stages=4, dp_ways=2)
        states = fresh_states(len(gpt24_specs))
        plan = PipelinePlan.uniform(len(gpt24_specs), 4)
        eng = PipelineEngine(
            gpt24_cost,
            comm,
            schedule="zb",
            num_micro=8,
            dp_ways=2,
            placement=placement,
        )
        eng.set_rank_slowdowns({0: 1.7, 5: 3.0})
        fast = eng.run_iteration(plan, states)
        ref = engine_oracle.run_iteration(eng, plan, states)
        assert fast.makespan == ref.makespan
        assert (fast.busy == ref.busy).all()

    def test_dp_group_moves_at_slowest_replica(
        self, gpt24_cost, gpt24_specs, comm, small_cluster
    ):
        placement = make_placement(small_cluster, num_stages=4, dp_ways=2)
        states = fresh_states(len(gpt24_specs))
        plan = PipelinePlan.uniform(len(gpt24_specs), 4)

        def run(slow):
            eng = PipelineEngine(
                gpt24_cost,
                comm,
                schedule="zb",
                num_micro=8,
                dp_ways=2,
                placement=placement,
                rank_slowdowns=slow,
            )
            return eng.run_iteration(plan, states)

        group = placement.dp_group(1)
        one = run({group[0]: 2.0})
        both = run({group[0]: 2.0, group[1]: 1.5})
        assert one.makespan == both.makespan  # max over the group wins

    def test_invalid_factor_rejected(self, gpt24_cost):
        eng = self._engine(gpt24_cost)
        with pytest.raises(ValueError, match="must be > 0"):
            eng.set_rank_slowdowns({0: 0.0})

    def test_batched_prices_slowed_engines_identically(
        self, gpt24_cost, gpt24_specs
    ):
        """Slowdown maps no longer force the scalar path: the map is
        fixed for the duration of one call, so lanes batch and stay
        bit-identical to the scalar engine."""
        from repro.pipeline import batched as batched_mod

        plan = PipelinePlan.uniform(len(gpt24_specs), 4)
        states = fresh_states(len(gpt24_specs))
        eng = self._engine(gpt24_cost)
        eng.set_rank_slowdowns({1: 2.0})
        scenarios = [(plan, [s.copy() for s in states]) for _ in range(4)]
        batched_mod.stats.reset()
        batched = batched_mod.simulate_many([(eng, p, s) for p, s in scenarios])
        assert batched_mod.stats.batched_lanes == len(scenarios)
        solo = [eng.run_iteration(p, s) for p, s in scenarios]
        for a, b in zip(batched, solo):
            assert a.makespan == b.makespan


class TestMigrationRegrowPricing:
    def test_shrink_and_regrow_both_priced(
        self, gpt24_cost, gpt24_specs, comm, small_cluster
    ):
        states = fresh_states(len(gpt24_specs))
        big = make_placement(small_cluster, num_stages=4, dp_ways=1)
        small = big.after_repack([0, 1, 3])
        plan4 = PipelinePlan.uniform(len(gpt24_specs), 4)
        plan3 = PipelinePlan.uniform(len(gpt24_specs), 3)
        shrink = diff_plans(plan4, plan3, gpt24_cost, states)
        grow = diff_plans(plan3, plan4, gpt24_cost, states)
        c_shrink = shrink.cost_seconds(
            comm, src_placement=big, dst_placement=small
        )
        c_grow = grow.cost_seconds(comm, src_placement=small, dst_placement=big)
        assert c_shrink > 0 and c_grow > 0

    def test_stage_out_of_range_raises(
        self, gpt24_cost, gpt24_specs, comm, small_cluster
    ):
        states = fresh_states(len(gpt24_specs))
        big = make_placement(small_cluster, num_stages=4, dp_ways=1)
        small = big.after_repack([0, 1, 3])
        plan4 = PipelinePlan.uniform(len(gpt24_specs), 4)
        plan3 = PipelinePlan.uniform(len(gpt24_specs), 3)
        migration = diff_plans(plan4, plan3, gpt24_cost, states)
        with pytest.raises(ValueError, match="source placement"):
            migration.cost_seconds(comm, src_placement=small, dst_placement=small)


def _event_trainer(iterations, trace, mode="megatron", dp_ways=1, **kw):
    setup = build_scenario(
        "pruning", num_layers=24, pp_stages=8, dp_ways=dp_ways, iterations=iterations
    )
    return make_trainer(
        setup,
        mode,
        iterations=iterations,
        balance_cost="modeled",
        cluster_events=trace,
        **kw,
    )


class TestTrainerEvents:
    def test_failure_shrinks_and_recovery_restores(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (2, 3)),
                ClusterEvent(20, "recovery", (2, 3)),
            )
        )
        trainer = _event_trainer(40, trace)
        original_ranks = list(trainer.placement.stage_ranks())
        res = trainer.run()
        stages = dict(res.stage_count_history)
        assert stages[4] == 8 and stages[5] == 6 and stages[19] == 6
        assert stages[20] == 8
        # recovery re-admits the exact released ranks at their old spots
        assert res.final_stage_ranks == original_ranks
        assert res.released_ranks_history == [(5, [2, 3])]
        assert [e[1] for e in res.cluster_events_applied] == [
            "failure",
            "recovery",
        ]
        assert res.layers_moved > 0 and res.overhead_s > 0

    def test_straggler_window_prices_and_expires(self):
        trace = ClusterEventTrace(
            (ClusterEvent(10, "straggler", (3,), duration=5, slowdown=3.0),)
        )
        res = _event_trainer(20, trace).run()
        ms = dict(res.makespan_history)
        assert ms[10] > 1.5 * ms[9]  # window open
        assert ms[15] < 1.2 * ms[9]  # window closed

    def test_straggler_slowdown_one_is_bit_identical_run(self):
        """Satellite: a whole run under a 1.0-slowdown straggler equals
        the no-event run bit for bit."""
        trace = ClusterEventTrace(
            (ClusterEvent(4, "straggler", (3,), duration=6, slowdown=1.0),)
        )
        a = _event_trainer(25, trace).run()
        b = _event_trainer(25, None).run()
        assert a.total_time_s == b.total_time_s
        assert a.makespan_history == b.makespan_history
        assert a.bubble_history == b.bubble_history

    def test_preemption_behaves_like_failure(self):
        trace = ClusterEventTrace((ClusterEvent(5, "preemption", (7,)),))
        res = _event_trainer(12, trace).run()
        assert dict(res.stage_count_history)[11] == 7
        assert res.released_ranks_history == [(5, [7])]

    def test_recovery_waits_for_all_group_ranks(self):
        # DP-2: stage 2's group is ranks (2, 10).  Rank 2 fails (the
        # whole stage leaves, rank 10 is released but healthy); rank 10
        # then fails while spare.  Recovering rank 2 alone must NOT
        # regrow the stage — its group still holds a dead rank.
        trace = ClusterEventTrace(
            (
                ClusterEvent(3, "failure", (2,)),
                ClusterEvent(6, "failure", (10,)),
                ClusterEvent(10, "recovery", (2,)),
                ClusterEvent(14, "recovery", (10,)),
            )
        )
        trainer = _event_trainer(20, trace, dp_ways=2)
        assert trainer.placement.dp_group(2) == (2, 10)
        res = trainer.run()
        stages = dict(res.stage_count_history)
        assert stages[3] == 7 and stages[6] == 7
        assert stages[10] == 7  # rank 10 still dead: no regrow yet
        assert stages[14] == 8  # both ranks healthy: the group returns
        assert res.final_stage_ranks == list(range(8))

    def test_failure_cancels_straggler_window_on_dead_rank(self):
        """Regression: an open straggler window dies with its rank —
        after the failure the run behaves exactly like one that never
        straggled (no stale slowdown key, no phantom expiry rebalance)."""
        with_straggle = ClusterEventTrace(
            (
                ClusterEvent(2, "straggler", (3,), duration=30, slowdown=2.0),
                ClusterEvent(5, "failure", (3,)),
                ClusterEvent(10, "recovery", (3,)),
            )
        )
        without = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (3,)),
                ClusterEvent(10, "recovery", (3,)),
            )
        )
        a = _event_trainer(20, with_straggle)
        res_a, res_b = a.run(), _event_trainer(20, without).run()
        ms_a, ms_b = dict(res_a.makespan_history), dict(res_b.makespan_history)
        assert ms_a[3] > ms_b[3]  # window open before the failure
        for k in range(5, 20):
            assert ms_a[k] == ms_b[k]  # identical once the rank died
        assert a.engine.rank_slowdowns == {}

    def test_straggler_on_dead_rank_is_a_noop(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(3, "failure", (3,)),
                ClusterEvent(6, "straggler", (3,), duration=10, slowdown=4.0),
            )
        )
        baseline = ClusterEventTrace((ClusterEvent(3, "failure", (3,)),))
        a = _event_trainer(15, trace).run()
        b = _event_trainer(15, baseline).run()
        assert a.makespan_history == b.makespan_history

    def test_staggered_failures_regrow_in_original_order(self):
        """Regression: positions are resolved against the run-start
        pipeline order, not the (shifting) frame at loss time — rank 2
        fails while the pipeline is already short one stage, yet a
        joint recovery restores [0..7] exactly."""
        trace = ClusterEventTrace(
            (
                ClusterEvent(3, "failure", (1,)),
                ClusterEvent(6, "failure", (2,)),
                ClusterEvent(10, "recovery", (1, 2)),
            )
        )
        res = _event_trainer(15, trace).run()
        stages = dict(res.stage_count_history)
        assert stages[6] == 6 and stages[10] == 8
        assert res.final_stage_ranks == list(range(8))

    def test_controller_run_survives_events(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (1,)),
                ClusterEvent(12, "straggler", (4,), duration=6, slowdown=2.0),
                ClusterEvent(25, "recovery", (1,)),
            )
        )
        res = _event_trainer(40, trace, mode="dynmo-partition").run()
        assert dict(res.stage_count_history)[39] == 8
        assert len(res.cluster_events_applied) == 3

    def test_killing_every_stage_raises(self):
        trace = ClusterEventTrace(
            (ClusterEvent(2, "failure", tuple(range(8))),)
        )
        with pytest.raises(RuntimeError, match="every pipeline stage"):
            _event_trainer(5, trace).run()
        # the prewarm scout replays the trace, so it raises the run's error
        with pytest.raises(RuntimeError, match="every pipeline stage"):
            _event_trainer(5, trace).prewarm()
        # inline (scout first) and batched (lockstep) sweeps record the
        # same failure — also when a memory-limited run overflows at an
        # earlier shrink (8 -> 6 stages), which the scout must hit first
        from repro.orchestrator import ExecutionPolicy, RunSpec, SweepRunner

        shrink_then_kill = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (2, 3)),
                ClusterEvent(10, "failure", (0, 1, 4, 5, 6, 7)),
            )
        )
        cases = [
            (trace, "", "error", "RuntimeError"),
            (shrink_then_kill, "1.3e9", "oom", "PlacementOOMError"),
        ]
        for events, limit, status, error_type in cases:
            spec = RunSpec(
                scenario="pruning",
                mode="megatron",
                num_layers=24,
                pp_stages=8,
                iterations=20,
                cluster_events=events.to_json(),
                memory_limit=limit,
            )
            inline, batched = (
                SweepRunner(policy=ExecutionPolicy(backend)).run([spec])[0]
                for backend in ("inline", "batched")
            )
            assert inline.status == batched.status == status
            assert inline.error_type == batched.error_type == error_type
            assert inline.error.splitlines()[0] == batched.error.splitlines()[0]

    def test_out_of_range_rank_rejected_at_construction(self):
        trace = ClusterEventTrace((ClusterEvent(2, "failure", (100,)),))
        with pytest.raises(ValueError, match="rank 100"):
            _event_trainer(5, trace)

    def test_failure_without_placement_raises(self, gpt24_cost, gpt24_specs):
        from repro.dynamics.base import StaticScheme
        from repro.training.config import TrainingConfig
        from repro.training.trainer import Trainer

        trace = ClusterEventTrace((ClusterEvent(1, "failure", (0,)),))
        cfg = TrainingConfig(iterations=5, pp_stages=4, placement_strategy=None)
        t = Trainer(
            cfg, gpt24_cost, StaticScheme(gpt24_specs), cluster_events=trace
        )
        with pytest.raises(ValueError, match="placement"):
            t.run()

    def test_straggler_without_placement_works(self, gpt24_cost, gpt24_specs):
        from repro.dynamics.base import StaticScheme
        from repro.training.config import TrainingConfig
        from repro.training.trainer import Trainer

        trace = ClusterEventTrace(
            (ClusterEvent(2, "straggler", (1,), duration=3, slowdown=2.0),)
        )
        cfg = TrainingConfig(
            iterations=8, pp_stages=4, placement_strategy=None, record_every=1
        )
        res = Trainer(
            cfg, gpt24_cost, StaticScheme(gpt24_specs), cluster_events=trace
        ).run()
        ms = dict(res.makespan_history)
        assert ms[2] > ms[1] and ms[5] == ms[1]

    def test_lockstep_drives_event_trainer_identically(self):
        """The lockstep driver re-bins by compiled key every iteration,
        so an event run whose stage count changes mid-flight must match
        its solo run."""
        from repro.training import run_trainers_lockstep

        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (2,)),
                ClusterEvent(9, "straggler", (4,), duration=4, slowdown=2.0),
                ClusterEvent(15, "recovery", (2,)),
            )
        )
        solo = _event_trainer(25, trace).run()
        in_bin = [_event_trainer(25, trace), _event_trainer(25, None)]
        outcomes = run_trainers_lockstep([(t, None) for t in in_bin])
        assert not isinstance(outcomes[0], BaseException)
        assert outcomes[0].total_time_s == solo.total_time_s
        assert outcomes[0].makespan_history == solo.makespan_history

    def test_job_manager_tracks_failure_and_recovery(self):
        from repro.cluster.job_manager import ElasticJobManager

        jm = ElasticJobManager(total_gpus=8)
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (2,)),
                ClusterEvent(10, "recovery", (2,)),
            )
        )
        res = _event_trainer(20, trace, job_manager=jm).run()
        assert jm.claims["train"] == 8  # back to full strength
        assert jm.events[0].num_gpus == 1
        assert res.average_gpus < 8.0


class TestEventSweep:
    def _trace_json(self):
        return ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (2,)),
                ClusterEvent(12, "straggler", (4,), duration=6, slowdown=1.5),
                ClusterEvent(20, "recovery", (2,)),
            )
        ).to_json()

    def test_spec_hash_covers_trace_content(self):
        from repro.orchestrator import RunSpec

        base = RunSpec(scenario="pruning", iterations=30)
        with_events = base.with_(cluster_events=self._trace_json())
        assert base.spec_hash != with_events.spec_hash
        assert "events-" in with_events.label
        # round-trips through dict (cache storage format)
        assert RunSpec.from_dict(with_events.to_dict()) == with_events

    def test_execute_spec_applies_events(self):
        from repro.orchestrator import RunSpec
        from repro.orchestrator.runner import execute_spec

        spec = RunSpec(
            scenario="pruning",
            mode="megatron",
            iterations=30,
            cluster_events=self._trace_json(),
        )
        record = execute_spec(spec)
        assert record.ok, record.error
        applied = record.metrics["cluster_events_applied"]
        assert [a[1] for a in applied] == ["failure", "straggler", "recovery"]
        assert record.metrics["final_num_stages"] == 8

    def test_batched_executor_matches_serial_on_event_specs(self, tmp_path):
        """The batched backend drives event specs through its lockstep
        call (piecewise-static segments re-bin by current compiled key)
        and still produces the same metrics as serial execution.
        Controller-driven modes (dynmo-*) ride along: the lockstep
        driver runs their hooks per iteration exactly like a solo run."""
        from repro.orchestrator import ExecutionPolicy, RunSpec, SweepRunner

        specs = [
            RunSpec(
                scenario="pruning",
                mode=mode,
                iterations=30,
                cluster_events=self._trace_json(),
            )
            for mode in ("megatron", "dynmo-partition")
        ]
        serial = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        batched = SweepRunner(policy=ExecutionPolicy("batched")).run(specs)
        for a, b in zip(serial, batched):
            assert a.ok and b.ok
            assert a.metrics == b.metrics

    def test_bad_trace_becomes_error_record(self):
        from repro.orchestrator import RunSpec
        from repro.orchestrator.runner import execute_spec

        spec = RunSpec(
            scenario="pruning", iterations=10, cluster_events="{broken"
        )
        record = execute_spec(spec)
        assert record.status == "error"
        assert "JSON" in record.error


class TestEventsCLI:
    def test_events_command_writes_loadable_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(
            [
                "events",
                "--iterations", "100",
                "--ranks", "8",
                "--seed", "1",
                "--failure-rate", "0.05",
                "--straggler-rate", "0.05",
                "--recover-after", "20",
                "--out", str(out),
            ]
        )
        assert rc == 0
        trace = ClusterEventTrace.load(str(out))
        assert len(trace) > 0
        assert "wrote" in capsys.readouterr().out

    def test_events_single_scenario_mode(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(
            [
                "events",
                "--fail-at", "10",
                "--recover-at", "30",
                "--fail-ranks", "2", "3",
                "--straggle-ranks", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        trace = ClusterEventTrace.load(str(out))
        assert trace.summary() == {
            "failure": 1,
            "preemption": 0,
            "straggler": 1,
            "recovery": 1,
        }

    def test_straggler_only_handwritten_trace(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(
            [
                "events",
                "--straggle-at", "5",
                "--straggle-ranks", "3", "4",
                "--straggler-duration", "7",
                "--straggler-slowdown", "2.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        (event,) = ClusterEventTrace.load(str(out)).events
        assert event.kind == "straggler" and event.ranks == (3, 4)
        assert event.duration == 7 and event.slowdown == 2.5

    def test_failure_only_trace_is_a_permanent_loss(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(
            ["events", "--fail-at", "10", "--fail-ranks", "2", "--out", str(out)]
        )
        assert rc == 0
        (event,) = ClusterEventTrace.load(str(out)).events
        assert event.kind == "failure" and event.ranks == (2,)

    def test_inconsistent_handwritten_flags_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="straggle-at"):
            main(["events", "--straggle-ranks", "3"])
        with pytest.raises(SystemExit, match="fail-at"):
            main(["events", "--recover-at", "5"])
        with pytest.raises(SystemExit, match="straggle-ranks"):
            main(["events", "--fail-at", "2", "--recover-at", "5",
                  "--straggle-at", "7"])
        with pytest.raises(SystemExit, match="after --fail-at"):
            main(["events", "--fail-at", "9", "--recover-at", "5"])

    def test_empty_trace_file_keeps_specs_event_free(self, tmp_path, capsys):
        """Regression: an empty trace must not fork cache identity or
        disable the batched executor — the sweep runs exactly as if
        --events had not been passed."""
        import json as _json

        from repro.cli import main

        trace = tmp_path / "empty.json"
        ClusterEventTrace().save(str(trace))
        out_json = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--scenario", "pruning",
                "--mode", "megatron",
                "--iterations", "15",
                "--jobs", "1",
                "--events", str(trace),
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(out_json),
            ]
        )
        assert rc == 0
        assert "running without events" in capsys.readouterr().out
        (record,) = _json.loads(out_json.read_text())["records"]
        assert record["spec"]["cluster_events"] == ""

    def test_sweep_with_events_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        ClusterEventTrace(
            (
                ClusterEvent(3, "failure", (2,)),
                ClusterEvent(8, "straggler", (4,), duration=4, slowdown=1.5),
                ClusterEvent(12, "recovery", (2,)),
            )
        ).save(str(trace))
        out_json = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--scenario", "pruning",
                "--mode", "megatron",
                "--iterations", "20",
                "--jobs", "1",
                "--events", str(trace),
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(out_json),
            ]
        )
        assert rc == 0
        payload = json.loads(out_json.read_text())
        (record,) = payload["records"]
        assert record["status"] == "ok"
        assert len(record["metrics"]["cluster_events_applied"]) == 3
        assert record["spec"]["cluster_events"]
        captured = capsys.readouterr().out
        assert "events_applied" in captured

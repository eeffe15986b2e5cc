"""Monte-Carlo fault ensembles and segmented (piecewise-static) batching.

Two invariants anchor this file:

1. **Bit-identity** — a trace-driven run decomposed into piecewise-
   static segments and pre-simulated through the batched engine must
   produce results bitwise equal to the same run stepped scalar
   iteration by iteration (differential golden tests over failure /
   preemption / straggler / recovery traces).
2. **Determinism** — ensemble percentile summaries must be identical
   across inline / pool / batched execution backends and across cached
   re-runs (nearest-rank percentiles pick actual samples).
"""

from __future__ import annotations

import pytest

from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.experiments.common import build_scenario, make_trainer
from repro.orchestrator import (
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    TraceDistribution,
    percentile_nearest,
    run_ensemble,
    sample_specs,
)
import repro.pipeline.batched as batched_mod


# ---------------------------------------------------------------------------
# segment boundaries


class TestSegmentBoundaries:
    def test_empty_trace_has_no_boundaries(self):
        assert ClusterEventTrace().segment_boundaries() == ()

    def test_events_and_straggler_expiries(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (1,)),
                ClusterEvent(20, "recovery", (1,)),
                ClusterEvent(8, "straggler", (2,), duration=4, slowdown=2.0),
            )
        )
        # 8+4=12 is the straggler expiry: the slowdown map changes there
        assert trace.segment_boundaries() == (5, 8, 12, 20)

    def test_coincident_marks_deduplicate(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(4, "straggler", (0,), duration=6, slowdown=1.5),
                ClusterEvent(10, "failure", (1,)),
            )
        )
        assert trace.segment_boundaries() == (4, 10)


# ---------------------------------------------------------------------------
# differential golden tests: segmented-batched == scalar, bit for bit


def _run_pair(trace, mode="megatron", iterations=40, dp_ways=1):
    """Run the same trace scalar and segmented-batched; return both results."""
    results = []
    for prewarm in (False, True):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=8, dp_ways=dp_ways,
            iterations=iterations,
        )
        trainer = make_trainer(
            setup, mode, iterations=iterations, balance_cost="modeled",
            cluster_events=trace,
        )
        results.append(trainer.run(prewarm=prewarm))
    return results


def _assert_identical(scalar, warmed):
    assert warmed.total_time_s == scalar.total_time_s
    assert warmed.makespan_history == scalar.makespan_history
    assert warmed.bubble_history == scalar.bubble_history
    assert warmed.stage_count_history == scalar.stage_count_history
    assert warmed.overhead_s == scalar.overhead_s
    assert warmed.cluster_events_applied == scalar.cluster_events_applied
    assert warmed.final_stage_ranks == scalar.final_stage_ranks


class TestSegmentedPrewarmBitIdentity:
    def test_failure_and_recovery(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(6, "failure", (2,)),
                ClusterEvent(22, "recovery", (2,)),
            )
        )
        _assert_identical(*_run_pair(trace))

    def test_permanent_preemption(self):
        trace = ClusterEventTrace((ClusterEvent(9, "preemption", (5,)),))
        _assert_identical(*_run_pair(trace))

    def test_straggler_window(self):
        trace = ClusterEventTrace(
            (ClusterEvent(7, "straggler", (1,), duration=10, slowdown=2.5),)
        )
        _assert_identical(*_run_pair(trace))

    def test_generated_mixed_trace(self):
        trace = ClusterEventTrace.generate(
            iterations=40, num_ranks=8, seed=3,
            failure_rate=0.05, straggler_rate=0.08, recover_after=12,
            straggler_duration=6, straggler_slowdown=2.0,
        )
        assert trace  # the seed must actually produce events
        _assert_identical(*_run_pair(trace))

    def test_balanced_mode_with_events(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (3,)),
                ClusterEvent(18, "recovery", (3,)),
                ClusterEvent(24, "straggler", (0,), duration=8, slowdown=1.7),
            )
        )
        _assert_identical(*_run_pair(trace, mode="dynmo-partition"))

    def test_prewarm_simulates_segments_batched(self):
        """The scout must find >= 2 distinct keys and run them as
        batched lanes, not fall back to scalar per-key calls."""
        trace = ClusterEventTrace(
            (
                ClusterEvent(6, "failure", (2,)),
                ClusterEvent(22, "recovery", (2,)),
            )
        )
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=8, dp_ways=1, iterations=40
        )
        trainer = make_trainer(
            setup, "megatron", iterations=40, balance_cost="modeled",
            cluster_events=trace,
        )
        batched_mod.stats.reset()
        warmed = trainer.prewarm(40)
        assert warmed >= 2
        assert batched_mod.stats.batched_lanes >= warmed
        assert batched_mod.stats.scalar_unbatchable == 0

    def test_prewarm_prices_each_segment_on_one_engine(self, monkeypatch):
        """The scout prices lanes on the Trainer's own engine until the
        first placement/slowdown change, then on one snapshot per
        segment — never one engine per lane."""
        trace = ClusterEventTrace(
            (
                ClusterEvent(6, "failure", (2,)),
                ClusterEvent(22, "recovery", (2,)),
            )
        )
        calls = []
        real = batched_mod.simulate_many

        def spy(requests):
            calls.append([eng for eng, _, _ in requests])
            return real(requests)

        monkeypatch.setattr(batched_mod, "simulate_many", spy)
        for events in (trace, None):
            setup = build_scenario(
                "pruning", num_layers=24, pp_stages=8, dp_ways=1, iterations=40
            )
            trainer = make_trainer(
                setup, "megatron", iterations=40, balance_cost="modeled",
                cluster_events=events,
            )
            calls.clear()
            warmed = trainer.prewarm(40)
            (engines,) = calls  # one batched call per scout
            assert len(engines) == warmed >= 2
            assert engines[0] is trainer.engine
            distinct = {id(eng) for eng in engines}
            if events is None:
                assert distinct == {id(trainer.engine)}
            else:
                assert len(distinct) <= len(trace.segment_boundaries()) + 1


# ---------------------------------------------------------------------------
# percentile + sampling plumbing


class TestPercentileNearest:
    def test_picks_actual_samples(self):
        vals = [3.0, 1.0, 2.0, 4.0]
        assert percentile_nearest(vals, 50) == 2.0
        assert percentile_nearest(vals, 99) == 4.0
        assert percentile_nearest(vals, 1) == 1.0

    def test_single_value(self):
        assert percentile_nearest([7.5], 50) == 7.5
        assert percentile_nearest([7.5], 99) == 7.5

    def test_empty_is_nan(self):
        import math

        assert math.isnan(percentile_nearest([], 50))


class TestSampleSpecs:
    def base(self):
        return RunSpec(
            scenario="pruning", mode="megatron", num_layers=24,
            pp_stages=4, dp_ways=1, iterations=20,
        )

    def test_draws_are_seed_deterministic(self):
        a = sample_specs(self.base(), 8, seed0=5)
        b = sample_specs(self.base(), 8, seed0=5)
        assert [s.spec_hash for s in a] == [s.spec_hash for s in b]

    def test_seed0_shifts_the_draws(self):
        a = sample_specs(self.base(), 4, seed0=0)
        b = sample_specs(self.base(), 4, seed0=1)
        # draw i of b is draw i+1 of a (same generator, shifted window)
        assert a[1].spec_hash == b[0].spec_hash

    def test_empty_traces_collapse_to_event_free_spec(self):
        dist = TraceDistribution(failure_rate=0.0, straggler_rate=0.0)
        specs = sample_specs(self.base(), 6, dist)
        assert len({s.spec_hash for s in specs}) == 1
        assert specs[0].cluster_events == ""

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError, match="positive"):
            sample_specs(self.base(), 0)


# ---------------------------------------------------------------------------
# ensemble determinism across backends and caching


class TestRunEnsemble:
    def base(self):
        return RunSpec(
            scenario="pruning", mode="megatron", num_layers=24,
            pp_stages=4, dp_ways=1, iterations=20,
        )

    def dist(self):
        return TraceDistribution(
            failure_rate=0.05, straggler_rate=0.08, recover_after=8,
            straggler_duration=4,
        )

    def test_summary_shape(self):
        res = run_ensemble(self.base(), 6, distribution=self.dist())
        assert res.n == 6 and len(res.stats) == 1
        s = res.stats[0]
        assert s.draws == 6
        assert s.ok + s.failed == 6
        assert s.iter_time_p50 <= s.iter_time_p99
        assert s.label == "pruning/megatron/zb"
        assert 1 <= res.num_unique <= 6
        # CDF is monotone and ends at 1.0
        fracs = [p for _, p in s.recovery_cost_cdf]
        assert fracs == sorted(fracs) and fracs[-1] == pytest.approx(1.0)
        # survivability is a fraction per recorded iteration
        assert all(0.0 <= p <= 1.0 for _, p in s.survivability)

    def test_identical_across_backends(self):
        policies = [
            ExecutionPolicy("inline"),
            ExecutionPolicy("pool", workers=2),
            ExecutionPolicy("batched"),
        ]
        dicts = [
            run_ensemble(
                self.base(), 5, p, distribution=self.dist(), seed0=2
            ).to_dict()
            for p in policies
        ]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_cached_rerun_is_full_hit_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_ensemble(
            self.base(), 5, distribution=self.dist(), cache=cache
        )
        assert not first.full_cache_hit
        again = run_ensemble(
            self.base(), 5, distribution=self.dist(), cache=cache
        )
        assert again.full_cache_hit
        assert again.num_cached == again.num_unique
        # identical distributions; only the cache provenance may differ
        a, b = first.to_dict(), again.to_dict()
        a.pop("num_cached"), b.pop("num_cached")
        assert a == b

    def test_multiple_base_specs_group_separately(self):
        bases = [self.base(), self.base().with_(mode="dynmo-partition")]
        res = run_ensemble(bases, 3, distribution=self.dist())
        assert [s.label for s in res.stats] == [
            "pruning/megatron/zb", "pruning/dynmo-partition/zb",
        ]
        assert all(s.draws == 3 for s in res.stats)

    def test_duplicate_draws_execute_once(self):
        dist = TraceDistribution(failure_rate=0.0, straggler_rate=0.0)
        res = run_ensemble(self.base(), 8, distribution=dist)
        assert res.num_unique == 1
        assert res.stats[0].draws == 8 and res.stats[0].unique == 1

    def test_rejects_empty_bases(self):
        with pytest.raises(ValueError, match="at least one"):
            run_ensemble([], 4)

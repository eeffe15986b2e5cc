"""Monte-Carlo fault ensembles and segmented (piecewise-static) batching.

Two invariants anchor this file:

1. **Bit-identity** — a trace-driven run decomposed into piecewise-
   static segments and priced in windows through the batched engine
   must produce results bitwise equal to the same run stepped scalar
   iteration by iteration (differential golden tests over failure /
   preemption / straggler / recovery traces).
2. **Determinism** — ensemble percentile summaries must be identical
   across inline / pool / batched execution backends and across cached
   re-runs (nearest-rank percentiles pick actual samples).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import EgeriaBaseline, TutelMoEBaseline
from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.dynamics.pruning import PruningDynamism
from repro.experiments.common import (
    SCENARIO_SCHEME_MODES,
    SCENARIOS,
    build_scenario,
    make_trainer,
)
from repro.orchestrator import (
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    SweepRunner,
    TraceDistribution,
    execute_spec,
    percentile_nearest,
    run_ensemble,
    sample_specs,
)
import repro.pipeline.batched as batched_mod
from repro.training import run_trainers_lockstep


# ---------------------------------------------------------------------------
# segment boundaries


def segment_boundaries(trace: ClusterEventTrace) -> tuple[int, ...]:
    """Iterations that open a new piecewise-static segment.

    Between consecutive boundaries a run's placement and slowdown map —
    and therefore its compiled-schedule cache key — are fixed, which is
    what lets trace-driven runs batch segment by segment.  Boundaries
    are every event iteration plus the expiry of each straggler window
    (``iteration + duration``, when its slowdown factor lifts again).
    """
    marks = {e.iteration for e in trace.events}
    marks.update(e.iteration + e.duration for e in trace.events if e.kind == "straggler")
    return tuple(sorted(marks))


class TestSegmentBoundaries:
    def test_empty_trace_has_no_boundaries(self):
        assert segment_boundaries(ClusterEventTrace()) == ()

    def test_events_and_straggler_expiries(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (1,)),
                ClusterEvent(20, "recovery", (1,)),
                ClusterEvent(8, "straggler", (2,), duration=4, slowdown=2.0),
            )
        )
        # 8+4=12 is the straggler expiry: the slowdown map changes there
        assert segment_boundaries(trace) == (5, 8, 12, 20)

    def test_coincident_marks_deduplicate(self):
        trace = ClusterEventTrace(
            (
                ClusterEvent(4, "straggler", (0,), duration=6, slowdown=1.5),
                ClusterEvent(10, "failure", (1,)),
            )
        )
        assert segment_boundaries(trace) == (4, 10)


# ---------------------------------------------------------------------------
# differential golden tests: segmented-batched == scalar, bit for bit


def _trainer(trace, mode="megatron", iterations=40, dp_ways=1):
    setup = build_scenario(
        "pruning", num_layers=24, pp_stages=8, dp_ways=dp_ways,
        iterations=iterations,
    )
    return make_trainer(
        setup, mode, iterations=iterations, balance_cost="modeled",
        cluster_events=trace,
    )


def _run_pair(trace, mode="megatron", iterations=40, dp_ways=1):
    """Run the same trace scalar and segmented-batched; return both
    results.  A one-run lockstep call prices each miss right after
    deciding it, on the scalar engine (a bin of one); Trainer.run
    prices a window's misses in one batched call."""
    (scalar,) = run_trainers_lockstep(
        [(_trainer(trace, mode, iterations, dp_ways), None)]
    )
    warmed = _trainer(trace, mode, iterations, dp_ways).run()
    return scalar, warmed


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

    def test_prewarm_simulates_segments_batched(self, monkeypatch):
        """A window's distinct keys across segments (>= 2 of them) run
        as batched lanes, not as scalar per-key calls."""
        trace = ClusterEventTrace(
            (
                ClusterEvent(6, "failure", (2,)),
                ClusterEvent(22, "recovery", (2,)),
            )
        )
        trainer = _trainer(trace)
        warmed = []
        real = type(trainer).prewarm

        def counting(self, lanes, priced):
            warmed.append(real(self, lanes, priced))
            return warmed[-1]

        monkeypatch.setattr(type(trainer), "prewarm", counting)
        batched_mod.stats.reset()
        trainer.run()
        (n,) = warmed  # 40 iterations: one window
        assert n >= 2
        assert batched_mod.stats.batched_lanes == n
        assert batched_mod.stats.scalar_lanes == 0

    def test_prewarm_prices_each_segment_on_one_engine(self, monkeypatch):
        """A window's lanes of the segment the Trainer is in when it
        prices run on its own engine, every other segment's on one
        snapshot — never one engine per lane."""
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
            trainer = _trainer(events)
            calls.clear()
            trainer.run()
            (engines,) = calls  # 40 iterations: one window, one call
            assert len(engines) >= 2
            distinct = {id(eng) for eng in engines}
            if events is None:
                assert distinct == {id(trainer.engine)}
            else:
                # the run ends in its first segment's placement (the
                # recovery restores it), so those lanes share the live
                # engine; the failure's segment gets one snapshot
                assert engines[0] is trainer.engine
                assert len(distinct) == 2


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

    @pytest.mark.parametrize(
        "bad",
        [
            {"straggler_duration": -5},
            {"recover_after": -1},
            # refused even though no straggler is ever drawn
            {"straggler_slowdown": 0.5, "straggler_rate": 0.0},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_invalid_distribution_raises_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TraceDistribution(**bad).sample(50, 8, 0)

    def test_moe_draws_span_the_widened_pipeline(self):
        """MoE widens 8 requested stages to 16, so the draws name ranks
        of all 16 stages and none beyond."""
        base = self.base().with_(scenario="moe", pp_stages=8, iterations=40)
        ranks = {
            r
            for spec in sample_specs(base, 64)
            if spec.cluster_events
            for event in ClusterEventTrace.from_json(spec.cluster_events).events
            for r in event.ranks
        }
        assert ranks & set(range(8, 16))
        assert max(ranks) < 16

    def test_pruning_draws_pinned(self):
        """Pruning runs the shape it asks for, so its 64 default draws
        keep the spec hashes they had before sampling followed the
        effective shape."""
        base = self.base().with_(pp_stages=8, iterations=40)
        joined = "".join(spec.spec_hash for spec in sample_specs(base, 64))
        digest = hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()
        assert digest == "78fe67d549f6911c98e7024a5ca84d66"


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
        inline, pooled = (
            run_ensemble(
                self.base(), 5, p, distribution=self.dist(), seed0=2
            ).to_dict()
            for p in (ExecutionPolicy("inline"), ExecutionPolicy("pool", workers=2))
        )
        assert inline == pooled

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

    def test_moe_ensemble_runs_on_widened_ranks(self):
        """Draws that fail or slow ranks past the requested 8 stages run
        on MoE's 16-stage pipeline like any other."""
        base = self.base().with_(scenario="moe", num_layers=16, pp_stages=8)
        specs = sample_specs(base, 8, self.dist())
        assert any(
            ClusterEventTrace.from_json(s.cluster_events).max_rank() >= 8
            for s in specs
            if s.cluster_events
        )
        res = run_ensemble(base, 8, distribution=self.dist())
        assert all(r.status == "ok" for r in res.records)
        assert res.stats[0].ok == 8


# ---------------------------------------------------------------------------
# grouped draws: one scenario, one recorded trajectory, one iteration cache


def _strip(record):
    """A record's dict without its wall-clock duration."""
    d = record.to_dict()
    d.pop("duration_s")
    return d


def _traces():
    """Empty, failure at iteration 0, straggler-only, failure without
    recovery, and failure with recovery."""
    return [
        "",
        ClusterEventTrace((ClusterEvent(0, "failure", (1,)),)).to_json(),
        ClusterEventTrace(
            (ClusterEvent(3, "straggler", (2,), duration=6, slowdown=1.7),)
        ).to_json(),
        ClusterEventTrace((ClusterEvent(7, "failure", (2,)),)).to_json(),
        ClusterEventTrace(
            (
                ClusterEvent(4, "failure", (3,)),
                ClusterEvent(12, "recovery", (3,)),
            )
        ).to_json(),
    ]


def _group_specs(**fields):
    base = RunSpec(
        scenario=fields.pop("scenario", "pruning"), num_layers=24,
        pp_stages=4, iterations=24, **fields,
    )
    return [base.with_(cluster_events=trace) for trace in _traces()]


class _Counts:
    """Counts scenario builds, scheme constructions, scheme steps and
    recordings while installed."""

    def __init__(self, monkeypatch, scheme_cls):
        import repro.experiments.common as common
        from repro.dynamics.base import ReplayScheme

        self.builds = self.schemes = self.steps = self.recordings = 0
        build, init, step = common.build_scenario, scheme_cls.__init__, scheme_cls.step
        record = ReplayScheme.__init__

        def counting_build(*args, **kwargs):
            self.builds += 1
            return build(*args, **kwargs)

        def counting_init(obj, *args, **kwargs):
            self.schemes += 1
            init(obj, *args, **kwargs)

        def counting_step(obj, k, states):
            self.steps += 1
            return step(obj, k, states)

        def counting_record(obj, *args, **kwargs):
            self.recordings += 1
            record(obj, *args, **kwargs)

        monkeypatch.setattr(common, "build_scenario", counting_build)
        monkeypatch.setattr(scheme_cls, "__init__", counting_init)
        monkeypatch.setattr(scheme_cls, "step", counting_step)
        monkeypatch.setattr(ReplayScheme, "__init__", counting_record)


class TestGroupedDraws:
    """Consecutive specs that differ only in ``cluster_events`` share
    one scenario, one recorded scheme trajectory and one iteration
    cache; every record stays what its solo run produces."""

    def draws(self, scenario="pruning", mode="megatron"):
        base = RunSpec(scenario=scenario, mode=mode, pp_stages=8, iterations=40)
        dist = TraceDistribution(failure_rate=0.1, recover_after=10)
        specs = sample_specs(base, 32, dist)
        assert len(set(specs)) == 32
        return specs

    @pytest.mark.parametrize(
        "where,scenario,mode,scheme_cls",
        [
            ("inline", "pruning", "megatron", PruningDynamism),
            ("pool chunk", "pruning", "megatron", PruningDynamism),
            ("inline", "moe", "tutel", TutelMoEBaseline),
            ("pool chunk", "moe", "tutel", TutelMoEBaseline),
            ("inline", "freezing", "egeria", EgeriaBaseline),
            ("pool chunk", "freezing", "egeria", EgeriaBaseline),
        ],
        ids=[
            "inline", "pool chunk", "tutel-inline", "tutel-pool chunk",
            "egeria-inline", "egeria-pool chunk",
        ],
    )
    def test_a_group_builds_one_scenario_and_one_scheme(
        self, where, scenario, mode, scheme_cls, monkeypatch
    ):
        """The Tutel and Egeria baselines wrap their scenario's scheme
        and are recorded and replayed like any other scheme."""
        from repro.orchestrator.runner import _execute_chunk

        counts = _Counts(monkeypatch, scheme_cls)
        specs = self.draws(scenario, mode)
        if where == "inline":
            records = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        else:
            records = _execute_chunk(specs, None)
        assert [r.status for r in records] == ["ok"] * 32
        assert counts.builds == 1
        assert counts.schemes == 1 and counts.recordings == 1
        # the scheme stepped once through the run, not once per draw
        assert counts.steps == 40

    @pytest.mark.parametrize(
        "fields",
        [
            {"scenario": "moe"},
            {"scenario": "pruning", "mode": "dynmo-partition"},
            {"scenario": "freezing", "mode": "dynmo-diffusion"},
            {"scenario": "sparse_attention"},
            {"scenario": "early_exit", "mode": "dynmo-partition"},
            {"scenario": "mod", "mode": "dynmo-partition"},
            {"scenario": "pruning", "mode": "dynmo-partition", "static_scheme": True},
            {"scenario": "moe", "mode": "tutel"},
            {"scenario": "freezing", "mode": "egeria"},
            {"scenario": "sparse_attention", "mode": "dense-baseline"},
        ],
        ids=lambda f: "-".join(str(v) for v in f.values()),
    )
    def test_grouped_records_equal_solo_runs(self, fields):
        specs = _group_specs(**fields)
        grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        solo = [execute_spec(spec) for spec in specs]
        assert [r.status for r in grouped] == ["ok"] * len(specs)
        assert [_strip(r) for r in grouped] == [_strip(r) for r in solo]

    def test_a_draw_reuses_earlier_draws_prices(self, monkeypatch):
        """Iterations before a draw's first event were priced by the
        event-free draw before it: the group prices them once."""
        lanes = []
        real = batched_mod.simulate_many

        def counting(requests):
            lanes.append(len(requests))
            return real(requests)

        monkeypatch.setattr(batched_mod, "simulate_many", counting)
        calm, failing = _group_specs()[0], _group_specs()[3]  # fails at 7
        priced = []
        for specs in ([calm], [failing], [calm, failing]):
            lanes.clear()
            SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
            priced.append(sum(lanes))
        alone_calm, alone_failing, grouped = priced
        # iterations 0-6 share one state, placement and plan
        assert grouped - alone_calm == alone_failing - 1

    def test_a_spec_alone_records_no_trajectory(self, monkeypatch):
        """A seed-1 spec between two draws of one group does not split
        it: the draws share one recording, and the spec alone steps its
        own scheme and records nothing."""
        counts = _Counts(monkeypatch, PruningDynamism)
        a, b, c = _group_specs()[1:4]
        specs = [a, b.with_(seed=1), c]
        records = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        assert [r.spec for r in records] == specs
        assert counts.recordings == 1
        assert counts.builds == counts.schemes == 2

    def test_runner_calls_share_nothing(self, monkeypatch):
        counts = _Counts(monkeypatch, PruningDynamism)
        specs = _group_specs()
        runner = SweepRunner(policy=ExecutionPolicy("inline"))
        first = runner.run(specs)
        again = runner.run(specs)
        assert counts.builds == counts.recordings == 2
        assert [_strip(r) for r in first] == [_strip(r) for r in again]

    @pytest.mark.parametrize("fault", ["timeout recording", "timeout replaying", "error"])
    def test_members_after_a_failed_one_match_their_solo_runs(self, fault, monkeypatch):
        """A member that raises leaves the group and the others run on.
        A raising setup leaves the group unbuilt, so the next member
        builds and records afresh and nothing half-built is served; a
        member's own build or step failing rebuilds nothing."""
        from repro.dynamics.base import ReplayScheme
        from repro.orchestrator.runner import SweepTimeout

        specs = _group_specs()
        solo = [execute_spec(spec) for spec in specs]
        counts = _Counts(monkeypatch, PruningDynamism)
        if fault == "error":
            # rank 99 does not exist: the second member's Trainer raises
            specs[1] = specs[1].with_(
                cluster_events=ClusterEventTrace(
                    (ClusterEvent(5, "failure", (99,)),)
                ).to_json()
            )
        else:
            # an alarm that lands mid-step, in the first member's
            # recording or in the second member's replay
            cls = PruningDynamism if fault == "timeout recording" else ReplayScheme
            step, starts = cls.step, []

            def alarmed_step(obj, k, states):
                starts.extend([k] if k == 0 else [])
                if k == 5 and len(starts) == 1 + (cls is ReplayScheme):
                    raise SweepTimeout("exceeded 1s budget")
                return step(obj, k, states)

            monkeypatch.setattr(cls, "step", alarmed_step)
        grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        failed = 0 if fault == "timeout recording" else 1
        want = "error" if fault == "error" else "timeout"
        assert grouped[failed].status == want
        others = [j for j in range(len(specs)) if j != failed]
        assert [_strip(grouped[j]) for j in others] == [_strip(solo[j]) for j in others]
        assert counts.builds == (2 if fault == "timeout recording" else 1)

    # -- one window loop: decide in turn, price the union once, fold ------

    @staticmethod
    def _count_calls(monkeypatch):
        """Record the lane count of every ``simulate_many`` call."""
        calls = []
        real = batched_mod.simulate_many

        def counting(requests):
            calls.append(len(requests))
            return real(requests)

        monkeypatch.setattr(batched_mod, "simulate_many", counting)
        return calls

    @pytest.mark.parametrize("where", ["inline", "pool chunk"])
    def test_a_group_prices_its_window_in_one_call(self, where, monkeypatch):
        """Every draw decides the 40-iteration window, then one call
        prices every key any of them missed, each once."""
        from repro.orchestrator.runner import _execute_chunk
        from repro.training.trainer import Trainer

        specs = self.draws()
        keys = set()
        real_key = Trainer._cache_key

        def recording_key(trainer):
            key = real_key(trainer)
            keys.add(key)
            return key

        with monkeypatch.context() as m:
            m.setattr(Trainer, "_cache_key", recording_key)
            for spec in specs:
                execute_spec(spec)
        calls = self._count_calls(monkeypatch)
        if where == "inline":
            records = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        else:
            records = _execute_chunk(specs, None)
        assert [r.status for r in records] == ["ok"] * 32
        assert calls == [len(keys)]

    def test_grouped_records_equal_solo_runs_across_window_edges(self, monkeypatch):
        """With 16-iteration windows a 40-iteration group spans three,
        and its union of misses reaches WINDOW lanes before the last
        draw decides: priced at once, the draws decided so far fold."""
        import repro.training.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "WINDOW", 16)
        specs = self.draws()
        solo = [execute_spec(spec) for spec in specs]
        calls = self._count_calls(monkeypatch)
        grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        assert [_strip(r) for r in grouped] == [_strip(r) for r in solo]
        assert max(calls) >= 16 and len(calls) > 3

    @pytest.mark.parametrize("where", ["inline", "pool chunk"])
    def test_a_member_failing_mid_window_leaves_the_others_solo(self, where):
        """A trace that fails every stage of a 4-stage run at iteration
        9 raises while that draw decides: it lands an error record, and
        every other draw still lands its solo record."""
        from repro.orchestrator.runner import _execute_chunk

        specs = _group_specs()
        specs[2] = specs[2].with_(
            cluster_events=ClusterEventTrace(
                (ClusterEvent(9, "failure", (0, 1, 2, 3)),)
            ).to_json()
        )
        solo = [execute_spec(spec) for spec in specs]
        if where == "inline":
            grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        else:
            grouped = _execute_chunk(specs, None)
        assert grouped[2].status == "error"
        assert grouped[2].error_type == "RuntimeError"
        assert "killed every pipeline stage" in grouped[2].error
        others = [0, 1, 3, 4]
        assert [_strip(grouped[j]) for j in others] == [_strip(solo[j]) for j in others]

    def test_a_stop_during_a_group_lands_none_of_its_members(
        self, tmp_path, monkeypatch
    ):
        """SIGINT while the third draw folds: the spec before the group
        lands, no draw of the group does, and a resume runs exactly the
        group to the records an uninterrupted sweep lands."""
        import os
        import signal

        from repro.orchestrator import SweepInterrupted, SweepJournal
        from repro.training.trainer import Trainer

        alone = _group_specs()[0].with_(seed=1)
        specs = [alone, *_group_specs()]
        baseline = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)

        real, starts = Trainer._post_iteration, []

        def interrupting(trainer, st, k, res):
            starts.extend([k] if k == 0 else [])
            if k == 5 and len(starts) == 4:  # the alone spec folds first
                os.kill(os.getpid(), signal.SIGINT)
            real(trainer, st, k, res)

        path = tmp_path / "j.jsonl"
        with monkeypatch.context() as m:
            m.setattr(Trainer, "_post_iteration", interrupting)
            with SweepJournal(path) as journal:
                with pytest.raises(SweepInterrupted) as info:
                    SweepRunner(
                        policy=ExecutionPolicy("inline"), journal=journal
                    ).run(specs)
        assert [r.spec for r in info.value.records] == [alone]
        with SweepJournal(path) as journal:
            assert set(journal.prior) == {alone.spec_hash}
            resumed = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run(specs)
        for a, b in zip(baseline, resumed):
            da, db = _strip(a), _strip(b)
            da.pop("cached"), db.pop("cached")  # the alone spec is served
            assert da == db


# ---------------------------------------------------------------------------
# trajectory groups: the contender modes of one scenario, shape and seed


def _other_values(mode):
    """A second value for every field a group's members may differ in.
    A measured balance cost charges real wall time, so only the modes
    that run no balancer take it."""
    return {
        "weight_by": "param",
        "balance_cost": "modeled" if mode.startswith("dynmo") else "measured",
        "repack": True,
        "repack_target": 2,
        "repack_force": True,
        "placement": "scattered",
        "cluster_events": _traces()[2],  # a straggler window
        "elastic_total_gpus": 64,
        "memory_limit": "auto",
        "tag": "other",
    }


class TestTrajectoryGroups:
    """Specs that step one trajectory — the contender modes of one
    scenario, shape and seed, whatever their placement, balancer,
    memory, elasticity and event fields — share one scenario, one
    recording and one iteration cache, wherever they stand in the
    sweep; every record stays what its solo run produces."""

    def grid(self):
        """pruning and moe x the four modes x two seeds, in the order
        ``repro sweep`` builds it (scenario, then mode, then seed)."""
        return [
            RunSpec(scenario=scenario, mode=mode, seed=seed, pp_stages=4,
                    iterations=24)
            for scenario in ("pruning", "moe")
            for mode in SCENARIO_SCHEME_MODES
            for seed in (0, 1)
        ]

    @pytest.mark.parametrize("where", ["inline", "pool chunk"])
    def test_a_sweep_grid_builds_one_scenario_and_recording_per_seed(
        self, where, monkeypatch
    ):
        from repro.orchestrator.runner import _execute_chunk, _trajectory_order

        counts = _Counts(monkeypatch, PruningDynamism)
        specs = self.grid()
        if where == "inline":
            records = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        else:
            # one chunk holding the grid in the order the runner hands
            # a pool its pending specs
            order = _trajectory_order(specs, list(range(len(specs))))
            chunk = _execute_chunk([specs[i] for i in order], None)
            records = [chunk[order.index(i)] for i in range(len(specs))]
        assert [r.status for r in records] == ["ok"] * 16
        assert counts.builds == counts.recordings == 4
        # each pruning seed's scheme is built once and stepped once
        assert counts.schemes == 2 and counts.steps == 2 * 24

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_grouped_records_equal_solo_runs(self, scenario, monkeypatch):
        """The four modes at every field's default, then at a second
        value of every field the key lets differ: one group of eight."""
        base = RunSpec(scenario=scenario, pp_stages=4, dp_ways=2, iterations=24)
        specs = [base.with_(mode=mode) for mode in SCENARIO_SCHEME_MODES] + [
            base.with_(mode=mode, **_other_values(mode)) for mode in SCENARIO_SCHEME_MODES
        ]
        solo = [execute_spec(spec) for spec in specs]
        counts = _Counts(monkeypatch, PruningDynamism)
        grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        assert counts.builds == counts.recordings == 1
        assert [r.status for r in grouped] == ["ok"] * len(specs)
        assert [_strip(r) for r in grouped] == [_strip(r) for r in solo]

    @pytest.mark.parametrize(
        "scenario,apart",
        [
            ("pruning", {"seed": 1}),
            ("pruning", {"schedule": "1f1b"}),
            ("pruning", {"num_layers": 32}),
            ("pruning", {"static_scheme": True}),
            ("moe", {"mode": "tutel"}),
            ("sparse_attention", {"mode": "dense-baseline"}),
        ],
        ids=["seed", "schedule", "num_layers", "static_scheme", "tutel",
             "dense-baseline"],
    )
    def test_a_kept_field_splits_a_group(self, scenario, apart, monkeypatch):
        """Megatron and DynMo share a recording across a spec that
        differs in a field the key keeps, which runs alone."""
        megatron = RunSpec(scenario=scenario, pp_stages=4, iterations=24)
        specs = [
            megatron,
            megatron.with_(**apart),
            megatron.with_(mode="dynmo-partition"),
        ]
        solo = [execute_spec(spec) for spec in specs]
        counts = _Counts(monkeypatch, PruningDynamism)
        grouped = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)
        assert counts.builds == 2 and counts.recordings == 1
        assert [r.status for r in grouped] == ["ok"] * 3
        assert [_strip(r) for r in grouped] == [_strip(r) for r in solo]

    def test_records_keep_the_input_order(self):
        """Records come back in the caller's order; progress follows
        the order of execution, group by group."""
        specs = self.grid()
        progress = []
        records = SweepRunner(
            policy=ExecutionPolicy("inline"),
            progress=lambda done, total, record: progress.append(record.spec),
        ).run(specs)
        assert [r.spec for r in records] == specs
        assert progress == [
            spec.with_(mode=mode)
            for spec in specs
            if spec.mode == "megatron"
            for mode in SCENARIO_SCHEME_MODES
        ]

    def test_a_stop_during_a_mixed_mode_group_lands_none_of_its_members(
        self, tmp_path, monkeypatch
    ):
        """SIGINT while the seed-1 group's third member folds: the
        seed-0 group lands, no member of the seed-1 group does, and a
        resume runs exactly that group to the records an uninterrupted
        sweep lands."""
        import os
        import signal

        from repro.orchestrator import SweepInterrupted, SweepJournal
        from repro.training.trainer import Trainer

        specs = self.grid()[:8]  # pruning x four modes x two seeds
        baseline = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)

        real, starts = Trainer._post_iteration, []

        def interrupting(trainer, st, k, res):
            starts.extend([k] if k == 0 else [])
            if k == 5 and len(starts) == 7:  # the seed-0 group folds first
                os.kill(os.getpid(), signal.SIGINT)
            real(trainer, st, k, res)

        path = tmp_path / "j.jsonl"
        with monkeypatch.context() as m:
            m.setattr(Trainer, "_post_iteration", interrupting)
            with SweepJournal(path) as journal:
                with pytest.raises(SweepInterrupted) as info:
                    SweepRunner(
                        policy=ExecutionPolicy("inline"), journal=journal
                    ).run(specs)
        seed0 = [spec for spec in specs if spec.seed == 0]
        assert [r.spec for r in info.value.records] == seed0
        with SweepJournal(path) as journal:
            assert set(journal.prior) == {spec.spec_hash for spec in seed0}
            resumed = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run(specs)
        for a, b in zip(baseline, resumed):
            da, db = _strip(a), _strip(b)
            da.pop("cached"), db.pop("cached")  # the seed-0 group is served
            assert da == db

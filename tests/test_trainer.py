"""Tests for TrainingConfig and Trainer."""

import numpy as np
import pytest

from repro.cluster.job_manager import ElasticJobManager
from repro.core import DynMoConfig, DynMoController
from repro.dynamics import FreezingDynamism, StaticScheme
from repro.experiments.common import SCENARIOS, build_scenario, make_scheme, make_trainer
from repro.model.cost import (
    ATTN_DENSITY,
    DROPPABLE_BWD,
    FROZEN,
    MOE_MULTIPLIER,
    SPARSITY,
    TOKEN_FRACTION,
    fresh_states,
)
from repro.pipeline import PipelinePlan
from repro.training import Trainer, TrainingConfig
from repro.training.trainer import states_fingerprint


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.micro_batches == 4 * cfg.pp_stages
        assert cfg.total_gpus == cfg.pp_stages * cfg.dp_ways

    def test_explicit_micro(self):
        assert TrainingConfig(num_micro=7).micro_batches == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainingConfig(pp_stages=0)
        with pytest.raises(ValueError):
            TrainingConfig(dp_ways=-1)


class TestFingerprint:
    def test_stable(self):
        a = fresh_states(4)
        b = fresh_states(4)
        assert states_fingerprint(a) == states_fingerprint(b)

    def test_sensitive_to_changes(self):
        a = fresh_states(4)
        b = fresh_states(4)
        b[2, SPARSITY] = 0.5
        assert states_fingerprint(a) != states_fingerprint(b)

    def test_sensitive_to_flags(self):
        a, b = fresh_states(2), fresh_states(2)
        b[0, FROZEN] = True
        assert states_fingerprint(a) != states_fingerprint(b)


class TestTrainer:
    def _trainer(self, cost, specs, comm=None, controller=None, iters=20, **kw):
        cfg = TrainingConfig(
            iterations=iters, pp_stages=4, dp_ways=1, record_every=5, **kw
        )
        scheme = StaticScheme(specs)
        return Trainer(cfg, cost, scheme, comm=comm, controller=controller)

    def test_static_run_completes(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        assert res.iterations == 20
        assert res.total_time_s > 0
        assert res.tokens_per_s > 0
        assert res.total_tokens == 20 * 2 * 2048 * 16  # iters*mb*seq*micros

    def test_static_iterations_memoised(self, gpt24_cost, gpt24_specs):
        """Static model: every iteration identical -> history flat."""
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        spans = [m for _, m in res.makespan_history]
        assert all(s == pytest.approx(spans[0]) for s in spans)

    def test_run_iterations_override(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs, iters=50).run(iterations=5)
        assert res.iterations == 5

    def test_dynmo_beats_static_on_freezing(self, gpt24_cost, gpt24_specs, comm):
        cfg = TrainingConfig(iterations=60, pp_stages=4, dp_ways=1, record_every=10)
        mk = lambda: FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        static = Trainer(cfg, gpt24_cost, mk(), comm=comm).run()
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        dyn = Trainer(cfg, gpt24_cost, mk(), comm=comm, controller=ctl).run()
        assert dyn.tokens_per_s > static.tokens_per_s
        assert dyn.mean_bubble_ratio < static.mean_bubble_ratio

    def test_overhead_reported(self, gpt24_cost, gpt24_specs, comm):
        cfg = TrainingConfig(iterations=30, pp_stages=4, dp_ways=1)
        scheme = FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig())
        res = Trainer(cfg, gpt24_cost, scheme, comm=comm, controller=ctl).run()
        assert res.overhead_s > 0
        assert res.overhead_fraction < 0.2

    def test_job_manager_integration(self, gpt24_cost, gpt24_specs, comm):
        jm = ElasticJobManager(total_gpus=8)
        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=2)
        t = Trainer(
            cfg, gpt24_cost, StaticScheme(gpt24_specs), comm=comm, job_manager=jm
        )
        assert jm.claims["train"] == 8
        res = t.run()
        assert res.average_gpus == pytest.approx(8.0)

    def test_stage_count_history(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        assert all(s == 4 for _, s in res.stage_count_history)


class TestRunOwnsItsPlacement:
    def test_shared_controller_prices_the_runs_own_placement(self):
        """A controller handed to a second Trainer holds no placement of
        the first run: the second run prices its migrations on its own
        ranks, as it would with a controller of its own.  (Re-packing is
        off: the gate's reference load belongs to the controller.)"""
        setup = build_scenario(
            "pruning",
            num_layers=24,
            pp_stages=8,
            dp_ways=1,
            iterations=60,
            cluster="2x8+2x4:a100",
        )
        mode = "dynmo-partition"
        packed = make_trainer(setup, mode, balance_cost="modeled", placement="packed")
        packed.run()
        own = make_trainer(setup, mode, balance_cost="modeled", placement="scattered")
        shared = Trainer(
            own.cfg,
            own.cost,
            make_scheme(setup, mode),
            comm=own.comm,
            controller=packed.controller,
            initial_plan=own.plan,
        )
        assert shared.placement == own.placement != packed.placement
        assert shared.run() == own.run()


class TestIterationCache:
    """The per-trainer iteration memoiser: bounded LRU + version-gated
    state fingerprinting."""

    def _trainer(self, cost, specs, iters=10):
        cfg = TrainingConfig(iterations=iters, pp_stages=4, dp_ways=1)
        return Trainer(cfg, cost, StaticScheme(specs))

    @staticmethod
    def _price(t, plan):
        """Look ``plan`` up in the cache, pricing it on a miss the way
        Trainer.run does (one lane through prewarm)."""
        t.plan = plan
        key = t._cache_key()
        if t._cache_lookup(key) is None:
            t.prewarm({key: (plan, t.states, t.placement)}, {})

    def test_lru_evicts_oldest_not_everything(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 4
        plans = [PipelinePlan.uniform(26, s) for s in (2, 3, 4, 5)]
        for p in plans:
            self._price(t, p)
        assert len(t._cache) == 4
        # touch the oldest so it becomes most-recent ...
        self._price(t, plans[0])
        # ... then overflow: plans[1] (now the LRU entry) is evicted
        self._price(t, PipelinePlan.uniform(26, 6))
        assert len(t._cache) == 4
        keys = list(t._cache)
        assert all(k[0] != plans[1].boundaries for k in keys)
        assert any(k[0] == plans[0].boundaries for k in keys)

    def test_cache_capacity_bounds_size(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 3
        for s in range(2, 9):
            self._price(t, PipelinePlan.uniform(26, s))
        assert len(t._cache) == 3

    def test_fingerprint_skipped_while_version_unchanged(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        t = self._trainer(gpt24_cost, gpt24_specs)
        calls = []
        import repro.training.trainer as trainer_mod

        real = trainer_mod.states_fingerprint
        monkeypatch.setattr(
            trainer_mod,
            "states_fingerprint",
            lambda states: calls.append(1) or real(states),
        )
        t.run()  # StaticScheme: version never changes
        assert len(calls) == 1

    def test_fingerprint_recomputed_on_version_bump(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        k1 = t._states_key()
        assert t._states_key() == k1  # memoised
        t.states[2, SPARSITY] = 0.5
        t.scheme.version += 1  # what advance() does on a change
        k2 = t._states_key()
        assert k2 != k1

    def test_scheme_advance_bumps_version_only_on_change(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        states = scheme.initial_states()
        v0 = scheme.version
        scheme.advance(1, states)  # not a freeze step
        assert scheme.version == v0
        scheme.advance(30, states)  # freeze step well past tau0 (noisy)
        assert scheme.version > v0

    def test_states_fingerprint_pinned_digest(self):
        """The fingerprint hashes the bytes of the ``(L, 6)`` state
        array, the layout the cost model prices; the digest of this
        fixed vector predates that array and must not move
        (iteration-cache keys and traces compare digests)."""
        states = fresh_states(5)
        states[1, ATTN_DENSITY] = 0.25
        states[2, SPARSITY] = 0.75
        states[2, FROZEN] = True
        states[3, DROPPABLE_BWD] = True
        states[3, FROZEN] = True
        states[4, TOKEN_FRACTION] = 0.5
        states[4, MOE_MULTIPLIER] = 1.5
        assert states_fingerprint(states).hex() == "91f7cccf5c232bdaea6e90f58206c16f"


class TestPrewarmAndLockstep:
    """The batched Trainer fast path and the lockstep driver."""

    def _trainer(self, cost, specs, scheme=None, iters=30, **kw):
        cfg = TrainingConfig(
            iterations=iters, pp_stages=4, dp_ways=1, record_every=5, **kw
        )
        return Trainer(cfg, cost, scheme or StaticScheme(specs))

    def test_prewarm_seeds_cache_and_matches(self, gpt24_cost, gpt24_specs):
        """prewarm prices its lanes into the cache and the window's map,
        each result equal to the scalar engine's."""
        t = self._trainer(gpt24_cost, gpt24_specs)
        lanes = {}
        for stages in (2, 3, 4):
            t.plan = PipelinePlan.uniform(26, stages)
            lanes[t._cache_key()] = (t.plan, t.states.copy(), None)
        priced = {}
        assert t.prewarm(lanes, priced) == 3
        assert list(priced) == list(lanes) == list(t._cache)
        for key, (plan, states, _) in lanes.items():
            assert priced[key] is t._cache[key]
            scalar = t.engine.run_iteration(plan, states)
            assert priced[key].makespan == scalar.makespan
            assert np.array_equal(priced[key].busy, scalar.busy)
        assert t.prewarm({}, priced) == 0  # an all-hit window prices nothing

    def test_prewarm_noop_for_static_scheme(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        """A static run misses once: its first window prices one lane,
        and every later window is served by the cache with no engine
        call at all."""
        import repro.pipeline.batched as batched_mod
        import repro.training.trainer as trainer_mod

        calls = []
        real = batched_mod.simulate_many
        monkeypatch.setattr(
            batched_mod,
            "simulate_many",
            lambda requests: calls.append(len(requests)) or real(requests),
        )
        monkeypatch.setattr(trainer_mod, "WINDOW", 7)
        self._trainer(gpt24_cost, gpt24_specs).run()  # 30 iterations, 5 windows
        assert calls == [1]

    def test_run_prewarm_auto_is_bit_identical(self, gpt24_cost, gpt24_specs):
        """run() prices in windows; a one-run lockstep call prices every
        miss right after deciding it, on the scalar engine."""
        from repro.training import run_trainers_lockstep

        mk = lambda: FreezingDynamism(gpt24_specs, freeze_every=4, tau0=4, seed=3)  # noqa: E731
        auto = self._trainer(gpt24_cost, gpt24_specs, scheme=mk()).run()
        (scalar,) = run_trainers_lockstep(
            [(self._trainer(gpt24_cost, gpt24_specs, scheme=mk()), None)]
        )
        assert auto == scalar

    def test_lockstep_matches_solo_runs(self, gpt24_cost, gpt24_specs):
        from repro.training import run_trainers_lockstep

        mk = lambda seed: FreezingDynamism(  # noqa: E731
            gpt24_specs, freeze_every=4, tau0=4, seed=seed
        )
        trainers = [
            self._trainer(gpt24_cost, gpt24_specs, scheme=mk(seed))
            for seed in range(3)
        ]
        outcomes = run_trainers_lockstep([(t, None) for t in trainers])
        for seed, outcome in enumerate(outcomes):
            solo = self._trainer(gpt24_cost, gpt24_specs, scheme=mk(seed)).run()
            assert outcome.total_time_s == solo.total_time_s
            assert outcome.makespan_history == solo.makespan_history

    def test_lockstep_isolates_failures(self, gpt24_cost, gpt24_specs):
        from repro.training import run_trainers_lockstep

        class Exploding(StaticScheme):
            def step(self, k, states):
                if k == 5:
                    raise RuntimeError("boom")
                return False

        bad = self._trainer(gpt24_cost, gpt24_specs, scheme=Exploding(gpt24_specs))
        good = self._trainer(gpt24_cost, gpt24_specs)
        outcomes = run_trainers_lockstep([(bad, None), (good, None)])
        assert isinstance(outcomes[0], RuntimeError)
        assert outcomes[1].iterations == 30

    def test_lockstep_batched_errors_are_run_outcomes(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        """An exception from the shared simulate_many call becomes the
        outcome of every run that missed in it; nothing is re-simulated
        on the scalar engine."""
        import repro.training.lockstep as lockstep_mod
        from repro.pipeline.engine import PipelineEngine

        boom = RuntimeError("batched engine bug")

        def broken(requests):
            raise boom

        scalar_calls = []
        real = PipelineEngine.run_iteration

        def counting(self, plan, states):
            scalar_calls.append(plan)
            return real(self, plan, states)

        monkeypatch.setattr(lockstep_mod, "simulate_many", broken)
        monkeypatch.setattr(PipelineEngine, "run_iteration", counting)
        trainers = [self._trainer(gpt24_cost, gpt24_specs) for _ in range(2)]
        outcomes = lockstep_mod.run_trainers_lockstep([(t, None) for t in trainers])
        assert all(outcome is boom for outcome in outcomes)
        assert scalar_calls == []

    def test_lockstep_mixed_iteration_counts(self, gpt24_cost, gpt24_specs):
        from repro.training import run_trainers_lockstep

        a = self._trainer(gpt24_cost, gpt24_specs, iters=7)
        b = self._trainer(gpt24_cost, gpt24_specs, iters=23)
        out_a, out_b = run_trainers_lockstep([(a, None), (b, None)])
        assert out_a.iterations == 7
        assert out_b.iterations == 23


def _spec_trainer(spec):
    from repro.orchestrator.runner import _spec_scenario_and_trainer

    return _spec_scenario_and_trainer(spec)[1]


def _events_json() -> str:
    """A failure, its recovery and a straggler window."""
    from repro.cluster.events import ClusterEvent, ClusterEventTrace

    return ClusterEventTrace(
        (
            ClusterEvent(10, "failure", (2,)),
            ClusterEvent(30, "recovery", (2,)),
            ClusterEvent(35, "straggler", (4,), duration=8, slowdown=1.5),
        )
    ).to_json()


#: runs whose window edges are checked: a controller invoked every
#: iteration, a memory-limited diffusion run, and an event trace with
#: forced re-packing on a mixed cluster
WINDOW_SPECS = {
    "dynmo-partition": dict(scenario="mod", mode="dynmo-partition"),
    "dynmo-diffusion-4e9": dict(
        scenario="freezing", mode="dynmo-diffusion", memory_limit="4e9"
    ),
    "events-repack": dict(
        scenario="pruning",
        mode="dynmo-diffusion",
        cluster="2x8+2x4:a100",
        cluster_events=_events_json(),
        repack=True,
        repack_target=4,
        repack_force=True,
    ),
}


class TestDecidePriceFold:
    """Trainer.run decides a window of iterations, prices its cache
    misses in one batched call, then folds the terms in order."""

    @pytest.mark.parametrize("case", sorted(WINDOW_SPECS))
    def test_window_edges_are_bit_identical(self, case, monkeypatch):
        """Window edges move nothing: at 7, a 150-iteration run has 21
        of them, and a controller invoked first in a window reads the
        makespan of the previous window's last iteration."""
        import repro.training.trainer as trainer_mod
        from repro.orchestrator import RunSpec

        spec = RunSpec(iterations=150, **WINDOW_SPECS[case])
        results = []
        for window in (1, 7, trainer_mod.WINDOW):
            monkeypatch.setattr(trainer_mod, "WINDOW", window)
            results.append(_spec_trainer(spec).run())
        # a one-entry cache evicts inside every window: the fold reads
        # the window's own results, not the cache
        evicting = _spec_trainer(spec)
        evicting._cache_capacity = 1
        results.append(evicting.run())
        assert all(r == results[0] for r in results)
        res = results[0]
        assert res.overhead_s > 0
        if case == "dynmo-partition":
            assert _spec_trainer(spec).scheme.rebalance_every == 1
        elif case == "dynmo-diffusion-4e9":
            assert res.peak_stage_bytes > 0
        else:
            assert res.cluster_events_applied and res.released_ranks_history

    def test_no_scalar_pricing(self, monkeypatch):
        """An inline controller run prices every miss inside
        simulate_many, one call per window: no scalar engine call of
        its own."""
        import repro.pipeline.batched as batched_mod
        import repro.training.trainer as trainer_mod
        from repro.orchestrator import RunSpec
        from repro.pipeline.engine import PipelineEngine

        inside = []
        batched_calls = []
        outside = []
        real_many = batched_mod.simulate_many
        real_scalar = PipelineEngine.run_iteration

        def spy_many(requests):
            batched_calls.append(len(requests))
            inside.append(True)
            try:
                return real_many(requests)
            finally:
                inside.pop()

        def spy_scalar(self, plan, states):
            if not inside:
                outside.append(plan)
            return real_scalar(self, plan, states)

        monkeypatch.setattr(batched_mod, "simulate_many", spy_many)
        monkeypatch.setattr(PipelineEngine, "run_iteration", spy_scalar)
        spec = RunSpec(scenario="mod", mode="dynmo-partition", iterations=150)
        for window, windows in ((None, 1), (50, 3)):
            if window is not None:
                monkeypatch.setattr(trainer_mod, "WINDOW", window)
            batched_calls.clear()
            _spec_trainer(spec).run()
            assert outside == []
            assert len(batched_calls) == windows
            assert sum(batched_calls) > 100  # most iterations miss

    def test_decide_error_is_the_outcome(self, gpt24_cost, gpt24_specs):
        """An exception while deciding iteration k is the run's outcome,
        even with earlier iterations of its window still unpriced."""

        class Exploding(StaticScheme):
            def step(self, k, states):
                if k == 5:
                    raise RuntimeError("boom")
                return False

        cfg = TrainingConfig(iterations=30, pp_stages=4, dp_ways=1)
        t = Trainer(cfg, gpt24_cost, Exploding(gpt24_specs))
        with pytest.raises(RuntimeError, match="boom"):
            t.run()
        assert not t._cache  # nothing was priced

    def test_deadline_checked_while_deciding_and_folding(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        """The wall-clock budget is checked between iterations in both
        phases, with one message."""
        import repro.training.trainer as trainer_mod
        from repro.training.trainer import RunDeadlineExceeded

        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=1)
        clock = iter([0.0] + [0.0] * 10 + [5.0])  # start, 10 decides, fold 0
        monkeypatch.setattr(trainer_mod.time, "monotonic", lambda: next(clock))
        t = Trainer(cfg, gpt24_cost, StaticScheme(gpt24_specs))
        with pytest.raises(RunDeadlineExceeded, match=r"iteration 0/10"):
            t.run(deadline_s=1.0)
        assert t._cache  # the window was priced before the fold ran out

        clock = iter([0.0, 0.0, 0.0, 5.0])  # start, decide 0, decide 1, decide 2
        monkeypatch.setattr(trainer_mod.time, "monotonic", lambda: next(clock))
        t = Trainer(cfg, gpt24_cost, StaticScheme(gpt24_specs))
        with pytest.raises(RunDeadlineExceeded, match=r"exceeded 1s budget .*iteration 2/10"):
            t.run(deadline_s=1.0)
        assert not t._cache

    def test_stop_checked_while_deciding_and_folding(self, gpt24_cost, gpt24_specs):
        """A set stop event ends the run at its next iteration, in
        either phase, with RunInterrupted."""
        import threading

        from repro.training.trainer import RunInterrupted

        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=1)
        stop = threading.Event()

        class Stopping(StaticScheme):
            def step(self, k, states):
                if k == 2:
                    stop.set()
                return False

        t = Trainer(cfg, gpt24_cost, Stopping(gpt24_specs))
        with pytest.raises(RunInterrupted, match=r"iteration 3/10"):
            t.run(stop=stop)
        assert not t._cache  # stopped while deciding: nothing priced

        stop.clear()
        real = Trainer._post_iteration

        def folding(self, st, k, res):
            if k == 4:
                stop.set()
            real(self, st, k, res)

        t = Trainer(cfg, gpt24_cost, StaticScheme(gpt24_specs))
        t._post_iteration = folding.__get__(t)
        with pytest.raises(RunInterrupted, match=r"iteration 5/10"):
            t.run(stop=stop)
        assert t._cache  # the window was priced before the fold stopped


#: every built-in scheme a RunSpec can select: each scenario's own
#: scheme, plus the baseline wrappers
BUILTIN_SCHEMES = [
    (scenario, mode)
    for scenario in SCENARIOS
    for mode in ("megatron", "dynmo-partition")
] + [
    ("moe", "tutel"),
    ("freezing", "egeria"),
    ("sparse_attention", "dense-baseline"),
    ("early_exit", "dense-baseline"),
]


class TestSchemeDeepcopy:
    """Copies of one run's scheme, each built from the scenario the way
    a sweep builds it, replay the same states when interleaved.  An
    in-process sweep steps many runs' schemes in one process, so a
    scheme must share no state (an RNG, a buffer) with another one."""

    @pytest.mark.parametrize("scenario,mode", BUILTIN_SCHEMES)
    def test_copy_replays_same_fingerprints(self, scenario, mode):
        iters = 150
        trainers = [
            make_trainer(build_scenario(scenario, iterations=iters), mode)
            for _ in range(2)
        ]
        schemes = [t.scheme for t in trainers]
        states = [t.states for t in trainers]
        advances = [s.advance for s in schemes]
        for k in range(iters):
            # interleaved, so any state the copies share makes them
            # diverge
            for advance, sts in zip(advances, states):
                advance(k, sts)
            assert states_fingerprint(states[0]) == states_fingerprint(states[1]), k

"""Tests for TrainingConfig and Trainer."""

import copy
import hashlib

import numpy as np
import pytest

from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.core import DynMoConfig, DynMoController
from repro.dynamics import FreezingDynamism, StaticScheme
from repro.experiments.common import SCENARIOS, build_scenario, make_trainer
from repro.model.cost import LayerState, fresh_states, state_matrix
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
        b[2].sparsity = 0.5
        assert states_fingerprint(a) != states_fingerprint(b)

    def test_sensitive_to_flags(self):
        a, b = fresh_states(2), fresh_states(2)
        b[0].frozen = True
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


class TestIterationCache:
    """The per-trainer iteration memoiser: bounded LRU + version-gated
    state fingerprinting."""

    def _trainer(self, cost, specs, iters=10):
        cfg = TrainingConfig(iterations=iters, pp_stages=4, dp_ways=1)
        return Trainer(cfg, cost, StaticScheme(specs))

    def test_lru_evicts_oldest_not_everything(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 4
        plans = [PipelinePlan.uniform(26, s) for s in (2, 3, 4, 5)]
        for p in plans:
            t.plan = p
            t._iteration_result()
        assert len(t._cache) == 4
        # touch the oldest so it becomes most-recent ...
        t.plan = plans[0]
        t._iteration_result()
        # ... then overflow: plans[1] (now the LRU entry) is evicted
        t.plan = PipelinePlan.uniform(26, 6)
        t._iteration_result()
        assert len(t._cache) == 4
        keys = list(t._cache)
        assert all(k[0] != plans[1].boundaries for k in keys)
        assert any(k[0] == plans[0].boundaries for k in keys)

    def test_cache_capacity_bounds_size(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 3
        for s in range(2, 9):
            t.plan = PipelinePlan.uniform(26, s)
            t._iteration_result()
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
        # prewarm=False: the batched prewarm dry-run hashes once itself;
        # this test pins the *run loop's* version-gated memoisation
        t.run(prewarm=False)  # StaticScheme: version never changes
        assert len(calls) == 1

    def test_fingerprint_recomputed_on_version_bump(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        k1 = t._states_key()
        assert t._states_key() == k1  # memoised
        t.states[2].sparsity = 0.5
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
        """The fingerprint hashes the cost model's state-matrix layout;
        the digest of this fixed vector predates that and must not move
        (iteration-cache keys and traces compare digests)."""
        states = fresh_states(5)
        states[1].attn_density = 0.25
        states[2].sparsity = 0.75
        states[2].frozen = True
        states[3].droppable_bwd = True
        states[3].frozen = True
        states[4].token_fraction = 0.5
        states[4].moe_multiplier = 1.5
        assert states_fingerprint(states).hex() == "91f7cccf5c232bdaea6e90f58206c16f"
        assert states_fingerprint(states) == hashlib.blake2b(
            state_matrix([states]).tobytes(), digest_size=16
        ).digest()

    def test_states_fingerprint_matches_row_loop(self):
        """Regression: the struct-of-arrays column fills must produce
        byte-identical digests to the original per-layer row loop."""

        def loop_fingerprint(states):
            out = np.empty((len(states), 6))
            for i, s in enumerate(states):
                row = out[i]
                row[0] = s.sparsity
                row[1] = 1.0 if s.frozen else 0.0
                row[2] = 1.0 if s.droppable_bwd else 0.0
                row[3] = s.attn_density
                row[4] = s.token_fraction
                row[5] = s.moe_multiplier
            return hashlib.blake2b(out.tobytes(), digest_size=16).digest()

        rng = np.random.default_rng(0)
        for _ in range(20):
            states = fresh_states(int(rng.integers(1, 40)))
            for s in states:
                s.sparsity = float(rng.uniform(0, 1))
                s.frozen = bool(rng.random() < 0.5)
                s.droppable_bwd = bool(rng.random() < 0.5)
                s.attn_density = float(rng.uniform(0, 1))
                s.token_fraction = float(rng.uniform(0, 1))
                s.moe_multiplier = float(rng.uniform(0, 3))
            assert states_fingerprint(states) == loop_fingerprint(states)


class TestPrewarmAndLockstep:
    """The batched Trainer fast path and the lockstep driver."""

    def _trainer(self, cost, specs, scheme=None, iters=30, **kw):
        cfg = TrainingConfig(
            iterations=iters, pp_stages=4, dp_ways=1, record_every=5, **kw
        )
        return Trainer(cfg, cost, scheme or StaticScheme(specs))

    def test_prewarm_seeds_cache_and_matches(self, gpt24_cost, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=5, tau0=5, seed=0)
        warm = self._trainer(gpt24_cost, gpt24_specs, scheme=scheme)
        n = warm.prewarm(30)
        assert n >= 2  # freezing visits several distinct states
        assert len(warm._cache) == n
        res_warm = warm.run(prewarm=False)  # served from the seeded cache

        cold_scheme = FreezingDynamism(gpt24_specs, freeze_every=5, tau0=5, seed=0)
        cold = self._trainer(gpt24_cost, gpt24_specs, scheme=cold_scheme)
        res_cold = cold.run(prewarm=False)
        assert res_warm.total_time_s == res_cold.total_time_s
        assert res_warm.makespan_history == res_cold.makespan_history

    def test_prewarm_noop_for_static_scheme(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        assert t.prewarm(30) == 0  # one distinct state: nothing to batch

    def test_prewarm_refused_with_controller(self, gpt24_cost, gpt24_specs, comm):
        controller = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=1)
        scheme = FreezingDynamism(gpt24_specs, freeze_every=2, tau0=2, seed=0)
        t = Trainer(cfg, gpt24_cost, scheme, comm=comm, controller=controller)
        assert t.prewarm(10) == 0

    def test_run_prewarm_auto_is_bit_identical(self, gpt24_cost, gpt24_specs):
        mk = lambda: FreezingDynamism(gpt24_specs, freeze_every=4, tau0=4, seed=3)  # noqa: E731
        auto = self._trainer(gpt24_cost, gpt24_specs, scheme=mk()).run()
        off = self._trainer(gpt24_cost, gpt24_specs, scheme=mk()).run(prewarm=False)
        assert auto.total_time_s == off.total_time_s
        assert auto.bubble_history == off.bubble_history

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

    def test_lockstep_stop_leaves_unfinished_runs_without_outcome(
        self, gpt24_cost, gpt24_specs
    ):
        import threading

        from repro.training import run_trainers_lockstep

        stop = threading.Event()

        class Stopping(StaticScheme):
            def step(self, k, states):
                if k == 3:
                    stop.set()
                return False

        done = self._trainer(gpt24_cost, gpt24_specs, iters=2)
        cut = self._trainer(gpt24_cost, gpt24_specs, scheme=Stopping(gpt24_specs))
        out_done, out_cut = run_trainers_lockstep(
            [(done, None), (cut, None)], stop=stop
        )
        assert out_done.iterations == 2
        assert out_cut is None

    def test_lockstep_deadline_times_out_runs(self, gpt24_cost, gpt24_specs):
        from repro.training import LockstepTimeout, run_trainers_lockstep

        t = self._trainer(gpt24_cost, gpt24_specs, iters=10_000)
        (outcome,) = run_trainers_lockstep([(t, None)], deadline_s=0.0)
        assert isinstance(outcome, LockstepTimeout)

    def test_lockstep_deadline_never_overwrites_finished_runs(
        self, gpt24_cost, gpt24_specs
    ):
        """Regression: a fast run that completed all its iterations
        before the deadline expired must get its TrainingResult, not be
        swept into the slow lockstep partner's LockstepTimeout."""
        import time as _time

        from repro.training import LockstepTimeout, run_trainers_lockstep

        class Slow(StaticScheme):
            def step(self, k, states):
                _time.sleep(0.2)
                return False

        fast = self._trainer(gpt24_cost, gpt24_specs, scheme=Slow(gpt24_specs), iters=1)
        slow = self._trainer(gpt24_cost, gpt24_specs, scheme=Slow(gpt24_specs), iters=50)
        # after iteration 0 (~0.4s of scheme steps) the deadline is long
        # expired; fast has no iterations left, slow has 49
        out_fast, out_slow = run_trainers_lockstep(
            [(fast, None), (slow, None)], deadline_s=0.1
        )
        assert isinstance(out_slow, LockstepTimeout)
        assert not isinstance(out_fast, BaseException)
        assert out_fast.iterations == 1

    def test_lockstep_mixed_iteration_counts(self, gpt24_cost, gpt24_specs):
        from repro.training import run_trainers_lockstep

        a = self._trainer(gpt24_cost, gpt24_specs, iters=7)
        b = self._trainer(gpt24_cost, gpt24_specs, iters=23)
        out_a, out_b = run_trainers_lockstep([(a, None), (b, None)])
        assert out_a.iterations == 7
        assert out_b.iterations == 23


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
    """Prewarm scouts a deep copy of the dynamism scheme."""

    @pytest.mark.parametrize("scenario,mode", BUILTIN_SCHEMES)
    def test_copy_replays_same_fingerprints(self, scenario, mode):
        iters = 150
        trainer = make_trainer(build_scenario(scenario, iterations=iters), mode)
        schemes = [trainer.scheme, copy.deepcopy(trainer.scheme)]
        states = [copy.deepcopy(trainer.states) for _ in schemes]
        advances = [getattr(s, "advance", s.step) for s in schemes]
        for k in range(iters):
            # interleaved, so any state the copy shares with the
            # original (an RNG, a buffer) makes the two diverge
            for advance, sts in zip(advances, states):
                advance(k, sts)
            assert states_fingerprint(states[0]) == states_fingerprint(states[1]), k

    def test_deepcopy_errors_are_not_swallowed(self):
        """Only the errors deepcopy raises for uncopyable state skip
        prewarm; anything else surfaces from the scout, with or without
        cluster events."""

        def trainer(error, cluster_events):
            class Uncopyable(FreezingDynamism):
                def __deepcopy__(self, memo):
                    raise error("deepcopy exploded")

            setup = build_scenario("freezing", iterations=30)
            scheme = Uncopyable(setup.specs, freeze_every=5, tau0=5, seed=0)
            return make_trainer(
                setup, "megatron", scheme=scheme, cluster_events=cluster_events
            )

        events = ClusterEventTrace((ClusterEvent(6, "failure", (2,)),))
        for cluster_events in (None, events):
            with pytest.raises(RuntimeError, match="deepcopy exploded"):
                trainer(RuntimeError, cluster_events).prewarm(30)
            assert trainer(TypeError, cluster_events).prewarm(30) == 0

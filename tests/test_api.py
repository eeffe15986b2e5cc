"""The stable facade (repro.api) and the ExecutionPolicy redesign."""

from __future__ import annotations

import threading
import warnings

import pytest

import repro
from repro.dynamics.pruning import PruningDynamism
from repro.orchestrator.runner import ExecutionPolicy, SweepRunner


def tiny(**kwargs) -> repro.RunSpec:
    base = dict(
        scenario="pruning", mode="megatron", num_layers=24,
        pp_stages=4, dp_ways=1, iterations=20,
    )
    base.update(kwargs)
    return repro.RunSpec(**base)


class TestFacade:
    def test_top_level_exports(self):
        for name in (
            "RunSpec", "ExecutionPolicy", "TraceDistribution",
            "EnsembleResult", "simulate", "sweep", "ensemble",
        ):
            assert hasattr(repro, name), name

    def test_simulate_single_spec(self):
        record = repro.simulate(tiny())
        assert record.ok and record.metrics["tokens_per_s"] > 0

    def test_sweep_defaults_to_batched(self):
        records = repro.sweep([tiny(), tiny(seed=1)])
        assert [r.ok for r in records] == [True, True]
        inline = repro.sweep(
            [tiny(), tiny(seed=1)], repro.ExecutionPolicy("inline")
        )
        for a, b in zip(records, inline):
            assert a.metrics == b.metrics

    def test_sweep_accepts_cache_path(self, tmp_path):
        first = repro.sweep([tiny()], cache=tmp_path / "cache")
        assert not first[0].cached
        again = repro.sweep([tiny()], cache=tmp_path / "cache")
        assert again[0].cached

    def test_fault_tolerance_exports(self):
        for name in ("RetryPolicy", "SweepJournal", "SweepInterrupted"):
            assert hasattr(repro, name), name

    def test_sweep_accepts_journal_path(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = repro.sweep([tiny()], journal=journal)
        assert first[0].ok and journal.exists()
        # a second sweep against the same journal serves from it: no
        # cache involved, yet the record comes back without re-running
        again = repro.sweep(
            [tiny()], repro.ExecutionPolicy("inline"), journal=journal
        )
        assert again[0].ok
        assert again[0].metrics == first[0].metrics

    def test_ensemble_facade(self, tmp_path):
        dist = repro.TraceDistribution(failure_rate=0.05, recover_after=8)
        res = repro.ensemble(
            tiny(), 4, distribution=dist, cache=tmp_path / "cache"
        )
        assert isinstance(res, repro.EnsembleResult)
        assert res.stats[0].draws == 4
        assert repro.ensemble(
            tiny(), 4, distribution=dist, cache=tmp_path / "cache"
        ).full_cache_hit

    def test_deep_import_paths_still_work(self):
        # the documented legacy paths must stay importable unchanged
        from repro.orchestrator import RunSpec, SweepRunner  # noqa: F401
        from repro.orchestrator.runner import execute_spec  # noqa: F401
        from repro.pipeline.batched import simulate_many  # noqa: F401

    def test_simulation_starts_no_threads(self, monkeypatch):
        """In-process simulation is single-threaded, global pruning
        included: perfbench converts each process's CPU time into
        reference seconds on that assumption."""
        started, prunes = [], []
        thread_start = threading.Thread.start
        prune = PruningDynamism._apply_global_prune

        def counting_start(thread):
            started.append(thread.name)
            thread_start(thread)

        def counting_prune(scheme, sparsity):
            prunes.append(sparsity)
            return prune(scheme, sparsity)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(PruningDynamism, "_apply_global_prune", counting_prune)
        assert repro.simulate(tiny()).ok
        records = repro.sweep(
            [tiny(), tiny(mode="dynmo-partition")], repro.ExecutionPolicy("batched")
        )
        assert all(r.ok for r in records)
        assert prunes  # the pruning schedule really ran Algorithm 1
        assert started == []


class TestExecutionPolicy:
    def test_defaults(self):
        p = ExecutionPolicy()
        assert p.backend == "inline" and p.workers is None and p.timeout_s is None

    def test_from_jobs_mapping(self):
        assert ExecutionPolicy.from_jobs(0).backend == "batched"
        assert ExecutionPolicy.from_jobs(1).backend == "inline"
        pool = ExecutionPolicy.from_jobs(4)
        assert pool.backend == "pool" and pool.workers == 4
        auto = ExecutionPolicy.from_jobs(None)
        assert auto.backend == "pool" and auto.workers is None

    def test_from_jobs_carries_timeout(self):
        assert ExecutionPolicy.from_jobs(0, 9.5).timeout_s == 9.5

    def test_jobs_view_roundtrip(self):
        assert ExecutionPolicy("batched").jobs == 0
        assert ExecutionPolicy("inline").jobs == 1
        assert ExecutionPolicy("pool", workers=3).jobs == 3
        assert ExecutionPolicy("pool").jobs >= 1  # cpu_count

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy("gpu")

    def test_rejects_workers_outside_pool(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionPolicy("inline", workers=2)
        with pytest.raises(ValueError, match="workers"):
            ExecutionPolicy("pool", workers=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ExecutionPolicy("inline", timeout_s=0.0)


class TestRunnerPolicy:
    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = SweepRunner()
        assert runner.policy.backend == "inline"

    def test_runner_jobs_property_reflects_policy(self):
        runner = SweepRunner(policy=ExecutionPolicy("pool", workers=5))
        assert runner.jobs == 5

"""Chaos tests: deterministic fault injection against the orchestrator.

Every fault here is injected through :mod:`repro.orchestrator.faults`
— seeded, counted, and content-addressed — so each scenario (worker
kills, cache bit-flips, mid-sweep interrupts) replays identically on
every run.  No wall-clock reads, no unseeded RNG.
"""

import json

import pytest

from repro.orchestrator import (
    CacheAudit,
    ExecutionPolicy,
    FaultPlan,
    ResultCache,
    RetryPolicy,
    RunRecord,
    RunSpec,
    SweepInterrupted,
    SweepJournal,
    SweepRunner,
    clear_quarantine,
    execute_spec,
    quarantine_spec,
    quarantined,
    quarantined_hashes,
)
from repro.orchestrator import faults


def tiny(**kwargs) -> RunSpec:
    base = dict(
        scenario="pruning", mode="dynmo-partition", num_layers=12,
        pp_stages=4, dp_ways=1, iterations=6,
    )
    base.update(kwargs)
    return RunSpec(**base)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Chaos state must never leak between tests (or into other files)."""
    clear_quarantine()
    faults.uninstall()
    yield
    clear_quarantine()
    faults.uninstall()


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        retry = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=3.0)
        assert retry.delays() == pytest.approx((0.1, 0.3, 0.9))
        assert retry.delay_s(1) == 0.1
        assert retry.delay_s(3) == pytest.approx(0.9)

    def test_retries_transient_not_deterministic_failures(self):
        from concurrent.futures.process import BrokenProcessPool

        retry = RetryPolicy()
        assert retry.should_retry(BrokenProcessPool("worker died"))
        assert retry.should_retry(ConnectionResetError())  # an OSError
        assert not retry.should_retry(ValueError("bad spec"))
        assert not retry.should_retry(ZeroDivisionError())

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_policy_carries_retry(self):
        pol = ExecutionPolicy("pool", workers=2, retry=RetryPolicy(max_attempts=5))
        assert pol.retry.max_attempts == 5
        assert ExecutionPolicy("inline").retry == RetryPolicy()


class TestFaultPrimitives:
    def test_corrupt_file_offset_is_seed_deterministic(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_bytes(b"A" * 64)
        off1 = faults.corrupt_file(p, seed=3)
        p.write_bytes(b"A" * 64)
        off2 = faults.corrupt_file(p, seed=3)
        assert off1 == off2
        data = p.read_bytes()
        assert data[off1] == ord("A") ^ 0xFF

    def test_kill_ledger_bounds_kills(self, tmp_path):
        ledger = str(tmp_path / "kills")
        plan = FaultPlan(max_kills=2, kill_ledger=ledger)
        assert faults._kill_permitted(plan)
        assert faults._kill_permitted(plan)
        assert not faults._kill_permitted(plan)  # budget spent

    def test_sleep_is_recorded_and_suppressed(self):
        with faults.injected(FaultPlan(no_sleep=True)):
            faults.sleep(1.5)
            faults.sleep(0.25)
            assert faults.recorded_sleeps() == (1.5, 0.25)
        assert faults.recorded_sleeps() == ()


class TestQuarantineRegistry:
    def test_register_and_clear(self):
        quarantine_spec("abc123", "killed worker")
        assert quarantined("abc123") == "killed worker"
        assert "abc123" in quarantined_hashes()
        assert clear_quarantine() == 1
        assert quarantined("abc123") is None

    def test_quarantined_spec_is_skipped_not_executed(self):
        spec = tiny()
        quarantine_spec(spec.spec_hash, "poison")
        [record] = SweepRunner(policy=ExecutionPolicy("inline")).run([spec])
        assert record.status == "crashed"
        assert record.error_type == "WorkerCrashed"
        assert "quarantined" in (record.error or "")


class TestSweepJournal:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        record = execute_spec(tiny())
        with SweepJournal(path) as journal:
            journal.append(record)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[1])["spec_hash"] == record.spec_hash

        reloaded = SweepJournal(path)
        assert len(reloaded) == 1
        prior = reloaded.prior[record.spec_hash]
        assert prior.status == "ok"
        assert prior.metrics == record.metrics
        reloaded.close()

    def test_last_record_per_spec_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = tiny()
        failed = RunRecord(spec=spec, spec_hash=spec.spec_hash, status="error")
        fixed = execute_spec(spec)
        with SweepJournal(path) as journal:
            journal.append(failed)
            journal.append(fixed)
        reloaded = SweepJournal(path)
        assert reloaded.prior[spec.spec_hash].status == "ok"
        assert reloaded.statuses() == {"ok": 1}
        reloaded.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.append(execute_spec(tiny()))
            journal.append(execute_spec(tiny(seed=1)))
        with path.open("a") as fh:
            fh.write('{"kind": "record", "status": "ok", "trunc')  # torn write
        reloaded = SweepJournal(path)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 1
        reloaded.close()


class TestCacheIntegrity:
    def test_bit_flip_quarantined_and_recomputed_identically(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        runner = SweepRunner(policy=ExecutionPolicy("inline"), cache=cache)
        [first] = runner.run([spec])
        assert not first.cached and len(cache) == 1

        entry = tmp_path / f"{spec.spec_hash}.json"
        faults.corrupt_file(entry, seed=0)
        assert cache.get(spec) is None  # detected, not served
        corrupt = entry.with_name(entry.name + ".corrupt")
        assert corrupt.exists() and not entry.exists()  # quarantined aside

        [again] = SweepRunner(policy=ExecutionPolicy("inline"), cache=cache).run([spec])
        assert not again.cached  # really re-executed
        assert again.metrics == first.metrics  # and deterministic

    def test_injected_corruption_via_cache_put_hook(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny(seed=s) for s in range(3)]
        with faults.injected(FaultPlan(corrupt_cache_puts=(2,))):
            SweepRunner(policy=ExecutionPolicy("inline"), cache=cache).run(specs)
        audit = cache.verify()
        assert audit.corrupt == 1 and audit.ok == 2
        assert len(audit.renamed) == 1
        # the quarantined file stays as evidence (still not "clean"
        # until gc reaps it), but nothing is corrupt in place any more
        second = cache.verify()
        assert second.corrupt == 0 and second.quarantined == 1
        assert cache.gc().removed >= 1
        assert cache.verify().clean

    def test_verify_gc_stats_account_for_debris(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(policy=ExecutionPolicy("inline"), cache=cache).run([tiny()])
        (tmp_path / "deadbeef.json").write_text("{not json")  # corrupt
        (tmp_path / "cafe.json").write_text('{"schema": 1}')  # stale format
        (tmp_path / "beef.tmp.123").write_text("orphan")  # dead writer

        stats = cache.stats()
        assert isinstance(stats, CacheAudit)
        assert (stats.ok, stats.corrupt, stats.stale, stats.tmp) == (1, 1, 1, 1)
        assert (tmp_path / "deadbeef.json").exists()  # stats never mutates

        audit = cache.gc()
        assert audit.removed >= 3  # corrupt + stale + tmp reaped
        after = cache.stats()
        assert after.ok == 1 and after.clean
        assert after.stale == 0 and after.tmp == 0

    def test_failed_put_leaves_no_debris(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        record = execute_spec(tiny())

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.orchestrator.cache.os.replace", exploding_replace
        )
        with pytest.raises(OSError):
            cache.put(record)
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp.*")) == []  # no orphaned temp
        assert cache.get(tiny()) is None  # and no partial entry


class TestDedupeAndProgress:
    def test_duplicate_specs_execute_once(self, monkeypatch):
        import repro.orchestrator.runner as runner_mod

        calls = []
        real = runner_mod.execute_spec

        def counting(spec, timeout_s=None):
            calls.append(spec.spec_hash)
            return real(spec, timeout_s)

        monkeypatch.setattr(runner_mod, "execute_spec", counting)
        spec = tiny()
        records = SweepRunner(policy=ExecutionPolicy("inline")).run(
            [spec, tiny(seed=1), spec]
        )
        assert len(calls) == 2  # the duplicate never re-executed
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert records[0].metrics == records[2].metrics

    def test_duplicate_fanout_keeps_progress_counts(self):
        seen = []
        spec = tiny()
        runner = SweepRunner(
            policy=ExecutionPolicy("inline"),
            progress=lambda done, total, rec: seen.append((done, total)),
        )
        runner.run([spec, spec, spec])
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_broken_progress_callback_does_not_abort_sweep(self):
        def bad_progress(done, total, record):
            raise RuntimeError("progress UI fell over")

        runner = SweepRunner(policy=ExecutionPolicy("inline"), progress=bad_progress)
        with pytest.warns(RuntimeWarning, match="progress callback raised"):
            records = runner.run([tiny(), tiny(seed=1)])
        assert [r.status for r in records] == ["ok", "ok"]
        assert runner._progress_broken


class TestPoisonBisection:
    def test_poison_spec_pinned_quarantined_rest_land(self):
        specs = [tiny(seed=s) for s in range(16)]
        poison = specs[7].spec_hash
        plan = FaultPlan(kill_specs=(poison,), no_sleep=True)
        policy = ExecutionPolicy(
            "pool",
            workers=2,
            chunk_size=16,  # one chunk: the whole grid becomes suspect
            retry=RetryPolicy(max_attempts=1),  # straight to bisection
            max_pool_restarts=16,
        )
        with faults.injected(plan):
            records = SweepRunner(policy=policy).run(specs)

        statuses = [r.status for r in records]
        assert statuses.count("ok") == 15
        assert statuses.count("crashed") == 1
        assert records[7].status == "crashed"
        assert records[7].error_type == "WorkerCrashed"
        assert poison in quarantined_hashes()

    def test_repeat_sweep_skips_quarantined_spec(self):
        specs = [tiny(seed=s) for s in range(4)]
        quarantine_spec(specs[2].spec_hash, "killed a worker earlier")
        records = SweepRunner(
            policy=ExecutionPolicy("pool", workers=2)
        ).run(specs)
        assert [r.status for r in records] == ["ok", "ok", "crashed", "ok"]


class TestTransientRetry:
    def test_transient_kill_retried_with_deterministic_backoff(self, tmp_path):
        specs = [tiny(seed=s) for s in range(4)]
        # the poison heals after one kill: the ledger survives the dead
        # worker, so the retried chunk runs clean
        plan = FaultPlan(
            kill_specs=(specs[1].spec_hash,),
            max_kills=1,
            kill_ledger=str(tmp_path / "kills"),
            no_sleep=True,
        )
        policy = ExecutionPolicy(
            "pool",
            workers=2,
            chunk_size=4,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.05, backoff_factor=2.0),
        )
        with faults.injected(plan):
            records = SweepRunner(policy=policy).run(specs)
            sleeps = faults.recorded_sleeps()
        assert [r.status for r in records] == ["ok"] * 4  # healed, no quarantine
        assert sleeps == (0.05,)  # exactly one backoff pause, exact value
        assert quarantined_hashes() == {}


class TestInterruptAndResume:
    def test_sigint_drains_journals_and_resumes_without_reruns(
        self, tmp_path, monkeypatch
    ):
        import repro.orchestrator.runner as runner_mod

        path = tmp_path / "sweep.journal.jsonl"
        specs = [tiny(seed=s) for s in range(6)]

        plan = FaultPlan(interrupt_after_records=(3,))
        with SweepJournal(path) as journal:
            with faults.injected(plan):
                with pytest.raises(SweepInterrupted) as info:
                    SweepRunner(
                        policy=ExecutionPolicy("inline"), journal=journal
                    ).run(specs)
        assert len(info.value.records) == 3  # drained, not dropped

        # resume: only the 3 missing specs execute
        calls = []
        real = runner_mod.execute_spec

        def counting(spec, timeout_s=None):
            calls.append(spec.spec_hash)
            return real(spec, timeout_s)

        monkeypatch.setattr(runner_mod, "execute_spec", counting)
        with SweepJournal(path) as journal:
            records = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run(specs)
        assert len(calls) == 3
        assert [r.status for r in records] == ["ok"] * 6

    def test_resumed_rows_match_uninterrupted_sweep(self, tmp_path):
        specs = [tiny(seed=s) for s in range(5)]
        baseline = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)

        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            with faults.injected(FaultPlan(interrupt_after_records=(2,))):
                with pytest.raises(SweepInterrupted):
                    SweepRunner(
                        policy=ExecutionPolicy("inline"), journal=journal
                    ).run(specs)
        with SweepJournal(path) as journal:
            resumed = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run(specs)

        wall_time_fields = ("duration_s", "cached")  # legitimately differ
        for a, b in zip(baseline, resumed):
            da, db = a.to_dict(), b.to_dict()
            for f in wall_time_fields:
                da.pop(f), db.pop(f)
            assert da == db

    def test_batched_interrupt_stops_at_iteration_boundary(
        self, tmp_path, monkeypatch
    ):
        """A SIGINT mid-lockstep stops the batched backend at the next
        iteration boundary: unfinished runs land nothing, and a resume
        re-runs exactly those to the rows an inline sweep produces."""
        import os
        import signal

        from repro.training.trainer import Trainer

        specs = [tiny(seed=s, iterations=12) for s in range(2)]
        baseline = SweepRunner(policy=ExecutionPolicy("inline")).run(specs)

        real = Trainer._post_iteration

        def interrupting(self, st, k, res):
            if k == 5:
                os.kill(os.getpid(), signal.SIGINT)
            real(self, st, k, res)

        path = tmp_path / "j.jsonl"
        with monkeypatch.context() as m:
            m.setattr(Trainer, "_post_iteration", interrupting)
            with SweepJournal(path) as journal:
                with pytest.raises(SweepInterrupted) as info:
                    SweepRunner(
                        policy=ExecutionPolicy("batched"), journal=journal
                    ).run(specs)
        assert info.value.records == []
        with SweepJournal(path) as journal:
            assert not journal.prior
            resumed = SweepRunner(
                policy=ExecutionPolicy("batched"), journal=journal
            ).run(specs)

        for a, b in zip(baseline, resumed):
            da, db = a.to_dict(), b.to_dict()
            for f in ("duration_s", "cached"):  # legitimately differ
                da.pop(f), db.pop(f)
            assert da == db

    def test_pool_interrupt_drains_inflight_chunks(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = [tiny(seed=s) for s in range(6)]
        plan = FaultPlan(interrupt_after_records=(2,))
        with SweepJournal(path) as journal:
            with faults.injected(plan):
                with pytest.raises(SweepInterrupted) as info:
                    SweepRunner(
                        policy=ExecutionPolicy("pool", workers=2, chunk_size=1),
                        journal=journal,
                    ).run(specs)
        # at least the records that triggered the stop landed and were
        # journaled; running chunks drained rather than vanishing
        assert len(info.value.records) >= 2
        with SweepJournal(path) as journal:
            assert all(r.status == "ok" for r in journal.prior.values())
            records = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run(specs)
        assert [r.status for r in records] == ["ok"] * 6

    def test_crashed_records_resume_into_quarantine(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = tiny()
        crashed = RunRecord(
            spec=spec,
            spec_hash=spec.spec_hash,
            status="crashed",
            error="worker died executing this spec",
            error_type="WorkerCrashed",
        )
        with SweepJournal(path) as journal:
            journal.append(crashed)
        with SweepJournal(path) as journal:
            [record] = SweepRunner(
                policy=ExecutionPolicy("inline"), journal=journal
            ).run([spec])
        assert record.status == "crashed"  # served, never re-executed
        assert quarantined(spec.spec_hash) is not None

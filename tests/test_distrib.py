"""Distributed sweep tests: shard plans, leases, work-stealing, merge.

The multi-process tests drive real worker processes against one shard
directory; fault injection (host death, heartbeat stalls, torn
journals) goes through :mod:`repro.orchestrator.faults`, so every
chaos scenario is deterministic in *which* fault fires — only the
interleaving of healthy workers is left to the scheduler, and the
assertions (exactly-once execution, steal-exactly-once, bit-identical
merge) are invariant to it.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.distrib import (
    LeaseManager,
    PlanError,
    PlanMismatch,
    ShardPlan,
    ShardWorker,
    TieredResultCache,
    comparable_payload,
    merge_shard_dir,
    safe_name,
    shard_dir_status,
)
from repro.distrib.layout import ShardDirLayout
from repro.orchestrator import (
    ExecutionPolicy,
    FaultPlan,
    JournalSchemaError,
    ResultCache,
    RunSpec,
    SweepJournal,
    SweepRunner,
    clear_quarantine,
    execute_spec,
    quarantine_spec,
    quarantined,
)
from repro.orchestrator import faults
from repro.orchestrator.journal import JOURNAL_SCHEMA_VERSION
from repro.orchestrator.results import RECORD_SCHEMA_VERSION
from repro.orchestrator.spec import SPEC_SCHEMA_VERSION


def tiny(**kwargs) -> RunSpec:
    base = dict(
        scenario="pruning", mode="dynmo-partition", num_layers=24,
        pp_stages=4, dp_ways=1, iterations=4,
    )
    base.update(kwargs)
    return RunSpec(**base)


def grid(n: int) -> list[RunSpec]:
    return [tiny(seed=s) for s in range(n)]


@pytest.fixture(autouse=True)
def _clean_fault_state():
    clear_quarantine()
    faults.uninstall()
    yield
    clear_quarantine()
    faults.uninstall()


# -- shard plans -------------------------------------------------------------


class TestShardPlan:
    def test_contiguous_split_never_empty(self):
        plan = ShardPlan.build(grid(5), 3)
        assert [len(s.specs) for s in plan.shards] == [2, 2, 1]
        assert list(plan.specs) == grid(5)
        plan = ShardPlan.build(grid(3), 8)
        assert len(plan.shards) == 3  # never an empty shard

    def test_shard_ids_are_content_hashes(self):
        a = ShardPlan.build(grid(4), 2)
        b = ShardPlan.build(grid(4), 2)
        assert a.plan_id == b.plan_id
        assert [s.shard_id for s in a.shards] == [s.shard_id for s in b.shards]
        c = ShardPlan.build(grid(5), 2)  # different work, different ids
        assert c.plan_id != a.plan_id

    def test_round_trip(self):
        plan = ShardPlan.build(grid(4), 2)
        again = ShardPlan.from_dict(plan.to_dict())
        assert again.plan_id == plan.plan_id
        assert again.specs == plan.specs

    def test_tampered_plan_fails_content_check(self):
        payload = ShardPlan.build(grid(4), 2).to_dict()
        payload["shards"][0]["specs"][0]["seed"] = 999
        with pytest.raises(PlanError, match="content check"):
            ShardPlan.from_dict(payload)

    def test_publish_is_idempotent_but_refuses_a_different_plan(self, tmp_path):
        sd = tmp_path / "shard"
        plan = ShardPlan.build(grid(4), 2)
        plan.publish(sd)
        plan.publish(sd)  # same plan: no-op
        assert ShardPlan.load(sd).plan_id == plan.plan_id
        with pytest.raises(PlanMismatch):
            ShardPlan.build(grid(5), 2).publish(sd)

    def test_join_or_publish_joins_a_plan_published_first(
        self, tmp_path, monkeypatch
    ):
        """Another host publishes a plan over the same grid with another
        shard count between this call's check and its publish: the call
        joins that plan instead of raising."""
        from repro.distrib.plan import join_or_publish

        sd = tmp_path / "shard"
        theirs = ShardPlan.build(grid(4), 2)
        build = ShardPlan.build

        def racing_build(specs, num_shards):
            theirs.publish(sd)
            return build(specs, num_shards)

        monkeypatch.setattr(ShardPlan, "build", racing_build)
        plan, published = join_or_publish(sd, grid(4), 3)
        assert (plan.plan_id, published) == (theirs.plan_id, False)

    def test_load_missing_plan_is_a_clear_error(self, tmp_path):
        with pytest.raises(PlanError, match="repro shard plan"):
            ShardPlan.load(tmp_path / "nowhere")

    def test_validation(self):
        with pytest.raises(PlanError):
            ShardPlan.build(grid(3), 0)
        with pytest.raises(PlanError):
            ShardPlan.build([], 2)

    def test_safe_name(self):
        assert safe_name("host-1.local-99") == "host-1.local-99"
        assert safe_name("we/ird:id") == "we-ird-id"
        assert safe_name("///") == "worker"


# -- leases ------------------------------------------------------------------


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseManager(tmp_path, "a", ttl_s=10.0)
        b = LeaseManager(tmp_path, "b", ttl_s=10.0)
        assert a.try_claim("s0") is not None
        assert b.try_claim("s0") is None
        assert a.read_lease("s0").worker == "a"
        a.release("s0")
        assert b.try_claim("s0") is not None

    def test_staleness_follows_heartbeats(self, tmp_path):
        now = [100.0]
        mgr = LeaseManager(tmp_path, "a", ttl_s=5.0, clock=lambda: now[0])
        mgr.try_claim("s0")
        assert not mgr.is_stale("s0")
        now[0] = 104.0
        assert not mgr.is_stale("s0")
        mgr.renew("s0")  # fresh heartbeat at t=104
        now[0] = 108.0
        assert not mgr.is_stale("s0")  # age 4 < ttl 5
        now[0] = 110.0
        assert mgr.is_stale("s0")  # age 6 > ttl 5
        assert mgr.heartbeat_age_s("s0") == pytest.approx(6.0)

    def test_no_lease_is_not_stale(self, tmp_path):
        mgr = LeaseManager(tmp_path, "a", ttl_s=1.0)
        assert not mgr.is_stale("s0")
        assert mgr.heartbeat_age_s("s0") is None

    def test_steal_requires_staleness(self, tmp_path):
        now = [0.0]
        a = LeaseManager(tmp_path, "a", ttl_s=5.0, clock=lambda: now[0])
        b = LeaseManager(tmp_path, "b", ttl_s=5.0, clock=lambda: now[0])
        a.try_claim("s0")
        assert b.try_steal("s0") is None  # heartbeat still fresh

    def test_expired_lease_is_stolen_exactly_once(self, tmp_path):
        now = [0.0]
        dead = LeaseManager(tmp_path, "dead", ttl_s=1.0, clock=lambda: now[0])
        dead.try_claim("s0")
        now[0] = 100.0  # heartbeat is ancient
        b = LeaseManager(tmp_path, "b", ttl_s=1.0, clock=lambda: now[0])
        c = LeaseManager(tmp_path, "c", ttl_s=1.0, clock=lambda: now[0])
        stolen = [m.try_steal("s0") for m in (b, c)]
        winners = [lease for lease in stolen if lease is not None]
        assert len(winners) == 1
        assert winners[0].generation == 1
        assert winners[0].stolen_from == "dead"
        assert len(b.tombstones("s0")) == 1  # audit trail of the steal

    def test_concurrent_steal_race_single_winner(self, tmp_path):
        now = [0.0]
        dead = LeaseManager(tmp_path, "dead", ttl_s=1.0, clock=lambda: now[0])
        dead.try_claim("s0")
        now[0] = 100.0
        managers = [
            LeaseManager(tmp_path, f"w{i}", ttl_s=1.0, clock=lambda: now[0])
            for i in range(8)
        ]
        results = [None] * len(managers)
        barrier = threading.Barrier(len(managers))

        def steal(i):
            barrier.wait()
            results[i] = managers[i].try_steal("s0")

        threads = [
            threading.Thread(target=steal, args=(i,))
            for i in range(len(managers))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [lease for lease in results if lease is not None]
        assert len(winners) == 1
        assert len(managers[0].tombstones("s0")) == 1

    def test_heartbeat_stall_fault_makes_lease_stealable(self, tmp_path):
        now = [0.0]
        mgr = LeaseManager(tmp_path, "a", ttl_s=5.0, clock=lambda: now[0])
        mgr.try_claim("s0")
        faults.install(FaultPlan(stall_heartbeats_after=0))
        assert not mgr.renew("s0")  # renewal suppressed
        now[0] = 100.0
        assert mgr.is_stale("s0")  # alive but wedged == dead, externally
        other = LeaseManager(tmp_path, "b", ttl_s=5.0, clock=lambda: now[0])
        assert other.try_steal("s0") is not None

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseManager(tmp_path, "a", ttl_s=0.0)


# -- two-tier cache ----------------------------------------------------------


def tiered(local, shared) -> TieredResultCache:
    return TieredResultCache(ResultCache(local), ResultCache(shared))


class TestTieredCache:
    def test_put_lands_in_both_tiers_and_get_promotes(self, tmp_path):
        cache = tiered(tmp_path / "local", tmp_path / "shared")
        spec = tiny()
        record = execute_spec(spec)
        cache.put(record)
        assert cache.local.get(spec) is not None
        assert cache.shared.get(spec) is not None
        # a fresh local tier (new host) hits shared and promotes
        cache2 = tiered(tmp_path / "local2", tmp_path / "shared")
        assert cache2.get(spec) is not None
        assert cache2.local.get(spec) is not None  # promoted

    def test_corrupt_shared_entry_degrades_to_miss(self, tmp_path):
        cache = tiered(tmp_path / "local", tmp_path / "shared")
        spec = tiny()
        cache.shared.put(execute_spec(spec))
        entry = tmp_path / "shared" / f"{spec.spec_hash}.json"
        faults.corrupt_file(entry)
        assert cache.get(spec) is None  # detected, not served
        assert not entry.exists()  # quarantined aside in the shared dir
        assert list((tmp_path / "shared").glob("*.corrupt"))

    def test_shared_write_failure_degrades_not_fatal(self, tmp_path, monkeypatch):
        from repro.orchestrator.retry import RetryPolicy

        cache = TieredResultCache(
            ResultCache(tmp_path / "local"),
            ResultCache(tmp_path / "shared"),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )

        def broken_put(record):
            raise OSError("shared filesystem went away")

        monkeypatch.setattr(cache.shared, "put", broken_put)
        spec = tiny()
        cache.put(execute_spec(spec))  # must not raise
        assert cache.local.get(spec) is not None


# -- single-worker end to end ------------------------------------------------


class TestSingleWorker:
    def test_worker_plus_merge_matches_single_host_sweep(self, tmp_path):
        specs = grid(5)
        sd = tmp_path / "shard"
        ShardPlan.build(specs, 2).publish(sd)
        report = ShardWorker(sd, worker="w1").work()
        assert sorted(report.shards_done) == sorted(
            s.shard_id for s in ShardPlan.load(sd).shards
        )
        merged = merge_shard_dir(sd)
        assert merged.complete and not merged.conflicts
        single = SweepRunner().run(specs)
        assert [comparable_payload(r) for r in merged.records] == [
            comparable_payload(r) for r in single
        ]

    def test_second_worker_finds_nothing_to_do(self, tmp_path):
        sd = tmp_path / "shard"
        ShardPlan.build(grid(3), 2).publish(sd)
        ShardWorker(sd, worker="w1").work()
        report = ShardWorker(sd, worker="w2").work()
        assert report.shards_done == [] and report.records == 0

    def test_status_reflects_lease_lifecycle(self, tmp_path):
        sd = tmp_path / "shard"
        plan = ShardPlan.build(grid(4), 2)
        layout = plan.publish(sd)
        status = shard_dir_status(sd)
        assert status["counts"] == {
            "done": 0, "leased": 0, "stale": 0, "unclaimed": 2
        }
        mgr = LeaseManager(layout.leases_dir, "w1", ttl_s=5.0)
        mgr.try_claim(plan.shards[0].shard_id)
        status = shard_dir_status(sd)
        assert status["counts"]["leased"] == 1
        # heartbeats use wall time; fake a dead worker by backdating
        beat = mgr.heartbeat_path(plan.shards[0].shard_id)
        payload = json.loads(beat.read_text())
        payload["at"] -= 3600.0
        beat.write_text(json.dumps(payload))
        status = shard_dir_status(sd)
        assert status["counts"]["stale"] == 1

    def test_poison_markers_propagate_between_workers(self, tmp_path):
        sd = tmp_path / "shard"
        specs = grid(3)
        ShardPlan.build(specs, 1).publish(sd)
        poison = specs[1].spec_hash
        quarantine_spec(poison, "killed a worker on host A")
        ShardWorker(sd, worker="w1").work()
        layout = ShardDirLayout(sd)
        assert layout.poison_path(poison).exists()  # published
        clear_quarantine()
        worker = ShardWorker(sd, worker="w2")
        worker._load_poison()
        assert quarantined(poison) == "killed a worker on host A"

    def test_worker_rejects_a_non_positive_heartbeat(self, tmp_path):
        """A zero cadence would renew the lease in a busy loop."""
        sd = tmp_path / "shard"
        for beat in (0.0, -1.0):
            with pytest.raises(ValueError, match="heartbeat_s"):
                ShardWorker(sd, worker="w1", heartbeat_s=beat)
        assert not sd.exists()

    def test_worker_rejects_a_non_positive_ttl_before_creating_anything(
        self, tmp_path
    ):
        sd = tmp_path / "shard"
        for ttl in (0.0, -1.0):
            with pytest.raises(ValueError, match="ttl_s must be positive"):
                ShardWorker(sd, worker="w1", ttl_s=ttl)
        assert not sd.exists()


class TestSweepShardDir:
    """``repro sweep --shard-dir``: publish if absent, else join."""

    def _sweep(self, tmp_path, *flags):
        from repro.cli import main

        return main([
            "sweep", "--shard-dir", str(tmp_path / "sd"), "--iterations", "4",
            "--stages", "4", "--jobs", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"), *flags,
        ])

    def test_joins_only_a_plan_over_its_own_grid(self, tmp_path, capsys):
        """The same grid joins whatever shard count it asks for; another
        grid exits nonzero naming the directory, before any worker,
        lease, journal or cache entry of its own exists."""
        grid_flags = ["--scenario", "pruning", "--mode", "megatron", "dynmo-partition"]
        assert self._sweep(tmp_path, *grid_flags, "--shards", "2") == 0
        capsys.readouterr()
        assert self._sweep(tmp_path, *grid_flags, "--shards", "1") == 0
        assert "joining plan" in capsys.readouterr().out
        files = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            self._sweep(tmp_path, "--scenario", "freezing", "--mode", "megatron")
        assert str(tmp_path / "sd") in str(exc.value.code)
        assert sorted(tmp_path.rglob("*")) == files
        assert "freezing" not in capsys.readouterr().out


# -- torn journals and backfill ----------------------------------------------


class TestTornJournal:
    def test_merge_backfills_torn_tail_from_shared_cache(self, tmp_path):
        specs = grid(3)
        sd = tmp_path / "shard"
        ShardPlan.build(specs, 1).publish(sd)
        # tear the 3rd (last) journal append mid-line: the record is
        # lost from the journal but its cache write already landed
        faults.install(FaultPlan(tear_journal_appends=(3,), tear_bytes=9))
        ShardWorker(sd, worker="w1").work()
        faults.uninstall()
        merged = merge_shard_dir(sd)
        assert merged.complete
        assert merged.backfilled == [specs[2].spec_hash]
        single = SweepRunner().run(specs)
        merged_cmp = [comparable_payload(r) for r in merged.records]
        assert merged_cmp == [comparable_payload(r) for r in single]

    def test_mismatched_schema_journal_is_skipped_not_merged(self, tmp_path):
        specs = grid(2)
        sd = tmp_path / "shard"
        ShardPlan.build(specs, 1).publish(sd)
        ShardWorker(sd, worker="w1").work()
        layout = ShardDirLayout(sd)
        [journal] = sorted(layout.journals_dir.glob("*.jsonl"))
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec_schema"] = SPEC_SCHEMA_VERSION + 1
        rogue = layout.journals_dir / "rogue.old-host.jsonl"
        rogue.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        merged = merge_shard_dir(sd)
        assert merged.complete and not merged.conflicts
        assert [str(rogue)] == merged.skipped_journals


# -- journal schema refusal (satellite) --------------------------------------


class TestJournalSchemaRefusal:
    def _journal_with(self, tmp_path, header: dict, records=()) -> str:
        path = tmp_path / "old.jsonl"
        lines = [json.dumps(header)]
        lines += [json.dumps(r) for r in records]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_header_pins_spec_schema(self, tmp_path):
        path = self._journal_with(
            tmp_path,
            {
                "kind": "header",
                "journal_schema": JOURNAL_SCHEMA_VERSION,
                "record_schema": RECORD_SCHEMA_VERSION,
                "spec_schema": SPEC_SCHEMA_VERSION,
            },
        )
        SweepJournal(path)  # matching schema resumes fine

    def test_mismatched_spec_schema_refuses_resume(self, tmp_path):
        path = self._journal_with(
            tmp_path,
            {
                "kind": "header",
                "journal_schema": JOURNAL_SCHEMA_VERSION,
                "record_schema": RECORD_SCHEMA_VERSION,
                "spec_schema": SPEC_SCHEMA_VERSION + 1,
            },
        )
        with pytest.raises(JournalSchemaError, match="spec schema"):
            SweepJournal(path)

    def test_headerless_records_refuse_resume(self, tmp_path):
        record = {"kind": "record", **execute_spec(tiny()).to_dict()}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalSchemaError, match="header"):
            SweepJournal(path)

    def test_cli_resume_refusal_is_a_clean_exit(self, tmp_path):
        from repro.cli import main

        path = self._journal_with(
            tmp_path,
            {
                "kind": "header",
                "journal_schema": JOURNAL_SCHEMA_VERSION,
                "record_schema": RECORD_SCHEMA_VERSION,
                "spec_schema": SPEC_SCHEMA_VERSION + 1,
            },
        )
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "sweep", "--resume", path, "--scenario", "pruning",
                "--mode", "megatron", "--layers", "24", "--iterations", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ])

    def test_both_readers_skip_another_record_schema(self, tmp_path):
        """A record line of another record schema is skipped, and
        counted, by a resume and by a shard merge alike."""
        from repro.distrib.merge import MergeResult, _read_journal

        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.append(execute_spec(tiny()))
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["schema"] = RECORD_SCHEMA_VERSION + 1
        path.write_text("\n".join([header, json.dumps(record)]) + "\n")
        resumed = SweepJournal(path)
        assert resumed.prior == {} and resumed.skipped_lines == 1
        merged = MergeResult()
        assert _read_journal(path, merged) == []
        assert merged.skipped_journals == []

    def test_fresh_journal_header_carries_spec_schema(self, tmp_path):
        path = tmp_path / "new.jsonl"
        journal = SweepJournal(path)
        journal.append(execute_spec(tiny()))
        journal.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["spec_schema"] == SPEC_SCHEMA_VERSION


# -- cache gc / stats (satellite) --------------------------------------------


class TestCacheGcAge:
    def _quarantined_entry(self, cache: ResultCache, spec) -> str:
        cache.put(execute_spec(spec))
        entry = cache.root / f"{spec.spec_hash}.json"
        faults.corrupt_file(entry)
        assert cache.get(spec) is None  # quarantines to *.corrupt
        [corrupt] = cache.root.glob(f"{spec.spec_hash}*.corrupt")
        return str(corrupt)

    def test_stats_counts_quarantine_files_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        corrupt = self._quarantined_entry(cache, tiny(seed=0))
        audit = cache.stats()
        assert audit.quarantined == 1
        assert audit.quarantined_bytes == os.path.getsize(corrupt)
        assert not audit.clean

    def test_gc_age_threshold_keeps_recent_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = self._quarantined_entry(cache, tiny(seed=0))
        recent = self._quarantined_entry(cache, tiny(seed=1))
        ancient = time.time() - 7200.0  # repro: ignore[RPR102]
        os.utime(old, (ancient, ancient))
        audit = cache.gc(corrupt_age_s=3600.0)
        assert not os.path.exists(old)  # past the threshold: reaped
        assert os.path.exists(recent)  # kept for post-mortem
        assert audit.quarantined == 1
        # age None (the default) reaps everything quarantined
        audit = cache.gc()
        assert not os.path.exists(recent)
        assert audit.quarantined == 0

    def test_cli_gc_corrupt_age(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        corrupt = self._quarantined_entry(cache, tiny(seed=0))
        code = main([
            "cache", "gc", "--cache-dir", str(tmp_path),
            "--corrupt-age", "3600",
        ])
        assert code == 1  # recent quarantine still present
        assert os.path.exists(corrupt)
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert not os.path.exists(corrupt)


# -- monotonic timeouts off the main thread (satellite) ----------------------


class TestWorkerModeTimeouts:
    def test_timeout_enforced_without_sigalrm(self):
        # in a worker thread SIGALRM cannot arm; the trainer's
        # monotonic deadline check must stop the run mid-flight
        out: dict = {}

        def body():
            out["record"] = execute_spec(
                tiny(iterations=2000), timeout_s=0.005
            )

        t = threading.Thread(target=body)
        t.start()
        t.join()
        record = out["record"]
        assert record.status == "timeout"
        assert "monotonic" in (record.error or "")

    def test_no_deadline_when_alarm_armable(self):
        # on the main thread SIGALRM arms, so a comfortable budget
        # passes straight through
        record = execute_spec(tiny(iterations=4), timeout_s=60.0)
        assert record.status == "ok"


# -- multi-process stress and chaos ------------------------------------------


def _run_worker(shard_dir: str, worker: str, barrier) -> None:
    barrier.wait()
    ShardWorker(
        shard_dir, worker=worker, ttl_s=5.0, heartbeat_s=0.1
    ).work(wait=True, poll_s=0.05)


def _run_doomed_worker(shard_dir: str) -> None:
    # dies via os._exit on its first shard claim: the lease file stays
    # behind with a heartbeat that will never renew — host death
    faults.install(
        FaultPlan(die_on_claims=(1,)), owner_pid=os.getppid()
    )
    ShardWorker(
        shard_dir, worker="doomed", ttl_s=0.5, heartbeat_s=0.1
    ).work(wait=True, poll_s=0.05)


def _run_survivor(shard_dir: str, worker: str) -> None:
    ShardWorker(
        shard_dir, worker=worker, ttl_s=0.5, heartbeat_s=0.1
    ).work(wait=True, poll_s=0.05)


def _journal_executions(shard_dir) -> dict:
    """spec_hash -> number of *non-cached* journaled executions."""
    executions: dict = {}
    for path in sorted(ShardDirLayout(shard_dir).journals_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # a torn line
            if entry.get("kind") != "record":
                continue
            if entry.get("cached"):
                continue  # a shared-cache hit, not an execution
            h = entry["spec_hash"]
            executions[h] = executions.get(h, 0) + 1
    return executions


class TestMultiProcess:
    def test_racing_workers_execute_every_spec_exactly_once(self, tmp_path):
        specs = grid(8)
        sd = tmp_path / "shard"
        ShardPlan.build(specs, 8).publish(sd)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(
                target=_run_worker, args=(str(sd), f"w{i}", barrier)
            )
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        merged = merge_shard_dir(sd)
        assert merged.complete and not merged.conflicts
        assert len(merged.records) == len(specs)
        # the exactly-once contract: every spec hash has exactly one
        # non-cached execution across every worker journal
        executions = _journal_executions(sd)
        assert executions == {spec.spec_hash: 1 for spec in specs}

    def test_killed_worker_is_stolen_from_and_merge_is_identical(self, tmp_path):
        """The acceptance scenario: 3 workers, one dies mid-sweep.

        The dead worker's lease must be observably stolen (tombstone,
        exactly one) and the merged rows must be bit-identical to a
        single-host sweep modulo wall-time fields.
        """
        specs = grid(6)
        sd = tmp_path / "shard"
        plan = ShardPlan.build(specs, 3)
        plan.publish(sd)
        ctx = multiprocessing.get_context("fork")

        doomed = ctx.Process(target=_run_doomed_worker, args=(str(sd),))
        doomed.start()
        doomed.join(timeout=60)
        assert doomed.exitcode == 139  # injected host death, mid-claim

        layout = ShardDirLayout(sd)
        stale = [
            s.shard_id
            for s in plan.shards
            if (layout.leases_dir / f"{s.shard_id}.lease").exists()
        ]
        assert len(stale) == 1  # died holding exactly one lease

        survivors = [
            ctx.Process(target=_run_survivor, args=(str(sd), f"survivor{i}"))
            for i in range(2)
        ]
        for p in survivors:
            p.start()
        for p in survivors:
            p.join(timeout=120)
            assert p.exitcode == 0

        status = shard_dir_status(sd)
        assert status["counts"]["done"] == len(plan.shards)

        merged = merge_shard_dir(sd)
        assert merged.complete and not merged.conflicts
        # the steal is observable and happened exactly once
        assert merged.stolen_shards == {stale[0]: 1}
        mgr = LeaseManager(layout.leases_dir, "observer")
        assert len(mgr.tombstones(stale[0])) == 1
        # merged rows == single-host rows, modulo wall-time fields
        single = SweepRunner().run(specs)
        assert [comparable_payload(r) for r in merged.records] == [
            comparable_payload(r) for r in single
        ]
        # and no spec ran twice: the stolen shard's specs were either
        # re-executed by the stealer exactly once or served from the
        # shared cache
        for count in _journal_executions(sd).values():
            assert count == 1


# -- api facade --------------------------------------------------------------


class TestApiFacade:
    def test_shard_sweep_matches_sweep(self, tmp_path):
        import repro

        specs = grid(3)
        merged = repro.shard_sweep(
            specs, tmp_path / "shard", num_shards=2, worker="api-w1"
        )
        assert merged.complete and not merged.conflicts
        single = repro.sweep(specs, repro.ExecutionPolicy("inline"))
        assert [comparable_payload(r) for r in merged.records] == [
            comparable_payload(r) for r in single
        ]

    def test_shard_sweep_joins_a_plan_over_its_grid(self, tmp_path):
        """A later call over the same grid joins the published plan
        whatever shard count it asks for, as ``repro sweep
        --shard-dir`` does; another grid raises PlanMismatch naming the
        directory."""
        import re

        import repro

        specs = grid(4)
        sd = tmp_path / "shard"
        first = repro.shard_sweep(specs, sd, num_shards=2, worker="api-w1")
        assert first.complete and not first.conflicts
        for shards in (3, None):
            again = repro.shard_sweep(specs, sd, num_shards=shards, worker="api-w2")
            assert [comparable_payload(r) for r in again.records] == [
                comparable_payload(r) for r in first.records
            ]
        assert len(ShardPlan.load(sd).shards) == 2
        with pytest.raises(PlanMismatch, match=re.escape(str(sd))):
            repro.shard_sweep(grid(3), sd)

    def test_shard_sweep_reads_the_plan_under_the_callers_retry(
        self, tmp_path, monkeypatch
    ):
        """Every read of the plan during shard_sweep (a join's, the
        worker's and the merge's) retries under the caller's policy."""
        import repro

        wanted = repro.RetryPolicy(max_attempts=5, backoff_s=0.0)
        seen = []
        load = ShardPlan.load.__func__

        def spy(cls, shard_dir, retry=None):
            seen.append(retry)
            return load(cls, shard_dir, retry)

        monkeypatch.setattr(ShardPlan, "load", classmethod(spy))
        policy = repro.ExecutionPolicy("inline", retry=wanted)
        for worker in ("api-w1", "api-w2"):  # publish, then join
            repro.shard_sweep(grid(2), tmp_path / "shard", policy, worker=worker)
        assert len(seen) >= 5 and all(r is wanted for r in seen), seen

    def test_top_level_exports(self):
        import repro

        for name in (
            "ShardPlan", "ShardWorker", "MergeResult",
            "merge_shard_dir", "shard_sweep",
        ):
            assert hasattr(repro, name)

"""Tests for the parallel sweep orchestrator (spec/cache/runner/export)."""

import gc
import json
import pickle
import time

import pytest

from repro.orchestrator import (
    ExecutionPolicy,
    ResultCache,
    RunRecord,
    RunSpec,
    SweepError,
    SweepRunner,
    execute_spec,
    record_row,
    records_to_rows,
    run_specs,
    write_csv,
    write_json,
)
from repro.orchestrator.fsio import atomic_write_json
from repro.orchestrator.runner import SweepTimeout, _deadline


def tiny(**kwargs) -> RunSpec:
    base = dict(
        scenario="pruning", mode="megatron", num_layers=24,
        pp_stages=4, dp_ways=1, iterations=20,
    )
    base.update(kwargs)
    return RunSpec(**base)


class TestRunSpec:
    def test_hash_is_stable(self):
        assert tiny().spec_hash == tiny().spec_hash
        assert len(tiny().spec_hash) == 16

    def test_hash_covers_every_field(self):
        base = tiny()
        assert base.spec_hash != tiny(seed=1).spec_hash
        assert base.spec_hash != tiny(mode="dynmo-partition").spec_hash
        assert base.spec_hash != tiny(iterations=21).spec_hash
        assert base.spec_hash != tiny(static_scheme=True).spec_hash
        assert base.spec_hash != tiny(balance_cost="measured").spec_hash

    def test_hash_covers_code_version(self, monkeypatch):
        from repro.orchestrator import spec as spec_mod

        before = tiny().spec_hash
        monkeypatch.setattr(spec_mod, "SIM_VERSION", "999.0.0")
        assert tiny().spec_hash != before

    def test_package_version_does_not_move_hashes(self, monkeypatch):
        """A release that moves no number keeps caches and shard plans."""
        import repro
        from repro.distrib.plan import ShardPlan

        specs = [tiny(), tiny(seed=1)]
        before = [s.spec_hash for s in specs], ShardPlan.build(specs, 2).plan_id
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        after = [s.spec_hash for s in specs], ShardPlan.build(specs, 2).plan_id
        assert after == before

    def test_default_spec_hash_is_pinned(self):
        # moves only when SIM_VERSION, SPEC_SCHEMA_VERSION or a field
        # default changes; any of those must say why in its commit
        assert RunSpec(scenario="pruning").spec_hash == "23d98aeca110d90e"

    def test_dict_roundtrip(self):
        spec = tiny(mode="dynmo-diffusion", seed=3, repack=True, repack_target=2)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_from_dict_ignores_unknown_fields(self):
        spec = RunSpec.from_dict(dict(tiny().to_dict(), bogus=1))
        assert spec == tiny()

    def test_with_returns_modified_copy(self):
        spec = tiny()
        other = spec.with_(seed=7)
        assert other.seed == 7 and spec.seed == 0

    def test_with_hashes_afresh(self):
        """The hash is cached per instance: ``with_`` builds a new one
        whose hash is computed from its own fields."""
        spec = tiny()
        cached = spec.spec_hash
        other = spec.with_(seed=7)
        assert other.spec_hash == tiny(seed=7).spec_hash != cached
        assert spec.with_().spec_hash == cached

    def test_pickle_roundtrip_keeps_hash(self):
        fresh = tiny(seed=3)
        hashed = tiny(seed=3)
        assert len(hashed.spec_hash) == 16  # fills the per-instance cache
        for spec in (fresh, hashed):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec and clone.spec_hash == tiny(seed=3).spec_hash

    def test_label_names_variant(self):
        label = tiny(mode="dynmo-partition", static_scheme=True).label
        assert "pruning" in label and "dynmo-partition" in label
        assert "static" in label


class TestExecuteSpec:
    def test_ok_run_has_metrics(self):
        record = execute_spec(tiny())
        assert record.ok
        assert record.metrics["tokens_per_s"] > 0
        assert record.metrics["iterations"] == 20
        assert record.spec_hash == tiny().spec_hash

    def test_unknown_mode_is_isolated_error(self):
        record = execute_spec(tiny(mode="warp-drive"))
        assert record.status == "error"
        assert record.error_type == "ValueError"
        assert "warp-drive" in record.error

    def test_invalid_baseline_is_isolated_error(self):
        # pruning has no dense baseline -> make_trainer raises ValueError
        record = execute_spec(tiny(mode="dense-baseline"))
        assert record.status == "error"
        assert record.error_type == "ValueError"

    @pytest.mark.parametrize(
        "scenario", ["pruning", "freezing", "sparse_attention", "early_exit", "mod"]
    )
    def test_tutel_needs_moe_layers(self, scenario):
        # rejected while building the run, not as an AttributeError at
        # iteration 0
        record = execute_spec(tiny(scenario=scenario, mode="tutel"))
        assert record.status == "error"
        assert record.error_type == "ValueError"
        assert "tutel" in record.error and scenario in record.error

    def test_unwrap_raises_on_failure(self):
        record = execute_spec(tiny(mode="dense-baseline"))
        with pytest.raises(SweepError):
            record.unwrap()

    def test_static_scheme_control(self):
        dyn = execute_spec(tiny()).unwrap()
        static = execute_spec(tiny(static_scheme=True)).unwrap()
        assert dyn["mean_bubble_ratio"] >= static["mean_bubble_ratio"] * 0.95


class TestDeadline:
    def test_deadline_interrupts_slow_body(self):
        with pytest.raises(SweepTimeout):
            with _deadline(1):
                time.sleep(5)

    def test_deadline_noop_without_budget(self):
        with _deadline(None):
            pass


class TestSweepRunner:
    def test_results_come_back_in_spec_order(self):
        specs = [tiny(seed=s) for s in (0, 1, 2)]
        records = SweepRunner().run(specs)
        assert [r.spec.seed for r in records] == [0, 1, 2]

    def test_failure_does_not_poison_sweep(self):
        specs = [tiny(), tiny(mode="dense-baseline"), tiny(seed=1)]
        records = SweepRunner().run(specs)
        assert [r.status for r in records] == ["ok", "error", "ok"]
        assert records[1].error_type == "ValueError"

    def test_inline_timeout_records_status(self):
        """A sub-second budget holds in process: the alarm is armed to
        the budget, not rounded up to a second."""
        specs = [tiny(iterations=5000), tiny(iterations=5000, seed=1)]
        policy = ExecutionPolicy("inline", timeout_s=1e-9)
        records = SweepRunner(policy=policy).run(specs)
        assert [r.status for r in records] == ["timeout", "timeout"]
        assert all(r.error_type == "SweepTimeout" for r in records)

    def test_parallel_matches_serial_exactly(self):
        specs = [
            tiny(mode=m, seed=s)
            for m in ("megatron", "dynmo-partition")
            for s in (0, 1)
        ]
        serial = SweepRunner().run(specs)
        pooled = SweepRunner(policy=ExecutionPolicy("pool", workers=2)).run(specs)
        assert all(r.ok for r in serial + pooled)
        for a, b in zip(serial, pooled):
            assert a.metrics == b.metrics

    def test_progress_callback_sees_every_run(self):
        seen = []
        runner = SweepRunner(
            progress=lambda done, total, rec: seen.append((done, total))
        )
        runner.run([tiny(), tiny(seed=1)])
        assert seen == [(1, 2), (2, 2)]

    def test_run_specs_default_runner(self):
        records = run_specs([tiny()])
        assert len(records) == 1 and records[0].ok

    def test_pool_is_reused_across_runs(self):
        with SweepRunner(policy=ExecutionPolicy("pool", workers=2)) as runner:
            runner.run([tiny(), tiny(seed=1)])
            pool = runner._pool
            assert pool is not None
            runner.run([tiny(seed=2), tiny(seed=3)])
            assert runner._pool is pool
        assert runner._pool is None  # context exit closed it

    def test_pool_workers_freeze_what_they_inherit(self):
        """A worker's garbage collector must never collect a pool object
        it inherited: that runs the pool's weakref callback, which waits
        on a shutdown lock another thread may have held at fork time."""
        with SweepRunner(policy=ExecutionPolicy("pool", workers=2)) as runner:
            runner.run([tiny(), tiny(seed=1)])
            frozen = runner._pool.submit(gc.get_freeze_count).result(timeout=60)
        assert frozen > 0

    def test_close_is_idempotent(self):
        runner = SweepRunner(policy=ExecutionPolicy("pool", workers=2))
        runner.close()
        runner.close()


class TestDeadlineTimeout:
    """Budgets are enforced even where SIGALRM cannot be armed."""

    def test_off_main_thread_budget_uses_monotonic_deadline(self):
        import threading

        results = []
        thread = threading.Thread(
            target=lambda: results.append(execute_spec(tiny(), timeout_s=1e-9))
        )
        thread.start()
        thread.join()
        (record,) = results
        assert record.status == "timeout"
        assert "monotonic" in (record.error or "")

    def test_deadline_reports_armed_state(self):
        with _deadline(5) as armed:
            assert armed
        with _deadline(None) as armed:
            assert not armed


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        assert cache.get(spec) is None
        first = SweepRunner(cache=cache).run([spec])[0]
        assert not first.cached
        second = SweepRunner(cache=cache).run([spec])[0]
        assert second.cached
        assert second.metrics == first.metrics

    def test_hit_rate_on_rerun_is_total(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny(seed=s, mode=m) for s in (0, 1) for m in ("megatron", "dynmo-partition")]
        SweepRunner(cache=cache).run(specs)
        rerun = SweepRunner(cache=cache).run(specs)
        assert all(r.cached for r in rerun)
        assert len(list(tmp_path.glob("*.json"))) == len(specs)

    def test_put_encodes_the_sorted_envelope(self, tmp_path):
        """An entry is the sorted-key JSON of its envelope, byte for
        byte, though put encodes the record only once."""
        import hashlib

        cache = ResultCache(tmp_path)
        record = SweepRunner(cache=cache).run([tiny()])[0]
        payload = record.to_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        envelope = {
            "cache_schema": 2,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "record": payload,
        }
        raw = (tmp_path / f"{record.spec_hash}.json").read_text()
        assert raw == json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"

    def test_entries_written_by_a_dict_encode_still_verify(self, tmp_path):
        """An entry written by encoding the whole envelope dict (as put
        did before it spliced the record text in) is served and passes
        verify."""
        import hashlib

        record = SweepRunner().run([tiny()])[0]
        payload = record.to_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        atomic_write_json(
            tmp_path / f"{record.spec_hash}.json",
            {
                "cache_schema": 2,
                "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
                "record": payload,
            },
        )
        cache = ResultCache(tmp_path)
        hit = cache.get(tiny())
        assert hit is not None and hit.cached
        assert hit.metrics == record.metrics
        audit = cache.verify()
        assert audit.ok == 1 and audit.clean

    def test_a_get_parses_only_the_stored_record_text(self, tmp_path, monkeypatch):
        """A read checks the digest over the stored record bytes: it
        never encodes the record again."""
        import repro.orchestrator.cache as cache_mod

        cache = ResultCache(tmp_path)
        record = SweepRunner(cache=cache).run([tiny()])[0]

        def no_encode(payload):
            raise AssertionError("the record was encoded again")

        monkeypatch.setattr(cache_mod, "_canonical", no_encode)
        hit = cache.get(tiny())
        assert hit is not None and hit.cached
        assert hit.metrics == record.metrics

    def test_only_the_bytes_put_writes_are_served(self, tmp_path):
        """An intact record in another layout (an older release's
        ``json.dump`` of the unsorted envelope) is a stale miss; the
        same layout failing its checksum, or put's bytes plus one more,
        is corrupt."""
        import hashlib

        cache = ResultCache(tmp_path)
        record = SweepRunner(cache=cache).run([tiny()])[0]
        path = tmp_path / f"{record.spec_hash}.json"
        written = path.read_text()
        path.write_text(written + " ")
        assert cache.get(tiny()) is None and not path.exists()  # quarantined

        payload = record.to_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        envelope = {
            "cache_schema": 2,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "record": payload,
        }
        path.write_text(json.dumps(envelope))
        assert cache.get(tiny()) is None and path.exists()
        audit = cache.stats()
        assert (audit.ok, audit.stale, audit.corrupt) == (0, 1, 0)
        envelope["record"]["status"] = "oom"
        path.write_text(json.dumps(envelope))
        assert cache.stats().corrupt == 1

    def test_changed_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run([tiny()])
        changed = SweepRunner(cache=cache).run([tiny(iterations=21)])[0]
        assert not changed.cached

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny(mode="dense-baseline")
        SweepRunner(cache=cache).run([spec])
        assert not list(tmp_path.glob("*.json"))
        assert cache.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        SweepRunner(cache=cache).run([spec])
        path = tmp_path / f"{spec.spec_hash}.json"
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_binary_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        (tmp_path / f"{spec.spec_hash}.json").write_bytes(b"\xff\xfe\x00")
        assert cache.get(spec) is None

    def test_hash_collision_detected_via_spec_compare(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        record = SweepRunner(cache=cache).run([spec])[0]
        # forge an entry whose filename matches another spec's hash
        other = tiny(seed=9)
        forged = record.to_dict()
        (tmp_path / f"{other.spec_hash}.json").write_text(json.dumps(forged))
        assert cache.get(other) is None

    def test_refresh_bypasses_reads_but_writes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        SweepRunner(cache=cache).run([spec])
        stale = tmp_path / f"{spec.spec_hash}.json"
        # a servable entry that no fresh run writes byte for byte
        hit = cache.get(spec)
        hit.duration_s += 1.0
        cache.put(hit)
        marked = stale.read_text()
        refreshed = SweepRunner(cache=cache, refresh=True).run([spec])[0]
        assert not refreshed.cached
        # the forced run replaced the entry on disk
        assert stale.read_text() != marked
        assert cache.get(spec) is not None


class TestAtomicWriteJson:
    def test_writes_compact_sorted_json_line(self, tmp_path):
        payload = {"b": [1, 2.5, None], "a": {"z": "é", "y": True}}
        path = tmp_path / "entry.json"
        atomic_write_json(path, payload)
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_unencodable_payload_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "entry.json", {"x": object()})
        assert list(tmp_path.iterdir()) == []

    def test_cache_entries_verify(self, tmp_path):
        from repro.cli import main

        specs = [tiny(), tiny(seed=1)]
        SweepRunner(cache=ResultCache(tmp_path)).run(specs)
        for spec in specs:
            raw = (tmp_path / f"{spec.spec_hash}.json").read_text()
            envelope = json.loads(raw)
            assert raw == json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            ) + "\n"
        audit = ResultCache(tmp_path).verify()
        assert audit.ok == 2 and audit.clean
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0


class TestExport:
    def test_rows_carry_hash_and_seed(self):
        records = SweepRunner().run([tiny(seed=5)])
        row = record_row(records[0])
        assert row["spec_hash"] == tiny(seed=5).spec_hash
        assert row["seed"] == 5
        assert row["tokens_per_s"] > 0

    def test_json_roundtrip(self, tmp_path):
        records = SweepRunner().run([tiny(), tiny(seed=1)])
        path = write_json(records, tmp_path / "out.json")
        loaded = [RunRecord.from_dict(d) for d in json.loads(path.read_text())["records"]]
        assert [r.spec for r in loaded] == [r.spec for r in records]
        assert [r.metrics for r in loaded] == [r.metrics for r in records]

    def test_csv_has_header_and_rows(self, tmp_path):
        records = SweepRunner().run([tiny()])
        path = write_csv(records, tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "spec_hash" in header and "seed" in header
        assert "tokens_per_s" in header

    def test_failed_rows_export_error_type(self):
        records = SweepRunner().run([tiny(mode="dense-baseline")])
        rows = records_to_rows(records)
        assert rows[0]["status"] == "error"
        assert rows[0]["error_type"] == "ValueError"


class TestRunRecordSerialisation:
    def test_record_dict_roundtrip(self):
        record = execute_spec(tiny())
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.spec == record.spec
        assert clone.metrics == record.metrics
        assert clone.status == record.status

    def test_schema_drifted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        (tmp_path / f"{spec.spec_hash}.json").write_text('{"schema": 2, "bogus": 1}')
        assert cache.get(spec) is None


class TestHeterogeneousElasticSweep:
    """Acceptance: a mixed-node elastic scenario runs end-to-end and
    every row records the placement strategy and surviving ranks."""

    def test_mixed_node_repack_sweep(self):
        specs = [
            tiny(
                scenario="pruning",
                mode="dynmo-diffusion",
                pp_stages=8,
                iterations=60,
                cluster="2x8+2x4",
                placement=placement,
                repack=True,
                repack_target=4,
                repack_force=True,
                elastic_total_gpus=8,
            )
            for placement in ("packed", "scattered")
        ]
        records = run_specs(specs)
        for spec, record in zip(specs, records):
            metrics = record.unwrap()
            assert metrics["placement_strategy"] == spec.placement
            survivors = metrics["final_stage_ranks"]
            assert len(survivors) == metrics["final_num_stages"]
            assert len(set(survivors)) == len(survivors)
            row = record_row(record)
            assert row["placement"] == spec.placement
            assert row["surviving_ranks"] == "-".join(map(str, survivors))
        # forced repack 8 -> 4 must actually release workers
        assert records[0].metrics["final_num_stages"] == 4
        assert records[0].metrics["released_ranks_history"]

    def test_repack_elastic_and_event_runs_change_stage_count(self):
        """Re-packing, elastic and event+repack runs change their stage
        count mid-flight."""
        from repro.cluster.events import ClusterEvent, ClusterEventTrace

        repack = tiny(
            scenario="pruning",
            mode="dynmo-diffusion",
            pp_stages=8,
            iterations=40,
            cluster="2x8+2x4",
            repack=True,
            repack_target=4,
            repack_force=True,
        )
        # the forced repack at iteration 0 keeps ranks 4-7; the trace
        # then shrinks that pipeline to 3 stages and regrows it to 4
        trace = ClusterEventTrace(
            (
                ClusterEvent(5, "failure", (5,)),
                ClusterEvent(25, "recovery", (5,)),
            )
        )
        records = SweepRunner().run([
            repack,
            repack.with_(elastic_total_gpus=8, placement="scattered"),
            repack.with_(cluster="", cluster_events=trace.to_json()),
        ])
        assert all(r.ok for r in records), [r.error for r in records]
        assert records[0].metrics["final_num_stages"] == 4
        assert records[1].metrics["average_gpus"] < 8.0
        stages = dict(records[2].metrics["stage_count_history"])
        assert (stages[4], stages[5], stages[25]) == (4, 3, 4)

    def test_cluster_too_small_is_isolated_error(self):
        record = execute_spec(tiny(pp_stages=8, cluster="1x4"))
        assert record.status == "error"
        assert "GPUs" in (record.error or "")

    def test_placement_changes_result_and_hash(self):
        a = tiny(placement="packed")
        b = tiny(placement="scattered")
        assert a.spec_hash != b.spec_hash
        assert "scattered" in b.label

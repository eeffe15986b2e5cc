"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.scenario == ["pruning"]
        assert args.layers == [24]

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--scenario", "quantum"])

    def test_gantt_flags(self):
        args = build_parser().parse_args(
            ["gantt", "--balanced", "--schedule", "1f1b", "--micro", "4"]
        )
        assert args.balanced and args.schedule == "1f1b" and args.micro == 4

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--cluster", "2x0"], "--cluster"),
            (["sweep", "--iterations", "0"], "--iterations"),
            (["sweep", "--dp", "0"], "--dp"),
            (["sweep", "--stages", "64", "--layers", "24"], "--stages"),
            (["sweep", "--memory-limit", "abc"], "--memory-limit"),
            (["sweep", "--jobs", "-1"], "--jobs"),
            (["sweep", "--timeout", "0"], "--timeout"),
            (["sweep", "--retries", "0"], "--retries"),
            (["ensemble", "--n", "0"], "--n"),
            (["gantt", "--micro", "0"], "--micro"),
            (["events", "--ranks", "0"], "--ranks"),
            (["fig4", "--gpus", "0"], "--gpus"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_invalid_values_exit_2_naming_the_flag(self, argv, flag, tmp_path, capsys):
        """Bad values fail while parsing: exit 2, the flag named on
        stderr, and no run, cache entry or pool."""
        cache_dir = tmp_path / "cache"
        runner_flags = {
            "sweep": ["--scenario", "pruning", "--mode", "megatron", "--jobs", "1"],
            "ensemble": ["--scenario", "pruning", "--mode", "megatron", "--jobs", "1"],
            "fig4": ["--iterations", "5"],
        }.get(argv[0], [])
        if argv[0] in ("sweep", "ensemble", "fig4"):
            runner_flags += ["--cache-dir", str(cache_dir)]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *runner_flags, *argv[1:]])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_valid_values_still_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--cluster", "2x8+2x4:a100", "--memory-limit", "4e9",
             "--jobs", "0", "--timeout", "1.5", "--stages", "24", "--layers", "24"]
        )
        assert args.cluster == "2x8+2x4:a100"  # unchanged, so no spec hash moves
        assert args.memory_limit == "4e9"
        assert args.jobs == 0 and args.timeout == 1.5
        assert build_parser().parse_args(["sweep"]).memory_limit == ""


class TestCommands:
    def test_fig3_runs(self, capsys):
        rc = main(
            ["fig3", "--scenario", "freezing", "--layers", "24",
             "--stages", "4", "--iterations", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "freezing" in out

    def test_fig1_runs(self, capsys):
        rc = main(
            ["fig1", "--scenario", "early_exit", "--stages", "4",
             "--iterations", "30"]
        )
        assert rc == 0
        assert "idleness" in capsys.readouterr().out

    def test_overhead_runs(self, capsys):
        rc = main(
            ["overhead", "--scenario", "freezing", "--iterations", "40",
             "--stages", "4"]
        )
        assert rc == 0
        assert "overhead" in capsys.readouterr().out

    def test_gantt_runs(self, capsys):
        rc = main(
            ["gantt", "--scenario", "early_exit", "--stages", "4",
             "--micro", "4", "--width", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "w0" in out

    def test_gantt_balanced_runs(self, capsys):
        rc = main(
            ["gantt", "--scenario", "freezing", "--stages", "4",
             "--micro", "4", "--width", "40", "--balanced"]
        )
        assert rc == 0
        assert "balanced" in capsys.readouterr().out

    def test_fig4_runs(self, capsys):
        rc = main(
            ["fig4", "--scenario", "pruning", "--iterations", "60",
             "--gpus", "4", "2", "--stages", "4"]
        )
        assert rc == 0
        assert "re-packing" in capsys.readouterr().out


class TestSweepCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--scenario", "pruning", "freezing",
            "--mode", "megatron", "dynmo-partition",
            "--iterations", "30", "--stages", "4", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        rc = main(self._argv(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sweep results" in out
        assert "4 runs: 4 ok" in out
        assert "0 from cache" in out

    def test_sweep_rerun_is_fully_cached(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path)) == 0
        assert "4 from cache" in capsys.readouterr().out

    def test_sweep_no_cache_escape_hatch(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path, "--no-cache")) == 0
        assert "0 from cache" in capsys.readouterr().out

    def test_sweep_jobs0_batched_matches_serial(self, tmp_path, capsys):
        """--jobs 0 runs the batched executor; exported rows must be
        identical to the serial path modulo wall-time fields."""
        import json

        serial_json = tmp_path / "serial.json"
        batched_json = tmp_path / "batched.json"
        argv = [
            "sweep", "--scenario", "pruning", "freezing",
            "--mode", "megatron", "dynmo-partition",
            "--iterations", "30", "--stages", "4",
        ]
        assert main([*argv, "--jobs", "1", "--cache-dir",
                     str(tmp_path / "c1"), "--json", str(serial_json)]) == 0
        capsys.readouterr()
        assert main([*argv, "--jobs", "0", "--cache-dir",
                     str(tmp_path / "c0"), "--json", str(batched_json)]) == 0
        out = capsys.readouterr().out
        assert "jobs=0" in out and "4 runs: 4 ok" in out
        import pathlib
        import sys
        scripts_dir = str(pathlib.Path(__file__).resolve().parents[1] / "scripts")
        sys.path.insert(0, scripts_dir)
        try:
            from compare_sweep_json import compare
        finally:
            sys.path.remove(scripts_dir)
        with serial_json.open() as fh:
            left = json.load(fh)
        with batched_json.open() as fh:
            right = json.load(fh)
        assert compare(left, right) == []

    def test_sweep_exports_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "out" / "sweep.json"
        csv_path = tmp_path / "out" / "sweep.csv"
        rc = main(self._argv(tmp_path, "--json", str(json_path), "--csv", str(csv_path)))
        assert rc == 0
        assert json_path.exists() and csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "spec_hash" in header and "seed" in header

    def test_sweep_failure_sets_exit_code(self, tmp_path, capsys):
        rc = main([
            "sweep", "--scenario", "pruning", "--mode", "dense-baseline",
            "--iterations", "20", "--stages", "4", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_sweep_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--mode", "warp-drive"])

    def test_fig_commands_accept_jobs_flag(self):
        args = build_parser().parse_args(["fig1", "--jobs", "2"])
        assert args.jobs == 2


class TestHeterogeneousSweep:
    def test_sweep_parser_placement_cluster_repack(self):
        args = build_parser().parse_args(
            ["sweep", "--placement", "packed", "dp-outer",
             "--cluster", "2x8+2x4", "--repack", "--repack-target", "4",
             "--repack-force"]
        )
        assert args.placement == ["packed", "dp-outer"]
        assert args.cluster == "2x8+2x4"
        assert args.repack and args.repack_force and args.repack_target == 4

    def test_sweep_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--placement", "random"])

    def test_hetero_repack_sweep_runs(self, capsys, tmp_path):
        out_json = tmp_path / "rows.json"
        rc = main(
            ["sweep", "--scenario", "pruning", "--mode", "dynmo-diffusion",
             "--stages", "8", "--iterations", "40",
             "--cluster", "2x8+2x4", "--placement", "packed", "scattered",
             "--repack", "--repack-target", "4", "--repack-force",
             "--jobs", "1", "--json", str(out_json)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "surviving_ranks" in out
        assert "scattered" in out
        import json

        payload = json.loads(out_json.read_text())
        for rec in payload["records"]:
            assert rec["metrics"]["placement_strategy"] in ("packed", "scattered")
            assert rec["metrics"]["final_stage_ranks"]

    def test_fig1_on_hetero_cluster(self, capsys):
        rc = main(
            ["fig1", "--scenario", "freezing", "--stages", "8",
             "--iterations", "30", "--cluster", "2x8+2x4",
             "--placement", "scattered"]
        )
        assert rc == 0
        assert "Figure 1" in capsys.readouterr().out


class TestJournalFlags:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--scenario", "pruning", "--mode", "megatron",
            "--iterations", "20", "--stages", "4", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_sweep_journal_writes_and_resume_serves(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(self._argv(tmp_path, "--journal", str(journal))) == 0
        assert journal.exists()
        lines = journal.read_text().splitlines()
        assert len(lines) == 2  # header + one record
        capsys.readouterr()
        # resume against a fresh cache dir: the record must come from
        # the journal, not from re-execution or the result cache
        rc = main([
            "sweep", "--scenario", "pruning", "--mode", "megatron",
            "--iterations", "20", "--stages", "4", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache2"),
            "--resume", str(journal),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 prior record(s)" in out
        assert journal.read_text().splitlines() == lines  # nothing re-journaled

    def test_retry_flags_reach_policy(self):
        from repro.cli import _policy_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "--retries", "5", "--retry-backoff", "0.2"]
        )
        policy = _policy_from_args(args)
        assert policy.retry.max_attempts == 5
        assert policy.retry.backoff_s == 0.2


class TestCacheCommand:
    def test_verify_gc_roundtrip(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--scenario", "pruning", "--mode", "megatron",
            "--iterations", "20", "--stages", "4", "--jobs", "1",
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "corrupt      0" in capsys.readouterr().out

        # damage the entry: verify must flag it (exit 1) and quarantine it
        from repro.orchestrator import faults

        [entry] = list(cache_dir.glob("*.json"))
        faults.corrupt_file(entry, seed=0)
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "corrupt      1" in out and "quarantined ->" in out
        assert not entry.exists()

        # gc reaps the quarantine; the cache is clean again
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0

    @pytest.mark.parametrize("action", ["verify", "stats", "gc"])
    def test_missing_cache_dir_exits_2(self, action, tmp_path, capsys):
        """A mistyped --cache-dir must not pass as a clean, empty cache."""
        missing = tmp_path / "no-such-cache"
        assert main(["cache", action, "--cache-dir", str(missing)]) == 2
        assert f"no result cache at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])


class TestEnsembleCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "ensemble", "--scenario", "pruning", "--mode", "megatron",
            "--n", "6", "--stages", "4", "--iterations", "20",
            "--failure-rate", "0.05", "--recover-after", "8",
            "--straggler-rate", "0.08", "--straggler-duration", "4",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_ensemble_runs_and_summarises(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Ensemble" in out and "iter_p99_ms" in out
        assert "surv_final" in out

    def test_ensemble_rerun_is_full_cache_hit(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path)) == 0
        assert "(full cache hit)" in capsys.readouterr().out

    def test_ensemble_exports(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "ens.json"
        csv_path = tmp_path / "ens.csv"
        rc = main(self._argv(
            tmp_path, "--json", str(json_path), "--csv", str(csv_path)
        ))
        assert rc == 0
        payload = json.loads(json_path.read_text())
        assert payload["n"] == 6 and payload["groups"]
        assert "survivability" in payload["groups"][0]
        assert csv_path.read_text().startswith("group,")

"""Integration tests for the experiment harness (small scale)."""

import pytest

from repro.dynamics.base import StaticScheme
from repro.experiments import (
    SCENARIOS,
    ascii_table,
    build_scenario,
    make_trainer,
    run_figure1,
    run_figure3_scenario,
    run_figure4_repacking,
    run_overhead_table,
)


class TestReporting:
    def test_ascii_table_renders(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        out = ascii_table(rows, title="T")
        assert "T" in out
        assert "| a" in out or "|  a" in out
        assert out.count("\n") >= 5

    def test_empty_table(self):
        assert ascii_table([]) == "(empty table)"

    def test_column_selection(self):
        out = ascii_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[1]


class TestBuildScenario:
    def test_all_scenarios_construct(self):
        for name in SCENARIOS:
            setup = build_scenario(name, num_layers=24, iterations=20)
            assert setup.name == name
            assert setup.iterations == 20
            scheme = setup.scheme_factory()
            states = scheme.initial_states()
            scheme.step(0, states)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            build_scenario("quantum")

    @pytest.mark.parametrize("name", ["pruning", "freezing", "mod", "early_exit"])
    def test_depth_without_model_raises(self, name):
        """These scenarios run a GPT_BY_LAYERS config: another depth is
        refused, not silently run at 24 layers."""
        with pytest.raises(ValueError, match=r"\[24, 32, 40, 48\]"):
            build_scenario(name, num_layers=30)

    @pytest.mark.parametrize("name", ["moe", "sparse_attention"])
    def test_any_depth_builds_its_own_model(self, name):
        assert len(build_scenario(name, num_layers=18).specs) == 18 + 2

    def test_moe_forces_16_stages(self):
        setup = build_scenario("moe", num_layers=32, pp_stages=8)
        assert setup.pp_stages == 16

    def test_sparse_attention_long_sequence(self):
        setup = build_scenario("sparse_attention", num_layers=24)
        assert setup.cfg.seq_len == 8192

    def test_schedule_scaling(self):
        setup = build_scenario("pruning", iterations=1000)
        scheme = setup.scheme_factory()
        assert scheme.schedule.start_iter == 300
        assert scheme.schedule.end_iter == 700


class TestRunTraining:
    def test_modes(self):
        setup = build_scenario("freezing", num_layers=24, pp_stages=4, dp_ways=1, iterations=30)
        for mode in ("megatron", "deepspeed", "egeria", "dynmo-partition"):
            res = make_trainer(setup, mode=mode).run()
            assert res.tokens_per_s > 0

    def test_dense_baseline_requires_support(self):
        setup = build_scenario("freezing", num_layers=24, iterations=10)
        with pytest.raises(ValueError):
            make_trainer(setup, mode="dense-baseline")

    def test_dense_baseline_for_sparse_attention(self):
        setup = build_scenario(
            "sparse_attention", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        res = make_trainer(setup, mode="dense-baseline").run()
        assert res.tokens_per_s > 0


class TestFigureDrivers:
    def test_figure1_rows(self):
        rows = run_figure1(
            scenarios=["freezing", "early_exit"], num_layers=24, iterations=30,
            pp_stages=4,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["idleness_dynamic"] >= 0
            assert row["bubble_increase_x"] >= 0.8

    def test_figure1_dynamic_worse_than_static(self):
        rows = run_figure1(scenarios=["early_exit"], num_layers=24, iterations=40, pp_stages=4)
        assert rows[0]["idleness_dynamic"] > rows[0]["idleness_static"]

    def test_figure3_freezing_speedup(self):
        row = run_figure3_scenario(
            "freezing", num_layers=24, pp_stages=4, dp_ways=1, iterations=60
        )
        assert row["speedup"] > 1.0
        assert row["dynmo-partition"] > 0

    def test_figure4_repacking_rows(self):
        rows = run_figure4_repacking(
            "pruning", num_layers=24, iterations=60, gpu_counts=(4, 2)
        )
        assert len(rows) == 2
        assert rows[0]["gpus"] == 4
        for row in rows:
            assert row["tps_per_gpu"] >= 0

    def test_overhead_table(self):
        rows = run_overhead_table(scenarios=("freezing",), num_layers=24, iterations=40)
        assert rows[0]["overhead_pct"] < 15.0
        assert rows[0]["overhead_pct"] >= 0.0

"""Extra experiment-harness coverage: OOM cells, paper-scale configs,
stage-rank striding, throughput accounting edge paths."""

import numpy as np

from repro.cluster.memory import OutOfMemoryError
from repro.experiments.common import build_scenario, make_trainer
from repro.experiments.figure4 import run_figure4_repacking
from repro.model.cost import fresh_states
from repro.pipeline import PipelineEngine, PipelinePlan


class TestFigure4OOM:
    def test_oom_cell_marked(self):
        """With tiny simulated GPU memory the packed configs go OOM —
        the grey cells of Fig. 4."""
        rows = run_figure4_repacking(
            "pruning",
            num_layers=24,
            iterations=40,
            gpu_counts=(4, 2),
            memory_scale=1e-4,
        )
        assert any(r["oom"] for r in rows)
        for r in rows:
            if r["oom"]:
                assert r["tokens_per_s"] == 0.0
                assert r["tps_per_gpu"] == 0.0

    def test_per_gpu_improves_when_packed(self):
        rows = run_figure4_repacking(
            "pruning", num_layers=24, iterations=100, gpu_counts=(8, 4)
        )
        full, packed = rows[0], rows[1]
        if not packed["oom"]:
            assert packed["tps_per_gpu"] > full["tps_per_gpu"] * 0.9


class TestPaperScale:
    def test_paper_scale_configs(self):
        """paper_scale switches to the paper's GPU grid (no run)."""
        s = build_scenario("pruning", paper_scale=True)
        assert (s.pp_stages, s.dp_ways, s.iterations) == (24, 30, 10_000)
        s = build_scenario("moe", num_layers=32, paper_scale=True)
        assert (s.pp_stages, s.dp_ways) == (16, 8)
        s = build_scenario("mod", paper_scale=True)
        assert (s.pp_stages, s.dp_ways) == (16, 8)

    def test_paper_scale_single_iteration_smoke(self):
        """One simulated iteration at the paper's 24-stage scale."""
        s = build_scenario("freezing", num_layers=48, paper_scale=True)
        scheme = s.scheme_factory()
        states = scheme.initial_states()
        scheme.step(0, states)
        eng = PipelineEngine(s.cost, s.comm, schedule="zb", num_micro=96, dp_ways=30)
        res = eng.run_iteration(PipelinePlan.uniform(len(s.specs), 24), states)
        assert res.makespan > 0
        assert res.num_workers == 24


class TestPlacementCommCost:
    def test_placement_changes_comm_cost(self, gpt24_cost, gpt24_states, comm):
        """A scattered placement forces every pipeline hop inter-node."""
        from repro.cluster.placement import make_placement

        plan = PipelinePlan.uniform(26, 2)
        local = PipelineEngine(
            gpt24_cost, comm, num_micro=8,
            placement=make_placement(comm.topology, 2, strategy="packed"),
        ).run_iteration(plan, gpt24_states)
        remote = PipelineEngine(
            gpt24_cost, comm, num_micro=8,
            placement=make_placement(comm.topology, 2, strategy="scattered"),
        ).run_iteration(plan, gpt24_states)
        assert remote.makespan > local.makespan


class TestRunTrainingEdge:
    def test_explicit_scheme_and_plan(self):
        from repro.baselines.deepspeed import deepspeed_plan
        from repro.dynamics import StaticScheme

        setup = build_scenario("freezing", num_layers=24, pp_stages=4, dp_ways=1, iterations=10)
        plan = deepspeed_plan(setup.specs, 4, "regex:block")
        res = make_trainer(
            setup, mode="megatron", scheme=StaticScheme(setup.specs), initial_plan=plan
        ).run()
        assert res.tokens_per_s > 0
        assert res.final_plan == plan

    def test_iterations_override(self):
        setup = build_scenario("freezing", num_layers=24, pp_stages=4, dp_ways=1, iterations=100)
        res = make_trainer(setup, mode="megatron", iterations=7).run()
        assert res.iterations == 7


class TestGanttStr:
    def test_str_renders(self, gpt24_cost, gpt24_states):
        from repro.pipeline.visualize import render_gantt

        eng = PipelineEngine(gpt24_cost, None, num_micro=2, record_timeline=True)
        res = eng.run_iteration(PipelinePlan.uniform(26, 2), gpt24_states)
        text = str(render_gantt(res, width=20))
        assert "w0" in text and "w1" in text
        assert "ms" in text

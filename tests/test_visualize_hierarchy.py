"""Tests for the Gantt visualizer."""

import pytest

from repro.pipeline import PipelineEngine, PipelinePlan
from repro.pipeline.visualize import bubble_summary, render_gantt


class TestGantt:
    def _result(self, cost, states):
        eng = PipelineEngine(cost, None, schedule="1f1b", num_micro=4, record_timeline=True)
        return eng.run_iteration(PipelinePlan.uniform(26, 4), states)

    def test_render_shape(self, gpt24_cost, gpt24_states):
        res = self._result(gpt24_cost, gpt24_states)
        chart = render_gantt(res, width=40)
        assert len(chart.grid) == 4
        assert all(len(r) == 40 for r in chart.grid)
        assert set("".join(chart.grid)) <= {"F", "B", "W", "."}

    def test_first_worker_starts_busy(self, gpt24_cost, gpt24_states):
        res = self._result(gpt24_cost, gpt24_states)
        chart = render_gantt(res, width=40)
        assert chart.grid[0][0] == "F"
        # deeper stages start idle (warm-up)
        assert chart.grid[3][0] == "."

    def test_occupancy_tracks_busy(self, gpt24_cost, gpt24_states):
        res = self._result(gpt24_cost, gpt24_states)
        chart = render_gantt(res, width=200)
        for wkr in range(4):
            measured = res.busy[wkr] / res.makespan
            assert chart.occupancy(wkr) == pytest.approx(measured, abs=0.08)

    def test_requires_timeline(self, gpt24_cost, gpt24_states):
        eng = PipelineEngine(gpt24_cost, None, num_micro=2)
        res = eng.run_iteration(PipelinePlan.uniform(26, 2), gpt24_states)
        with pytest.raises(ValueError):
            render_gantt(res)

    def test_invalid_width(self, gpt24_cost, gpt24_states):
        res = self._result(gpt24_cost, gpt24_states)
        with pytest.raises(ValueError):
            render_gantt(res, width=0)

    def test_bubble_summary(self, gpt24_cost, gpt24_states):
        res = self._result(gpt24_cost, gpt24_states)
        rows = bubble_summary(res)
        assert len(rows) == 4
        for row in rows:
            assert row["busy_ms"] > 0
            assert 0 <= row["idle_frac"] <= 1

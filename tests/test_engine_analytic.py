"""Hand-computed analytic regression tests for the pipeline engine.

These pin down exact makespans for tiny configurations where the
schedule can be worked out on paper, so any regression in dependency
handling or schedule generation fails loudly rather than shifting
benchmark numbers quietly.
"""

import pytest

from repro.model.cost import LayerSpec, LayerState, ModelCost
from repro.pipeline import PipelineEngine, PipelinePlan


def make_unit_cost(num_layers: int, unit_flops: float = 1.0):
    """Layers whose fwd time is exactly `unit` and bwd exactly 2*unit
    (pure weight matmul, no attention quadratic)."""
    peak, eff = 1.0, 1.0
    specs = [
        LayerSpec(
            index=i,
            name=f"l{i}",
            kind="block",
            param_count=1,
            matmul_flops=unit_flops,
            attn_quad_flops=0.0,
            ffn_flops=0.0,
            activation_bytes=0,
        )
        for i in range(num_layers)
    ]
    return ModelCost(specs, peak_flops=peak, efficiency=eff)


class TestAnalyticMakespans:
    def test_single_stage_sequential(self):
        """1 stage, M micro: makespan = M * (F + B) = M * 3."""
        cost = make_unit_cost(2)
        eng = PipelineEngine(cost, None, schedule="1f1b", num_micro=4)
        res = eng.run_iteration(PipelinePlan.uniform(2, 1), [LayerState()] * 2)
        # stage fwd = 2 layers * 1 = 2; bwd = 2 * 2 = 4; 4 micro
        assert res.makespan == pytest.approx(4 * (2 + 4))
        assert res.bubble_ratio() == pytest.approx(0.0)

    def test_two_stage_gpipe(self):
        """2 stages x 1 layer, 2 micro, no comm.

        F=1, B=2 per stage.  GPipe timeline:
          s0: F0[0,1] F1[1,2] ... B1[4,6] B0[6,8]
          s1: F0[1,2] F1[2,3] B1[3,5] B0[5,7]
        s0's B1 waits for s1's B1 (done at 5)? s1 reverse order: B1 at
        [3,5], B0 at [5,7]; s0: B1 needs s1.B1 (5) -> [5,7], B0 needs
        s1.B0 (7) -> [7,9].  Makespan 9.
        """
        cost = make_unit_cost(2)
        eng = PipelineEngine(cost, None, schedule="gpipe", num_micro=2)
        res = eng.run_iteration(PipelinePlan.uniform(2, 2), [LayerState()] * 2)
        assert res.makespan == pytest.approx(9.0)

    def test_two_stage_1f1b(self):
        """Same setup under 1F1B.

        s1 ops: F0 B0 F1 B1; s0 ops: F0 F1 B0 B1.
          s0: F0[0,1] F1[1,2]
          s1: F0[1,2] B0[2,4] F1[2? needs s0.F1 at 2 and worker free at 4] ->
              F1[4,5] B1[5,7]
          s0: B0 needs s1.B0 (4) -> [4,6]; B1 needs s1.B1 (7) -> [7,9]
        Makespan 9 (same total, different interleave).
        """
        cost = make_unit_cost(2)
        eng = PipelineEngine(cost, None, schedule="1f1b", num_micro=2)
        res = eng.run_iteration(PipelinePlan.uniform(2, 2), [LayerState()] * 2)
        assert res.makespan == pytest.approx(9.0)

    def test_two_stage_zb_fills_bubble(self):
        """Zero-bubble: B (input-grad) = 1, W = 1 per layer.

        s1: F0[1,2] B0[2,3] F1[3,4] B1[4,5] + 2W -> busy through 7
        s0: F0[0,1] F1[1,2] gap B0[3,4] B1[5,6] + 2W (fill gaps [2,3] and
        [4,5] with W after B... W0 available at 4: gap[4,5] takes W0;
        W1 at 6 -> append: end 7.  Makespan 7 < 9.
        """
        cost = make_unit_cost(2)
        eng = PipelineEngine(cost, None, schedule="zb", num_micro=2)
        res = eng.run_iteration(PipelinePlan.uniform(2, 2), [LayerState()] * 2)
        assert res.makespan == pytest.approx(7.0)

    def test_deep_pipeline_steady_state(self):
        """Large M: per-micro cost of the bottleneck stage dominates.

        4 equal stages, F=1, B=2 -> steady-state adds (1+2)=3 per
        micro; makespan ~ 3M + wind-up/down.  Check the rate.
        """
        cost = make_unit_cost(4)
        eng_small = PipelineEngine(cost, None, schedule="1f1b", num_micro=16)
        eng_big = PipelineEngine(cost, None, schedule="1f1b", num_micro=32)
        plan = PipelinePlan.uniform(4, 4)
        t16 = eng_small.run_iteration(plan, [LayerState()] * 4).makespan
        t32 = eng_big.run_iteration(plan, [LayerState()] * 4).makespan
        assert (t32 - t16) == pytest.approx(16 * 3.0)

    def test_bottleneck_stage_sets_rate(self):
        """One stage 2x heavier: steady-state rate = its per-micro cost."""
        cost = make_unit_cost(4)
        states = [LayerState() for _ in range(4)]
        states[2].moe_multiplier = 1.0  # no-op; heaviness via 2 layers
        plan = PipelinePlan(tuple([0, 1, 3, 4]), 4)  # sizes [1, 2, 1]
        eng_a = PipelineEngine(cost, None, schedule="1f1b", num_micro=16)
        eng_b = PipelineEngine(cost, None, schedule="1f1b", num_micro=32)
        ta = eng_a.run_iteration(plan, states).makespan
        tb = eng_b.run_iteration(plan, states).makespan
        # bottleneck stage: 2 layers -> F=2, B=4 -> 6 per micro
        assert (tb - ta) == pytest.approx(16 * 6.0)

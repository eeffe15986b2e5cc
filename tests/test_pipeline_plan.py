"""Tests for PipelinePlan and schedules."""

import numpy as np
import pytest

from repro.pipeline import Op, OpKind, PipelinePlan, Schedule


class TestPipelinePlan:
    def test_uniform_split(self):
        plan = PipelinePlan.uniform(10, 4)
        assert plan.num_stages == 4
        assert plan.stage_sizes() == [3, 3, 2, 2]
        assert sum(plan.stage_sizes()) == 10

    def test_uniform_exact(self):
        plan = PipelinePlan.uniform(8, 4)
        assert plan.stage_sizes() == [2, 2, 2, 2]

    def test_stage_layers(self):
        plan = PipelinePlan((0, 2, 5), 5)
        assert list(plan.stage_layers(1)) == [2, 3, 4]

    def test_stage_loads(self):
        plan = PipelinePlan((0, 2, 4), 4)
        loads = plan.stage_loads(np.array([1.0, 2.0, 3.0, 4.0]))
        assert loads.tolist() == [3.0, 7.0]

    def test_stage_loads_wrong_length(self):
        plan = PipelinePlan.uniform(4, 2)
        with pytest.raises(ValueError):
            plan.stage_loads(np.ones(5))

    def test_move_boundary(self):
        plan = PipelinePlan((0, 3, 6), 6)
        left = plan.move_boundary(1, -1)
        assert left.stage_sizes() == [2, 4]
        right = plan.move_boundary(1, +1)
        assert right.stage_sizes() == [4, 2]

    def test_move_boundary_cannot_empty_stage(self):
        plan = PipelinePlan((0, 1, 4), 4)
        with pytest.raises(ValueError):
            plan.move_boundary(1, -1)

    def test_move_external_boundary_raises(self):
        plan = PipelinePlan.uniform(4, 2)
        with pytest.raises(ValueError):
            plan.move_boundary(0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelinePlan((0, 0, 4), 4)  # empty stage
        with pytest.raises(ValueError):
            PipelinePlan((0, 2), 4)  # does not span
        with pytest.raises(ValueError):
            PipelinePlan((0,), 0)
        with pytest.raises(ValueError):
            PipelinePlan.uniform(4, 5)

    def test_plans_hashable_frozen(self):
        a = PipelinePlan.uniform(6, 2)
        b = PipelinePlan.uniform(6, 2)
        assert a == b
        # in-process hashability check of a frozen dataclass; nothing
        # is cached or exported, so PYTHONHASHSEED salting is harmless
        assert hash(a) == hash(b)  # repro: ignore[RPR104]


class TestSchedules:
    def test_unknown_schedule_raises(self):
        with pytest.raises(ValueError):
            Schedule("foo")

    def test_gpipe_all_f_then_all_b(self):
        ops = Schedule("gpipe").stage_ops(0, 4, 3)
        kinds = [o.kind for o in ops]
        assert kinds == [OpKind.F] * 3 + [OpKind.B] * 3
        assert [o.micro for o in ops[3:]] == [2, 1, 0]

    def test_1f1b_op_counts(self):
        for stage in range(4):
            ops = Schedule("1f1b").stage_ops(stage, 4, 8)
            fs = [o for o in ops if o.kind is OpKind.F]
            bs = [o for o in ops if o.kind is OpKind.B]
            assert len(fs) == 8 and len(bs) == 8

    def test_1f1b_warmup_depth(self):
        """Stage s starts with (S - s - 1) warmup forwards before the
        first backward."""
        for stage, stages in [(0, 4), (2, 4), (3, 4)]:
            ops = Schedule("1f1b").stage_ops(stage, stages, 8)
            first_b = next(i for i, o in enumerate(ops) if o.kind is OpKind.B)
            assert first_b == min(stages - stage - 1, 8) + 1

    def test_1f1b_last_stage_alternates(self):
        ops = Schedule("1f1b").stage_ops(3, 4, 4)
        kinds = [o.kind.value for o in ops]
        assert kinds == ["F", "B", "F", "B", "F", "B", "F", "B"]

    def test_1f1b_micro_order_monotone(self):
        ops = Schedule("1f1b").stage_ops(1, 4, 6)
        f_micros = [o.micro for o in ops if o.kind is OpKind.F]
        b_micros = [o.micro for o in ops if o.kind is OpKind.B]
        assert f_micros == sorted(f_micros)
        assert b_micros == sorted(b_micros)

    def test_zb_adds_w_ops(self):
        ops = Schedule("zb").stage_ops(0, 2, 4)
        ws = [o for o in ops if o.kind is OpKind.W]
        assert len(ws) == 4

    def test_invalid_args(self):
        s = Schedule("1f1b")
        with pytest.raises(ValueError):
            s.stage_ops(4, 4, 2)
        with pytest.raises(ValueError):
            s.stage_ops(0, 4, 0)

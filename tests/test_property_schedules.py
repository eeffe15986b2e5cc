"""Property tests: schedule completeness and trace/cost invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.config import GPTConfig
from repro.model.cost import (
    PRECISIONS,
    LayerState,
    ModelCost,
    build_layer_specs,
    state_matrix,
)
from repro.pipeline.schedules import OpKind, Schedule
from repro.training.trainer import states_fingerprint


class TestScheduleCompleteness:
    @given(
        stages=st.integers(1, 12),
        micro=st.integers(1, 24),
        name=st.sampled_from(["gpipe", "1f1b", "zb"]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_op_exactly_once(self, stages, micro, name, data):
        """Each stage executes F and B for every micro-batch exactly
        once (and W under zb)."""
        stage = data.draw(st.integers(0, stages - 1))
        ops = Schedule(name).stage_ops(stage, stages, micro)
        f = sorted(o.micro for o in ops if o.kind is OpKind.F)
        b = sorted(o.micro for o in ops if o.kind is OpKind.B)
        assert f == list(range(micro))
        assert b == list(range(micro))
        if name == "zb":
            w = sorted(o.micro for o in ops if o.kind is OpKind.W)
            assert w == list(range(micro))

    @given(
        stages=st.integers(2, 10),
        micro=st.integers(2, 16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_1f1b_backward_never_precedes_forward(self, stages, micro, data):
        stage = data.draw(st.integers(0, stages - 1))
        ops = Schedule("1f1b").stage_ops(stage, stages, micro)
        f_pos = {o.micro: i for i, o in enumerate(ops) if o.kind is OpKind.F}
        for i, o in enumerate(ops):
            if o.kind is OpKind.B:
                assert f_pos[o.micro] < i

    @given(stages=st.integers(2, 8), micro=st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_in_flight_bounded(self, stages, micro):
        """1F1B keeps at most (warmup + 1) micro-batches in flight —
        the memory property that distinguishes it from GPipe."""
        for stage in range(stages):
            ops = Schedule("1f1b").stage_ops(stage, stages, micro)
            in_flight = 0
            peak = 0
            for o in ops:
                if o.kind is OpKind.F:
                    in_flight += 1
                elif o.kind is OpKind.B:
                    in_flight -= 1
                peak = max(peak, in_flight)
            warmup = min(stages - stage - 1, micro)
            assert peak <= warmup + 1


layer_states = st.builds(
    LayerState,
    sparsity=st.floats(0, 0.99),
    frozen=st.booleans(),
    attn_density=st.floats(0.01, 1.0),
    token_fraction=st.floats(0.01, 1.0),
    moe_multiplier=st.floats(1.0, 4.0),
)


class TestCostModelProperties:
    COST = ModelCost(
        build_layer_specs(
            GPTConfig("prop", num_layers=4, hidden=128, num_heads=4, seq_len=64, vocab_size=512)
        )
    )

    def times(self, state, split=False):
        """Per-layer (fwd, bwd, wgt) with every layer in ``state``."""
        states = state_matrix([[state] * len(self.COST.specs)])
        return [t[0] for t in self.COST.layer_times(states, split)]

    @given(state=layer_states)
    @settings(max_examples=80, deadline=None)
    def test_times_nonnegative_and_finite(self, state):
        f, b, _ = self.times(state)
        assert np.isfinite(f).all() and (f >= 0).all()
        assert np.isfinite(b).all() and (b >= 0).all()

    @given(state=layer_states)
    @settings(max_examples=60, deadline=None)
    def test_b_w_split_consistent(self, state):
        _, total, _ = self.times(state)
        _, b, w = self.times(state, split=True)
        for split, full in zip(b + w, total):
            assert split == pytest.approx(full, rel=1e-9, abs=1e-15)

    @given(state=layer_states, frac=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_token_fraction_linear(self, state, frac):
        state.token_fraction = 1.0
        full = self.times(state)[0][1]
        state.token_fraction = frac
        scaled = self.times(state)[0][1]
        assert scaled == pytest.approx(full * frac, rel=1e-9)

    @given(state=layer_states)
    @settings(max_examples=60, deadline=None)
    def test_memory_nonnegative(self, state):
        states = state_matrix([[state] * len(self.COST.specs)])
        for precision in PRECISIONS:
            assert (self.COST.layer_bytes(states, 4, precision) >= 0).all()


class TestTraceProperties:
    @given(states=st.lists(layer_states, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_roundtrip_stability(self, states):
        copies = [s.copy() for s in states]
        assert states_fingerprint(copies) == states_fingerprint(states)

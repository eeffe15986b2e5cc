"""Property tests: the array cost paths equal the scalar oracle bit for bit.

Per-layer times from :meth:`ModelCost.layer_times` and per-stage tables
from :meth:`ModelCost.stage_times` (several lanes with different plans
in one call) must equal :mod:`cost_oracle`'s scalar formulas and
per-layer accumulation loop exactly — compared as raw float64 bytes —
for random states (pruned up to sparsity 1.0, frozen and droppable
layers), random plans, with and without the zero-bubble B/W split and
activation recompute.  Per-layer bytes from :meth:`ModelCost.layer_bytes`
must equal the scalar byte formulas integer for integer in both
precisions, at per-layer in-flight counts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.model.config import GPTConfig
from repro.model.cost import (
    PRECISIONS,
    LayerState,
    ModelCost,
    build_layer_specs,
    state_matrix,
)
from repro.pipeline.plan import PipelinePlan

import cost_oracle

SPECS = build_layer_specs(
    GPTConfig(
        "oracle",
        num_layers=6,
        hidden=128,
        num_heads=4,
        seq_len=64,
        vocab_size=512,
        moe_every=2,
        num_experts=4,
    )
)
L = len(SPECS)
COSTS = {recompute: ModelCost(SPECS, activation_recompute=recompute) for recompute in (False, True)}

unit = st.floats(0.0, 1.0)
layer_states = st.builds(
    LayerState,
    sparsity=st.one_of(st.just(0.0), st.just(1.0), unit),
    frozen=st.booleans(),
    droppable_bwd=st.booleans(),
    attn_density=unit,
    token_fraction=unit,
    moe_multiplier=st.floats(0.0, 4.0),
)
state_vectors = st.lists(layer_states, min_size=L, max_size=L)


@st.composite
def plans(draw, num_stages):
    cuts = draw(st.lists(st.integers(1, L - 1), min_size=num_stages - 1,
                         max_size=num_stages - 1, unique=True))
    return PipelinePlan((0, *sorted(cuts), L), L)


@given(states=state_vectors, split=st.booleans(), recompute=st.booleans())
@settings(max_examples=100, deadline=None)
def test_layer_times_equal_oracle(states, split, recompute):
    cost = COSTS[recompute]
    got = cost.layer_times(state_matrix([states]), split)
    want = cost_oracle.layer_times(cost, states, split)
    for g, w in zip(got, want):
        assert g[0].tobytes() == np.array(w).tobytes()
    if not split:
        assert sum(got[0][0].tolist()) == cost_oracle.total_forward_time(cost, states)
        assert sum(got[1][0].tolist()) == cost_oracle.total_backward_time(cost, states)


@given(data=st.data(), split=st.booleans(), recompute=st.booleans())
@settings(max_examples=100, deadline=None)
def test_stage_tables_equal_oracle(data, split, recompute):
    cost = COSTS[recompute]
    num_stages = data.draw(st.integers(1, L))
    lanes = data.draw(st.integers(1, 4))
    lane_plans = [data.draw(plans(num_stages)) for _ in range(lanes)]
    lane_states = [data.draw(state_vectors) for _ in range(lanes)]
    got = cost.stage_times(
        state_matrix(lane_states), [p.boundaries for p in lane_plans], split
    )
    for lane, (plan, states) in enumerate(zip(lane_plans, lane_states)):
        want = cost_oracle.base_stage_times(cost, plan, states, split)
        for g, w in zip(got, want):
            assert g[lane].tobytes() == w.tobytes()


@given(
    data=st.data(),
    states=state_vectors,
    precision=st.sampled_from(PRECISIONS),
    recompute=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_layer_bytes_equal_oracle(data, states, precision, recompute):
    cost = COSTS[recompute]
    num_micro = data.draw(st.integers(1, 32))
    in_flight = data.draw(
        st.lists(st.integers(1, num_micro), min_size=L, max_size=L)
    )
    got = cost.layer_bytes(state_matrix([states]), np.array(in_flight), precision)
    assert got.shape == (5, 1, L) and got.dtype == np.int64
    for li, (spec, state, infl) in enumerate(zip(SPECS, states, in_flight)):
        want = cost_oracle.layer_components(cost, spec, state, infl, precision)
        assert tuple(got[:, 0, li].tolist()) == want
        if precision == "mixed":
            assert sum(want) == cost_oracle.layer_memory(cost, spec, state, infl)
            assert sum(want[:4]) == cost_oracle.migration_bytes(cost, li, state)
    # a scalar in-flight count prices like the same count on every layer
    same = cost.layer_bytes(state_matrix([states]), in_flight[0], precision)
    assert same.tolist() == cost.layer_bytes(
        state_matrix([states]), np.full(L, in_flight[0]), precision
    ).tolist()

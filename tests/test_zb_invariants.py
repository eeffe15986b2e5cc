"""Property tests for the ZB gap-filling invariants in PipelineEngine.

For random plans, per-stage slowdowns and micro-batch counts the
engine must keep its books consistent: per-worker busy + idle accounts
for the whole makespan, weight-gradient work never starts before its
backward pass finished, and a worker never runs two ops at once.  The
timeline checked here is the compiled executor's.
"""

import numpy as np
import pytest

from repro.model.cost import FROZEN, SPARSITY
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan

N_LAYERS = 26  # gpt-24 spec count (embed + 24 blocks + head)


def random_plan(rng, num_stages: int) -> PipelinePlan:
    cuts = np.sort(rng.choice(np.arange(1, N_LAYERS), size=num_stages - 1,
                              replace=False))
    return PipelinePlan((0, *map(int, cuts), N_LAYERS), N_LAYERS)


def random_states(rng, states):
    for row in states:
        row[SPARSITY] = rng.uniform(0.0, 0.9) if rng.random() < 0.3 else 0.0
        row[FROZEN] = rng.random() < 0.2
    return states


@pytest.mark.parametrize("trial", range(8))
def test_zb_timeline_invariants(trial, gpt24_cost, gpt24_states, comm):
    rng = np.random.default_rng(trial)
    S = int(rng.integers(2, 7))
    plan = random_plan(rng, S)
    states = random_states(rng, gpt24_states)
    speeds = rng.uniform(0.5, 2.0, size=S)
    eng = PipelineEngine(
        gpt24_cost,
        comm if trial % 2 == 0 else None,
        schedule="zb",
        num_micro=int(rng.integers(2, 13)),
        rank_slowdowns={s: 1.0 / v for s, v in enumerate(speeds)},
        record_timeline=True,
    )
    res = eng.run_iteration(plan, states)

    # 1. busy + idle == makespan, and busy never exceeds the makespan
    assert np.all(res.busy <= res.makespan + 1e-9)
    np.testing.assert_allclose(res.busy + res.idle, res.makespan, rtol=1e-9)

    by_worker: dict[int, list] = {}
    b_finish: dict[tuple[int, int], float] = {}
    for s, kind, micro, start, end in res.timeline:
        assert end >= start
        by_worker.setdefault(s, []).append((start, end, kind, micro))
        if kind == "B":
            b_finish[(s, micro)] = end

    for s, kind, micro, start, end in res.timeline:
        # 2. W work never starts before its own B finished
        if kind == "W" and micro >= 0:
            assert start >= b_finish[(s, micro)] - 1e-12

    # 3. ops on one worker never overlap
    for s, ops in by_worker.items():
        ops.sort()
        for (s0, e0, *_), (s1, e1, *_) in zip(ops, ops[1:]):
            assert s1 >= e0 - 1e-12, f"worker {s} overlap: {e0} > {s1}"


def test_zb_busy_accounts_all_work(rng, gpt24_cost, gpt24_states):
    """Total busy time is schedule-invariant (same ops, different order)."""
    plan = random_plan(rng, 4)
    zb = PipelineEngine(gpt24_cost, None, schedule="zb", num_micro=8)
    f1b = PipelineEngine(gpt24_cost, None, schedule="1f1b", num_micro=8)
    np.testing.assert_allclose(
        zb.run_iteration(plan, gpt24_states).busy.sum(),
        f1b.run_iteration(plan, gpt24_states).busy.sum(),
        rtol=1e-9,
    )

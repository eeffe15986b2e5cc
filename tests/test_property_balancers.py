"""Property-based tests (hypothesis) for the load balancers.

Invariants checked on arbitrary weight vectors:

- both balancers preserve the layer count and contiguity (valid plans);
- neither balancer ever returns a plan with a *worse* bottleneck;
- the partition balancer returns the probe-per-step oracle's plan bit
  for bit, and matches the DP-exact optimum, with and without a memory
  capacity;
- the diffusion potential trace is monotone non-increasing;
- memory-feasible inputs yield memory-feasible outputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import DiffusionBalancer, PartitionBalancer, potential
from repro.core.balancers.dpexact import dp_partition
from repro.core.balancers.partition import partition_balanced
from repro.pipeline import PipelinePlan

import partition_oracle

weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=4,
    max_size=40,
)


def dp_bottleneck(w, S):
    n = len(w)
    pre = np.concatenate([[0.0], np.cumsum(w)])
    dp = np.full((S + 1, n + 1), np.inf)
    dp[0, 0] = 0.0
    for s in range(1, S + 1):
        for i in range(1, n + 1):
            for j in range(s - 1, i):
                v = max(dp[s - 1, j], pre[i] - pre[j])
                if v < dp[s, i]:
                    dp[s, i] = v
    return dp[S, n]


@st.composite
def weights_and_stages(draw):
    w = draw(weights_strategy)
    s = draw(st.integers(min_value=1, max_value=len(w)))
    return np.asarray(w), s


@st.composite
def weights_stages_memory(draw):
    """Weights and stages with an integer-valued memory vector and a
    scalar capacity, some too small for any split."""
    w, s = draw(weights_and_stages())
    ints = st.integers(min_value=0, max_value=4)
    mem = draw(st.lists(ints, min_size=len(w), max_size=len(w)))
    cap = draw(st.integers(min_value=0, max_value=12))
    return w, s, np.asarray(mem, dtype=float), float(cap)


@st.composite
def tie_heavy_cases(draw):
    """Weights whose partial sums tie or nearly tie, a third of them
    with an integer-valued memory vector and a capacity."""
    n = draw(st.integers(min_value=1, max_value=40))

    def ints(hi):
        return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))

    kind = draw(st.sampled_from(["ints", "tenths", "repeated", "zeros", "magnitudes"]))
    if kind == "ints":
        w = [float(k) for k in ints(9)]
    elif kind == "tenths":
        w = [k * 0.1 for k in ints(30)]
    elif kind == "repeated":
        w = [draw(st.floats(min_value=1e-3, max_value=10.0))] * n
    elif kind == "zeros":
        w = [float(k) if k > 6 else 0.0 for k in ints(9)]
    else:
        exps = draw(st.lists(st.floats(-6.0, 3.0), min_size=n, max_size=n))
        w = [10.0**e for e in exps]
    s = draw(st.integers(min_value=1, max_value=n))
    mem = cap = None
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        mem = np.asarray(ints(4), dtype=float)
        cap = float(draw(st.integers(min_value=0, max_value=12)))
    return np.asarray(w), s, mem, cap


def _outcome(fn, w, s, mem=None, cap=None):
    """A partition's boundaries, or ``"ValueError"`` when it raises."""
    try:
        return fn(w, s, mem, cap).boundaries
    except ValueError:
        return "ValueError"


class TestPartitionProperties:
    @given(ws=weights_and_stages())
    @settings(max_examples=60, deadline=None)
    def test_valid_plan_and_optimal(self, ws):
        w, S = ws
        plan = partition_balanced(w, S)
        assert plan.num_stages == S
        assert plan.num_layers == len(w)
        got = plan.stage_loads(w).max()
        assert got == pytest.approx(dp_bottleneck(w, S), rel=1e-6, abs=1e-9)

    @given(case=weights_stages_memory())
    @settings(max_examples=40, deadline=None)
    def test_optimal_under_memory_capacity(self, case):
        """Raises exactly when the DP finds no split that fits the
        capacity; otherwise reaches the DP's bottleneck.  The absolute
        tolerance is the search's own stopping width."""
        w, S, mem, cap = case
        try:
            dp_plan, _ = dp_partition(w, S, mem, cap)
        except ValueError:
            with pytest.raises(ValueError):
                partition_balanced(w, S, mem, cap)
            return
        got = partition_balanced(w, S, mem, cap).stage_loads(w).max()
        want = dp_plan.stage_loads(w).max()
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(case=tie_heavy_cases())
    @settings(max_examples=300, deadline=None)
    # partial sums 0.8 + 1.1 > 1.9 = 0.9 + 1.0: a probe at the smallest
    # feasible candidate splits (0, 1, 3, 5), the bisection (0, 2, 4, 5)
    @example(case=(np.array([0.8, 1.1, 0.2, 0.9, 1.0]), 3, None, None))
    def test_same_plan_as_oracle(self, case):
        """Same boundaries as the probe-per-step search, or both raise."""
        assert _outcome(partition_balanced, *case) == _outcome(
            partition_oracle.partition_balanced, *case
        )

    @given(ws=weights_and_stages())
    @settings(max_examples=40, deadline=None)
    def test_balancer_never_worse(self, ws):
        w, S = ws
        start = PipelinePlan.uniform(len(w), S)
        res = PartitionBalancer().rebalance(start, w)
        assert res.loads_after.max() <= res.loads_before.max() + 1e-9

    @given(ws=weights_and_stages())
    @settings(max_examples=40, deadline=None)
    def test_loads_conserved(self, ws):
        w, S = ws
        res = PartitionBalancer().rebalance(PipelinePlan.uniform(len(w), S), w)
        assert res.loads_after.sum() == pytest.approx(w.sum())


#: splits whose prefix excesses tie within rounding: each layer move
#: claimed to shrink |e(b)| both ways across its cut, and the balancer
#: flipped the layer back and forth forever (here 0.15 across +-0.075;
#: then 15 identical layers on 6 stages)
TIED_EXCESS = (np.array([0.0, 64.0, 0.15, 64.0]), 2)
IDENTICAL_LAYERS = (np.full(15, 5.9), 6)


class TestDiffusionProperties:
    @given(ws=weights_and_stages())
    @example(ws=TIED_EXCESS)
    @example(ws=IDENTICAL_LAYERS)
    @settings(max_examples=40, deadline=None)
    def test_potential_monotone(self, ws):
        w, S = ws
        res = DiffusionBalancer(gamma=1e-9).rebalance(PipelinePlan.uniform(len(w), S), w)
        t = res.potential_trace
        assert all(b <= a + 1e-9 for a, b in zip(t, t[1:]))

    @given(ws=weights_and_stages())
    @example(ws=TIED_EXCESS)
    @example(ws=IDENTICAL_LAYERS)
    @settings(max_examples=40, deadline=None)
    def test_never_worse_and_valid(self, ws):
        w, S = ws
        res = DiffusionBalancer(gamma=1e-9).rebalance(PipelinePlan.uniform(len(w), S), w)
        assert res.plan.num_stages == S
        assert res.loads_after.max() <= res.loads_before.max() + 1e-9
        assert res.loads_after.sum() == pytest.approx(w.sum())

    @given(
        w=st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=8,
            max_size=24,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_memory_feasibility_preserved(self, w):
        w = np.asarray(w)
        n = len(w)
        S = 4
        mem = np.ones(n)
        cap = float(np.ceil(n / S) + 1)  # uniform plan is feasible
        start = PipelinePlan.uniform(n, S)
        res = DiffusionBalancer(gamma=1e-9).rebalance(start, w, mem, cap)
        assert (res.plan.stage_loads(mem) <= cap + 1e-9).all()


class TestPotentialProperties:
    @given(
        x=st.lists(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_potential_nonnegative_and_scale(self, x):
        x = np.asarray(x)
        p = potential(x)
        assert p >= -1e-9
        assert potential(x * 2) == pytest.approx(2 * p, rel=1e-9, abs=1e-6)

    @given(
        x=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_potential_permutation_invariant(self, x):
        x = np.asarray(x)
        rng = np.random.default_rng(0)
        assert potential(rng.permutation(x)) == pytest.approx(potential(x), rel=1e-9, abs=1e-9)

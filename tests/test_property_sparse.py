"""Property-based tests for Algorithm 1 (global magnitude pruning).

The per-rank oracle (``tests/pruning_oracle.py``) keeps exactly the
global top-k; ``PruningDynamism``'s one-partition retention equals the
oracle's bit for bit at every rank count.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dynamics.pruning import (
    _DEPTH_SCALE_SPREAD,
    _PROXY_PER_LAYER,
    GradualPruningSchedule,
    PruningDynamism,
)
from repro.model.config import gpt_24, gpt_32, gpt_40, gpt_48
from repro.model.cost import SPARSITY, build_layer_specs

import pruning_oracle
from pruning_oracle import GlobalMagnitudePruner

SPECS = {
    cfg().num_layers: build_layer_specs(cfg()) for cfg in (gpt_24, gpt_32, gpt_40, gpt_48)
}


#: weight shards for Algorithm 1: integer-valued weights force heavy
#: magnitude ties, sizes from 0 make empty shards and shards smaller
#: than k common
weight_shards = st.lists(
    st.one_of(
        arrays(np.float64, st.integers(0, 12), elements=st.integers(-3, 3).map(float)),
        arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
        ),
    ),
    min_size=1,
    max_size=6,
)


class TestAlgorithm1Properties:
    @given(shards=weight_shards, sparsity=st.floats(min_value=0.0, max_value=1.0))
    @example(shards=[np.arange(-4.0, 6.0)], sparsity=0.7)  # one rank
    @example(shards=[np.arange(8.0), np.empty(0)], sparsity=0.5)
    @example(shards=[np.ones(5), np.empty(0), np.ones(3)], sparsity=1.0)
    @example(shards=[np.ones(5), np.ones(3)], sparsity=0.0)
    @settings(max_examples=300, deadline=None)
    def test_keep_is_exact_global_threshold(self, shards, sparsity):
        """keep == |w| >= the k-th largest of |concat(w)|, per shard,
        with k = round(total * (1 - sparsity)); k = 0 keeps nothing."""
        keeps = GlobalMagnitudePruner(len(shards)).prune(shards, sparsity)
        assert [k.shape for k in keeps] == [s.shape for s in shards]
        mags = np.abs(np.concatenate(shards))
        k = int(round(mags.size * (1.0 - sparsity)))
        if k == 0:
            expected = np.zeros(mags.size, dtype=bool)
        else:
            expected = mags >= np.sort(mags)[mags.size - k]
        assert np.array_equal(np.concatenate(keeps), expected)

    @given(
        sizes=st.lists(st.integers(5, 60), min_size=2, max_size=5),
        sparsity=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_keep_count_matches_target(self, sizes, sparsity, seed):
        """Algorithm 1 keeps ~(1-s) of the global parameter count,
        regardless of how parameters shard across ranks."""
        rng = np.random.default_rng(seed)
        shards = [rng.normal(size=n) for n in sizes]
        keeps = GlobalMagnitudePruner(len(shards)).prune(shards, sparsity)
        total = sum(n for n in sizes)
        kept = sum(int(k.sum()) for k in keeps)
        target = round(total * (1 - sparsity))
        assert abs(kept - target) <= max(2, int(0.02 * total))

    @given(
        sparsity=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_kept_weights_dominate_pruned(self, sparsity, seed):
        """Every kept weight's magnitude >= every pruned weight's."""
        rng = np.random.default_rng(seed)
        shards = [rng.normal(size=50) for _ in range(3)]
        keeps = GlobalMagnitudePruner(3).prune(shards, sparsity)
        kept_mags = np.concatenate(
            [np.abs(s)[k] for s, k in zip(shards, keeps)]
        )
        pruned_mags = np.concatenate(
            [np.abs(s)[~k] for s, k in zip(shards, keeps)]
        )
        if kept_mags.size and pruned_mags.size:
            assert kept_mags.min() >= pruned_mags.max() - 1e-12


def _proxies(seed: int, d: int) -> list[np.ndarray]:
    """The signed proxy weights ``PruningDynamism(seed=seed)`` draws for
    ``d`` blocks, in its RNG order: the depth scales, then one layer at
    a time."""
    rng = np.random.default_rng(seed)
    sigma = np.exp(_DEPTH_SCALE_SPREAD * np.linspace(-1.0, 1.0, d) + rng.normal(0, 0.1, d))
    return [rng.normal(0.0, sigma[j], size=_PROXY_PER_LAYER) for j in range(d)]


sparsities = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.9]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestOnePartitionMatchesOracle:
    @given(
        depth=st.sampled_from(sorted(SPECS)),
        sparsity=sparsities,
        num_ranks=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @example(depth=48, sparsity=1.0, num_ranks=8, seed=0)
    @example(depth=24, sparsity=0.0, num_ranks=1, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_drawn_proxies(self, depth, sparsity, num_ranks, seed):
        """Retention over the scheme's own proxies equals Algorithm 1
        over ``num_ranks`` shards, followed by the per-layer mean."""
        scheme = PruningDynamism(SPECS[depth], seed=seed)
        proxies = _proxies(seed, depth)
        assert np.array_equal(scheme._mags, np.abs(np.stack(proxies)))
        got = scheme._apply_global_prune(sparsity)
        want = pruning_oracle.retention(proxies, sparsity, num_ranks)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(
        depth=st.sampled_from(sorted(SPECS)),
        sparsity=sparsities,
        num_ranks=st.integers(1, 8),
        top=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @example(depth=24, sparsity=0.5, num_ranks=3, top=1, seed=0)
    @example(depth=40, sparsity=1.0, num_ranks=5, top=2, seed=1)
    @example(depth=32, sparsity=0.0, num_ranks=7, top=3, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_tie_heavy_integer_proxies(self, depth, sparsity, num_ranks, top, seed):
        """Integer-valued proxies in ``[-top, top]`` tie most magnitudes
        with the threshold; every tied weight is kept on both sides."""
        scheme = PruningDynamism(SPECS[depth], seed=0)
        rng = np.random.default_rng(seed)
        proxies = list(
            rng.integers(-top, top + 1, size=(depth, _PROXY_PER_LAYER)).astype(float)
        )
        scheme._mags = np.abs(np.stack(proxies))
        got = scheme._apply_global_prune(sparsity)
        want = pruning_oracle.retention(proxies, sparsity, num_ranks)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_step_sequence_matches_oracle(self):
        """Every state's sparsity after every pruning step, seeds 0-4,
        equals the clip of one minus the oracle's retention on 4 ranks
        (the former default rank count)."""
        specs = SPECS[24]
        sched = GradualPruningSchedule(start_iter=10, end_iter=50, prune_every=10)
        for seed in range(5):
            scheme = PruningDynamism(specs, schedule=sched, seed=seed)
            proxies = _proxies(seed, len(scheme.block_indices))
            states = scheme.initial_states()
            expected = [0.0] * len(specs)
            steps = 0
            for k in range(60):
                if scheme.step(k, states):
                    steps += 1
                    kept = pruning_oracle.retention(proxies, scheme.current_sparsity, 4)
                    for j, i in enumerate(scheme.block_indices):
                        expected[i] = float(np.clip(1.0 - kept[j], 0.0, 1.0))
                got = states[:, SPARSITY].tolist()
                assert got == expected, (seed, k)
                assert all(type(x) is float for x in got)
            assert steps == 5

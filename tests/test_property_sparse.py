"""Property-based tests for the CSR substrate and Algorithm 1."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dynamics.pruning import GlobalMagnitudePruner
from repro.sparse import CSRMatrix


dense_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
)


class TestCSRProperties:
    @given(m=dense_matrices)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, m):
        assert np.allclose(CSRMatrix.from_dense(m).to_dense(), m)

    @given(m=dense_matrices)
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, m):
        csr = CSRMatrix.from_dense(m)
        assert np.allclose(csr.transpose().transpose().to_dense(), m)

    @given(m=dense_matrices, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_spmm_matches_dense(self, m, data):
        k = m.shape[1]
        cols = data.draw(st.integers(1, 6))
        B = data.draw(
            arrays(
                np.float64,
                (k, cols),
                elements=st.floats(min_value=-5, max_value=5, allow_nan=False, width=64),
            )
        )
        assert np.allclose(CSRMatrix.from_dense(m).matmul_dense(B), m @ B, atol=1e-9)

    @given(m=dense_matrices)
    @settings(max_examples=60, deadline=None)
    def test_nnz_consistency(self, m):
        csr = CSRMatrix.from_dense(m)
        assert csr.nnz == np.count_nonzero(m)
        assert csr.density() == pytest.approx(
            np.count_nonzero(m) / m.size if m.size else 0.0
        )


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

"""Tests for the sparse-matmul kernel cost models."""

import numpy as np
import pytest

from repro.sparse import SpmmCostModel, cusparse_cost_model, sputnik_cost_model
from repro.sparse.kernels import crossover_sparsity, dense_cost_model, dense_time

from cost_oracle import best_kernel_time


class TestCostModels:
    def test_crossover_near_75(self):
        x = crossover_sparsity()
        assert 0.70 <= x <= 0.80

    def test_sputnik_beats_dense_at_90(self):
        f = 1e12
        assert sputnik_cost_model().time(f, 0.9) < dense_time(f)

    def test_sputnik_loses_at_50(self):
        f = 1e12
        assert sputnik_cost_model().time(f, 0.5) > dense_time(f)

    def test_sputnik_always_beats_cusparse_dl_range(self):
        """Paper: Sputnik consistently outperformed cuSPARSE at all
        tested (deep-learning) sparsity levels."""
        f = 1e12
        for s in (0.5, 0.7, 0.9, 0.95):
            assert sputnik_cost_model().time(f, s) < cusparse_cost_model().time(f, s)

    def test_cusparse_extreme_sparsity_wins_eventually(self):
        f = 1e12
        assert cusparse_cost_model().time(f, 0.999) < dense_time(f)

    def test_best_kernel_monotone_nonincreasing(self):
        f = 1e12
        times = [best_kernel_time(f, s) for s in np.linspace(0, 1, 21)]
        assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(times, times[1:]))

    def test_invalid_sparsity_raises(self):
        with pytest.raises(ValueError):
            dense_cost_model().time(1e9, 1.5)

    def test_negative_flops_raises(self):
        with pytest.raises(ValueError):
            SpmmCostModel("x", 1e12, 0.5, 1.0).time(-1, 0.5)

"""Tests for repro.utils: rng, validation."""

import numpy as np
import pytest

from repro.utils.rng import new_rng
from repro.utils.validation import check_positive, check_prob


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = new_rng(42), new_rng(42)
        assert np.array_equal(a.random(10), b.random(10))

    def test_different_seed_different_stream(self):
        assert not np.array_equal(new_rng(1).random(10), new_rng(2).random(10))

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert new_rng(g) is g

    def test_none_defaults_to_zero(self):
        assert np.array_equal(new_rng(None).random(5), new_rng(0).random(5))


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_prob(self):
        check_prob("x", 0.0)
        check_prob("x", 1.0)
        with pytest.raises(ValueError):
            check_prob("x", 1.01)
        with pytest.raises(ValueError):
            check_prob("x", -0.01)

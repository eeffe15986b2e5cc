"""Shared utilities: seeded RNG and validation helpers."""

from repro.utils.rng import new_rng
from repro.utils.validation import check_positive, check_prob

__all__ = [
    "new_rng",
    "check_positive",
    "check_prob",
]

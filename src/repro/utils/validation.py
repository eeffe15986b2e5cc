"""Small argument-validation helpers used across the library."""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def check_prob(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")

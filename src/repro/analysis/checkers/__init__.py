"""Built-in checkers: importing this package registers them all."""

from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.facade import FacadeChecker
from repro.analysis.checkers.spec_hash import SpecHashChecker

__all__ = [
    "DeterminismChecker",
    "FacadeChecker",
    "SpecHashChecker",
]

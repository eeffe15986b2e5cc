"""Static analysis for the repo's own invariants: ``repro lint``.

The simulator's core guarantees — bit-identical results across
engines, sound content-hash caching, a resolving public facade — are
enforced here at the *source* level, before code runs, instead of only
by differential golden tests after a bug ships.

Three checker families (codes in ``docs/lint-codes.md``):

- ``determinism`` (RPR1xx) — unseeded randomness, wall-clock reads,
  set-order iteration, salted ``hash()`` in result paths;
- ``spec-hash`` (RPR2xx) — dataclass fields vs. content-hash /
  ``to_dict`` payload completeness ("added a field, forgot to hash
  it" becomes a lint error);
- ``facade`` (RPR4xx) — ``__all__`` entries and deep imports that
  resolve, deprecation shims that actually warn.

Suppress an accepted false positive with a justified
``# repro: ignore[CODE]`` on (or directly above) the flagged line.
"""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import (
    Checker,
    all_checkers,
    all_codes,
    register,
    run_checkers,
)
from repro.analysis.runner import (
    LintReport,
    iter_python_files,
    lint_paths,
    lint_sources,
)
from repro.analysis.source import SourceFile

__all__ = [
    "Checker",
    "Diagnostic",
    "LintReport",
    "SourceFile",
    "all_checkers",
    "all_codes",
    "iter_python_files",
    "lint_paths",
    "lint_sources",
    "register",
    "run_checkers",
]

"""Lint diagnostics: one finding, formatted ``path:line:col CODE message``.

Every checker emits :class:`Diagnostic` instances; the runner applies
``# repro: ignore[CODE]`` suppressions and renders the survivors as
text or JSON.  Codes are stable identifiers (``RPR`` + family digit +
two digits) documented in ``docs/lint-codes.md``:

- ``RPR0xx`` — framework (syntax errors, unknown suppressions)
- ``RPR1xx`` — determinism
- ``RPR2xx`` — spec-hash / serialization completeness
- ``RPR4xx`` — API facade / deprecation shims

``RPR3xx`` (concurrency) is retired and its codes are never reused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    checker: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

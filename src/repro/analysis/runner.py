"""Lint runner: file discovery, checker dispatch, text/JSON reports.

``lint_paths`` is the library entry point behind ``repro lint``: it
expands files and directories into Python sources (skipping caches,
hidden directories, and virtualenvs), runs every registered checker
over each file, applies ``# repro: ignore[CODE]`` suppressions, and
returns a :class:`LintReport`.

The JSON report schema (``--json``, uploaded as a CI artifact)::

    {
      "version": 1,
      "tool": "repro-lint",
      "files": 42,
      "counts": {"RPR101": 2},
      "suppressed": 3,
      "diagnostics": [
        {"path": "src/x.py", "line": 3, "col": 5,
         "code": "RPR101", "message": "...", "checker": "determinism"}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import all_checkers
from repro.analysis.source import SourceFile

REPORT_SCHEMA_VERSION = 1

#: ``lint_fixtures`` holds intentional-violation corpora for the lint
#: self-tests; directory walks skip it, but naming a fixture file
#: explicitly on the command line still lints it (the CI gate relies
#: on this to prove the gate fails on a seeded violation).
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules",
              ".repro-cache", "build", "dist", "lint_fixtures"}


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into sorted unique ``*.py`` paths."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in p.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                yield p


@dataclass
class LintReport:
    """Everything one lint run produced."""

    diagnostics: list[Diagnostic]
    files_checked: int
    suppressed: int = 0
    #: applied suppressions as (path, line, code) for --show-suppressed
    suppressions_used: list[tuple[str, int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for diag in self.diagnostics:
            out[diag.code] = out.get(diag.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files": self.files_checked,
            "counts": self.counts,
            "suppressed": self.suppressed,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format_text(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        total = len(self.diagnostics)
        summary = (
            f"{self.files_checked} files checked: "
            + (
                f"{total} finding{'s' if total != 1 else ''} "
                f"({', '.join(f'{n} {c}' for c, n in self.counts.items())})"
                if total
                else "clean"
            )
            + (f", {self.suppressed} suppressed" if self.suppressed else "")
        )
        return "\n".join(lines + [summary])


def lint_sources(
    sources: Sequence[SourceFile],
    select: Callable[[str], bool] | None = None,
) -> LintReport:
    """Run all registered checkers over already-parsed sources."""
    checkers = all_checkers()
    diagnostics: list[Diagnostic] = []
    used: list[tuple[str, int, str]] = []
    for src in sources:
        diagnostics.extend(
            d for d in src.errors if select is None or select(d.code)
        )
        if src.tree is None:
            continue
        for checker in checkers:
            if not checker.applies_to(src):
                continue
            for diag in checker.check(src):
                if select is not None and not select(diag.code):
                    continue
                if src.suppressed(diag):
                    used.append((diag.path, diag.line, diag.code))
                else:
                    diagnostics.append(diag)
    return LintReport(
        diagnostics=sorted(diagnostics),
        files_checked=len(sources),
        suppressed=len(used),
        suppressions_used=sorted(set(used)),
    )


def lint_paths(
    paths: Sequence[str | Path],
    select: Callable[[str], bool] | None = None,
) -> LintReport:
    """Lint files/directories; the entry point behind ``repro lint``."""
    sources = [SourceFile.load(p, display=str(p)) for p in iter_python_files(paths)]
    return lint_sources(sources, select)

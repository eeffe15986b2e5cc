"""Checker base class and registry.

A checker is a stateless visitor over one :class:`SourceFile`; it
declares the codes it can emit (rendered into ``docs/lint-codes.md``
and ``repro lint --list-codes``) and an optional path scope.  Scopes
only restrict files *inside* the ``repro`` package — fixture files and
scratch scripts are always checked by every checker, so test fixtures
can exercise any checker regardless of where they live.
"""

from __future__ import annotations

from typing import Iterator, Type

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.source import SourceFile


class Checker:
    """Base class: subclass, set ``name``/``codes``, implement ``check``."""

    #: registry key and the ``checker`` field on emitted diagnostics
    name: str = ""
    #: code -> one-line description (documentation + --list-codes)
    codes: dict[str, str] = {}
    #: path fragments (posix) this checker is scoped to within the
    #: ``repro`` package; empty = everywhere
    scope: tuple[str, ...] = ()

    def check(self, src: SourceFile) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def applies_to(self, src: SourceFile) -> bool:
        posix = src.path.as_posix()
        if not self.scope or "repro/" not in posix:
            return True
        return any(fragment in posix for fragment in self.scope)


_REGISTRY: dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} needs a name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    overlap = {
        code
        for other in _REGISTRY.values()
        for code in other.codes
        if code in cls.codes
    }
    if overlap:
        raise ValueError(f"checker {cls.name!r} reuses codes {sorted(overlap)}")
    _REGISTRY[cls.name] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker (import side effect safe)."""
    # the checker modules self-register on import
    import repro.analysis.checkers  # noqa: F401

    return [cls() for _, cls in sorted(_REGISTRY.items())]


def all_codes() -> dict[str, str]:
    """Every known code -> description, including framework codes."""
    codes = {
        "RPR001": "file does not parse (syntax error)",
        "RPR002": "malformed or blanket suppression comment",
    }
    for checker in all_checkers():
        codes.update(checker.codes)
    return dict(sorted(codes.items()))


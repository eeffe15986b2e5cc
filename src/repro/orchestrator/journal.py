"""Resumable sweep journals: append-only JSONL of landed records.

A :class:`SweepJournal` makes a sweep restartable: every record is
appended to ``<path>`` as one JSON line the moment it lands (cache
puts are best-effort and only keep ``ok`` runs; the journal keeps
*everything*, including ``crashed`` and ``timeout`` outcomes).  Each
append is a single buffered write flushed and ``fsync``'d before the
call returns, so a killed sweep loses at most the record that was
mid-write — and because a line is only parsed if it is complete, a
torn trailing line degrades to "one record to re-run", never to a
corrupt journal.

File format (one JSON object per line)::

    {"kind": "header", "journal_schema": 2, "record_schema": ...,
     "spec_schema": ...}
    {"kind": "record", ...RunRecord.to_dict()...}
    {"kind": "record", ...}

The header pins the :data:`~repro.orchestrator.spec.SPEC_SCHEMA_VERSION`
the journal was written under.  Resuming a journal whose spec schema
does not match the running code raises :class:`JournalSchemaError`
instead of silently treating old rows as valid — a resumed row must
mean the same thing it meant when it was written.

On resume the journal is re-read; the *last* entry per spec hash wins,
so a spec that failed and was later re-run resolves to its newest
outcome.  ``repro sweep --resume <journal>`` serves ``ok`` records
straight from the journal, reloads ``crashed`` specs into the poison
quarantine, and re-runs only missing / ``error`` / ``timeout`` specs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import TracebackType
from typing import Any, TextIO

from repro.orchestrator import faults
from repro.orchestrator.results import RECORD_SCHEMA_VERSION, RunRecord
from repro.orchestrator.spec import SPEC_SCHEMA_VERSION

JOURNAL_SCHEMA_VERSION = 2


class JournalSchemaError(ValueError):
    """A journal's spec schema does not match the running code.

    Raised on resume: serving rows written under a different
    ``SPEC_SCHEMA_VERSION`` would silently reinterpret old specs under
    new semantics.  The remedy is a fresh journal (or re-running the
    sweep), never a silent partial resume.
    """


def read_journal(
    path: str | os.PathLike[str],
) -> tuple[dict[str, tuple[RunRecord, dict[str, Any]]], int]:
    """The last record per spec hash of one journal, and the number of
    lines skipped.

    The one journal reader: a resume and a shard merge both call it.
    Each record comes with the line it was read from, whose extra keys
    (a distributed sweep's ``worker``) ride beside the record schema.
    Raises :class:`JournalSchemaError` when a header pins another spec
    schema or a record precedes every header: the schema such rows were
    written under is wrong or unknowable, and refusing beats guessing.
    A damaged line (one torn mid-write by a dying worker is never
    fatal), a record of another record schema and a record
    :meth:`RunRecord.from_dict` refuses are skipped and counted.
    """
    last: dict[str, tuple[RunRecord, dict[str, Any]]] = {}
    skipped = 0
    saw_header = False
    with Path(path).open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                skipped += 1  # a line torn mid-write, or other damage
                continue
            kind = entry.get("kind")
            if kind == "header":
                check_journal_header(entry, Path(path))
                saw_header = True
                continue
            if kind != "record":
                continue
            if not saw_header:
                raise JournalSchemaError(
                    f"journal {path} has records before any header line, "
                    "so its spec schema is unknown; start a fresh journal"
                )
            if entry.get("schema") != RECORD_SCHEMA_VERSION:
                skipped += 1
                continue
            try:
                record = RunRecord.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                skipped += 1
                continue
            last[record.spec_hash] = (record, entry)
    return last, skipped


def check_journal_header(header: dict[str, Any], path: Path) -> None:
    """Raise :class:`JournalSchemaError` unless ``header`` matches us."""
    spec_schema = header.get("spec_schema")
    if spec_schema != SPEC_SCHEMA_VERSION:
        found = (
            f"spec schema {spec_schema}"
            if spec_schema is not None
            else "no spec schema (written before schema tracking)"
        )
        raise JournalSchemaError(
            f"journal {path} was written under {found}, but this code "
            f"runs spec schema {SPEC_SCHEMA_VERSION}; its rows cannot be "
            "resumed safely — start a fresh journal (or re-run the sweep "
            "without --resume)"
        )


class SweepJournal:
    """Append-only, fsync'd record log with last-wins resume state.

    ``resume=True`` (the default) loads any existing entries into
    :attr:`prior` before appending; ``resume=False`` journals without
    consulting history (existing lines are preserved — last-wins
    semantics make re-appending safe).
    """

    def __init__(
        self, path: str | os.PathLike[str], *, resume: bool = True
    ) -> None:
        self.path = Path(path)
        #: last journaled record per spec hash (resume state)
        self.prior: dict[str, RunRecord] = {}
        #: lines that failed to parse on load (a torn tail is 1)
        self.skipped_lines = 0
        self._fh: TextIO | None = None
        if resume and self.path.exists():
            self._load()

    def _load(self) -> None:
        # a mismatched or missing header raises: a resume refuses it
        last, self.skipped_lines = read_journal(self.path)
        self.prior = {h: record for h, (record, _) in last.items()}

    def _open(self) -> TextIO:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = self.path.open("a", encoding="utf-8")
            if fresh:
                self._write_line(
                    {
                        "kind": "header",
                        "journal_schema": JOURNAL_SCHEMA_VERSION,
                        "record_schema": RECORD_SCHEMA_VERSION,
                        "spec_schema": SPEC_SCHEMA_VERSION,
                    }
                )
        return self._fh

    def _write_line(self, payload: dict[str, Any]) -> None:
        fh = self._fh
        assert fh is not None
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())

    def append(
        self, record: RunRecord, *, extra: dict[str, Any] | None = None
    ) -> None:
        """Durably journal one landed record (atomic line, fsync'd).

        ``extra`` keys (e.g. the executing worker's id in a distributed
        sweep) ride on the journal line without entering the record
        schema — ``RunRecord.from_dict`` ignores them on load.
        """
        self._open()
        line = {"kind": "record", **record.to_dict()}
        if extra:
            line.update(extra)
        self._write_line(line)
        self.prior[record.spec_hash] = record
        faults.on_journal_append(self.path)

    def statuses(self) -> dict[str, int]:
        """Count of journaled specs by their latest status."""
        counts: dict[str, int] = {}
        for record in self.prior.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

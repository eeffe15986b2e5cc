"""Disk cache for sweep results, keyed by the spec content hash.

Each successful run is stored as ``<root>/<spec_hash>.json`` holding a
checksummed envelope, as compact sorted-key JSON::

    {"cache_schema":2,"record":{...RunRecord...},"sha256":"<hex>"}

``sha256`` covers the canonical JSON of the record payload, which is
the stored record text itself: a read checks the digest over those
bytes and parses only them.  A bit-flipped, truncated, or hand-edited
entry is *detected*, not silently served: :meth:`ResultCache.get`
renames such entries to ``<name>.json.corrupt`` (an auditable
quarantine, reaped by :meth:`gc`) and reports a miss.  Entries in older
formats, schema versions or byte layouts are stale — a plain miss,
reaped by :meth:`gc` but never mislabelled corrupt.

Lookups additionally verify the stored spec matches the query spec
field-for-field (hash collisions and schema drift both surface as a
miss).  Only *deterministic* outcomes are cached — ``ok`` results and
``oom`` rejections (a pure function of the spec under the memory
model) — so failures and timeouts are always retried.  Writes go
through :func:`~repro.orchestrator.fsio.atomic_write_text` (a unique
temp file, fsync'd, landed via :func:`os.replace`); a writer that dies
mid-write leaves at worst a ``*.tmp.*`` file that :meth:`verify` /
:meth:`gc` account for and reap.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.orchestrator import faults
from repro.orchestrator.fsio import atomic_write_text
from repro.orchestrator.results import RECORD_SCHEMA_VERSION, RunRecord
from repro.orchestrator.spec import RunSpec

CACHE_SCHEMA_VERSION = 2

#: suffix appended to quarantined (checksum-failed) entries
CORRUPT_SUFFIX = ".corrupt"

#: statuses the cache stores and serves: deterministic outcomes only.
#: ``error``/``timeout``/``crashed`` depend on the host (bugs, load,
#: signals) and must always be retried.
CACHEABLE_STATUSES = frozenset({"ok", "oom"})


#: an entry as :meth:`ResultCache.put` writes it, the compact sorted-key
#: JSON of its envelope: ``_HEAD``, the record's canonical JSON,
#: ``_SHA_KEY``, the sha256 hex digest of that JSON, ``_END``
_HEAD = b'{"cache_schema":%d,"record":' % CACHE_SCHEMA_VERSION
_SHA_KEY = b',"sha256":"'
_END = b'"}\n'


def _canonical(record_payload: dict[str, Any]) -> bytes:
    """The canonical JSON text ``sha256`` covers."""
    return json.dumps(record_payload, sort_keys=True, separators=(",", ":")).encode()


def _checksum(canonical: bytes) -> bytes:
    return hashlib.sha256(canonical).hexdigest().encode()


@dataclass
class CacheAudit:
    """What a :meth:`ResultCache.verify` / :meth:`~ResultCache.gc` pass found."""

    ok: int = 0
    #: entries that failed JSON parsing or the payload checksum; verify
    #: renames each to ``*.corrupt`` as it finds them
    corrupt: int = 0
    #: parseable entries in an old envelope / schema version
    stale: int = 0
    #: orphaned ``*.tmp.*`` files from writers that died mid-write
    tmp: int = 0
    #: previously quarantined ``*.corrupt`` files present
    quarantined: int = 0
    #: bytes held by quarantined ``*.corrupt`` files
    quarantined_bytes: int = 0
    #: files removed (gc only)
    removed: int = 0
    bytes_total: int = 0
    #: quarantine destinations created by this pass
    renamed: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.corrupt == 0 and self.quarantined == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "tmp": self.tmp,
            "quarantined": self.quarantined,
            "quarantined_bytes": self.quarantined_bytes,
            "removed": self.removed,
            "bytes_total": self.bytes_total,
            "renamed": list(self.renamed),
        }


class ResultCache:
    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.json"

    def _quarantine(self, path: Path) -> Path:
        """Rename a corrupt entry aside; never raises on a lost race."""
        target = path.with_name(path.name + CORRUPT_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            pass  # a concurrent reader already moved or removed it
        return target

    # -- classification ------------------------------------------------------
    #: entry states: a servable record, a detectably damaged file, or a
    #: readable file in a superseded format
    _OK, _CORRUPT, _STALE = "ok", "corrupt", "stale"

    def _classify(self, path: Path) -> tuple[str, RunRecord | None]:
        """Decide an entry's fate without touching the filesystem.

        An entry is served only when its bytes are exactly what
        :meth:`put` writes: the checksum is taken over the stored record
        text, and only that text is parsed.  An entry in another layout
        is never served: corrupt when it does not parse or a current
        envelope's checksum fails, stale otherwise (an older format, or
        an older writer's layout of an intact record).
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return self._STALE, None  # vanished under us: a plain miss
        if not raw.startswith(_HEAD):
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return self._CORRUPT, None
            if not isinstance(data, dict):
                return self._CORRUPT, None
            if data.get("cache_schema") != CACHE_SCHEMA_VERSION:
                return self._STALE, None  # pre-checksum or future format
            payload = data.get("record")
            if not isinstance(payload, dict) or (
                _checksum(_canonical(payload)).decode() != data.get("sha256")
            ):
                return self._CORRUPT, None
            return self._STALE, None
        text, key, end = raw[len(_HEAD) :].rpartition(_SHA_KEY)
        if not key or end != _checksum(text) + _END:
            return self._CORRUPT, None
        try:
            payload = json.loads(text)
        except ValueError:
            return self._CORRUPT, None
        if not isinstance(payload, dict):
            return self._CORRUPT, None
        if payload.get("schema") != RECORD_SCHEMA_VERSION:
            return self._STALE, None
        try:
            record = RunRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return self._STALE, None  # checksum held, so drift not damage
        return self._OK, record

    def get(self, spec: RunSpec) -> RunRecord | None:
        path = self._path(spec.spec_hash)
        if not path.exists():
            return None
        fate, record = self._classify(path)
        if fate == self._CORRUPT:
            # never silently swallow damage: quarantine it for audit
            self._quarantine(path)
            return None
        if record is None or record.spec.to_dict() != spec.to_dict():
            return None
        if record.status not in CACHEABLE_STATUSES:
            return None
        record.cached = True
        return record

    def put(self, record: RunRecord) -> None:
        if record.status not in CACHEABLE_STATUSES:
            return
        path = self._path(record.spec_hash)
        canonical = _canonical(record.to_dict())
        # the record is encoded once: the checksummed text is spliced
        # into the envelope, not encoded again
        entry = _HEAD + canonical + _SHA_KEY + _checksum(canonical) + _END
        atomic_write_text(path, entry.decode())
        faults.on_cache_put(path)

    # -- audit and maintenance ----------------------------------------------
    def _tally_side_files(self, audit: CacheAudit) -> None:
        """Count orphaned temps and quarantined files (and their bytes)."""
        audit.tmp = sum(1 for _ in self.root.glob("*.tmp.*"))
        audit.quarantined = 0
        audit.quarantined_bytes = 0
        for path in self.root.glob(f"*{CORRUPT_SUFFIX}"):
            audit.quarantined += 1
            try:
                audit.quarantined_bytes += path.stat().st_size
            except OSError:
                continue

    def _audit(self, quarantine: bool) -> tuple[CacheAudit, list[Path]]:
        """Classify every entry, renaming each corrupt one aside when
        ``quarantine`` is set; return the audit and the stale entries."""
        audit = CacheAudit()
        stale: list[Path] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                audit.bytes_total += path.stat().st_size
            except OSError:
                continue
            fate, _ = self._classify(path)
            if fate == self._OK:
                audit.ok += 1
            elif fate == self._CORRUPT:
                audit.corrupt += 1
                if quarantine:
                    audit.renamed.append(str(self._quarantine(path)))
            else:
                audit.stale += 1
                stale.append(path)
        self._tally_side_files(audit)
        return audit, stale

    def verify(self) -> CacheAudit:
        """Audit every entry; quarantine (rename) any corrupt ones."""
        return self._audit(quarantine=True)[0]

    def gc(self, corrupt_age_s: float | None = None) -> CacheAudit:
        """Reap stale entries, quarantined files, and orphaned temps.

        Healthy entries are untouched; the returned audit's ``removed``
        counts what was deleted.  Corrupt entries found during the scan
        are quarantined first (so the audit records them) and then
        reaped with the rest of the quarantine.

        ``corrupt_age_s`` keeps *recent* ``*.corrupt`` files for
        post-mortem: only quarantined files whose mtime is older than
        the threshold are removed (``None`` reaps them all).  Without a
        periodic ``gc`` the quarantine otherwise accumulates forever.
        """
        audit, stale = self._audit(quarantine=True)
        for path in stale:
            path.unlink(missing_ok=True)
            audit.removed += 1
        # age is operational bookkeeping (file mtime vs. now), not a
        # simulated-result input  # repro: ignore[RPR102]
        now = time.time()
        for path in sorted(self.root.glob(f"*{CORRUPT_SUFFIX}")):
            if corrupt_age_s is not None:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue  # vanished under us
                if age < corrupt_age_s:
                    continue  # recent quarantine: keep for audit
            path.unlink(missing_ok=True)
            audit.removed += 1
        for path in sorted(self.root.glob("*.tmp.*")):
            path.unlink(missing_ok=True)
            audit.removed += 1
        self._tally_side_files(audit)
        return audit

    def stats(self) -> CacheAudit:
        """Non-mutating audit: like :meth:`verify` but corrupt entries
        are counted in place, not renamed."""
        return self._audit(quarantine=False)[0]

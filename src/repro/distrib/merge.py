"""Crash-consistent merge of per-worker shard journals.

The merge is a pure read of the shard directory — it never blocks a
worker and a worker never blocks it — reconstructing one record per
plan spec from whatever the fleet managed to write:

1. every per-worker shard journal is read torn-tail-tolerantly
   (journals from a mismatched spec schema are *skipped and reported*,
   never silently merged);
2. within a journal the last record per spec hash wins (the journal's
   own resume semantics); across journals, ``ok`` beats non-``ok`` and
   ties between ``ok`` records must be **bit-identical modulo wall-time
   fields** (``duration_s``, ``cached``) — anything else is flagged a
   conflict, because two honest executions of one content-hashed spec
   cannot disagree;
3. specs no journal resolved (a worker died after the cache write but
   before — or during — the journal append) are *backfilled* from the
   shared checksummed cache;
4. the output is ordered by the plan, so a merged sweep's rows line up
   positionally with the single-host sweep over the same grid.

Missing specs after all that mean the sweep genuinely is not finished:
:attr:`MergeResult.complete` is the "safe to export" bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.distrib.layout import ShardDirLayout
from repro.distrib.lease import TOMBSTONE_INFIX, LeaseManager
from repro.distrib.plan import ShardPlan
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.journal import JournalSchemaError, read_journal
from repro.orchestrator.results import RunRecord
from repro.orchestrator.retry import RetryPolicy

#: record fields that legitimately differ between hosts / executions
#: (mirrors scripts/compare_sweep_json.py)
WALL_TIME_FIELDS = ("duration_s", "cached")


def comparable_payload(record: RunRecord) -> dict[str, Any]:
    """A record's dict with host/wall-time fields masked for equality."""
    payload = record.to_dict()
    for key in WALL_TIME_FIELDS:
        payload.pop(key, None)
    return payload


@dataclass
class MergeConflict:
    """Two ``ok`` executions of one spec that are not bit-identical."""

    spec_hash: str
    workers: list[str]
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec_hash": self.spec_hash,
            "workers": list(self.workers),
            "detail": self.detail,
        }


@dataclass
class MergeResult:
    """Everything a merge pass reconstructed (and could not)."""

    #: one record per resolved plan spec, in plan order
    records: list[RunRecord] = field(default_factory=list)
    #: spec hashes with no record in any journal or the shared cache
    missing: list[str] = field(default_factory=list)
    conflicts: list[MergeConflict] = field(default_factory=list)
    #: workers whose journals contributed records
    workers: list[str] = field(default_factory=list)
    #: spec hashes recovered from the shared cache, not a journal
    backfilled: list[str] = field(default_factory=list)
    #: journals skipped for schema mismatch or unreadability
    skipped_journals: list[str] = field(default_factory=list)
    #: shard id -> times its lease was stolen (from tombstones)
    stolen_shards: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def clean(self) -> bool:
        return self.complete and not self.conflicts

    def summary(self) -> dict[str, Any]:
        statuses: dict[str, int] = {}
        for record in self.records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        return {
            "records": len(self.records),
            "statuses": statuses,
            "missing": list(self.missing),
            "conflicts": [c.to_dict() for c in self.conflicts],
            "workers": list(self.workers),
            "backfilled": list(self.backfilled),
            "skipped_journals": list(self.skipped_journals),
            "stolen_shards": dict(self.stolen_shards),
            "complete": self.complete,
        }


def _read_journal(
    path: Path, result: MergeResult
) -> list[tuple[str, RunRecord]]:
    """Last-wins records from one journal as ``(worker, record)`` pairs.

    A journal that :func:`~repro.orchestrator.journal.read_journal`
    refuses (a header pinning a different spec schema, or records
    before any header) contributes nothing and is reported in
    ``skipped_journals``; damaged lines are skipped silently (that is
    the torn-tail contract).
    """
    try:
        last, _ = read_journal(path)
    except (JournalSchemaError, OSError):
        result.skipped_journals.append(str(path))
        return []
    return [
        (str(entry.get("worker") or path.stem), record)
        for record, entry in last.values()
    ]


def _pick_winner(
    spec_hash: str,
    candidates: list[tuple[str, RunRecord]],
    result: MergeResult,
) -> RunRecord:
    """Resolve one spec's candidates: ok beats non-ok, oks must agree."""
    oks = [(w, r) for w, r in candidates if r.ok]
    if not oks:
        # no successful execution anywhere: keep the last failure seen
        # (journal order is deterministic, so this is reproducible)
        return candidates[-1][1]
    baseline_worker, baseline = oks[0]
    baseline_payload = comparable_payload(baseline)
    disagreeing = [
        w
        for w, r in oks[1:]
        if comparable_payload(r) != baseline_payload
    ]
    if disagreeing:
        result.conflicts.append(
            MergeConflict(
                spec_hash=spec_hash,
                workers=[baseline_worker, *disagreeing],
                detail=(
                    "ok records for one content-hashed spec differ "
                    "beyond wall-time fields; the simulation is "
                    "deterministic, so one of these executions is "
                    "damaged — refusing to guess which"
                ),
            )
        )
    return baseline


def merge_shard_dir(
    shard_dir: str | os.PathLike[str],
    retry: RetryPolicy | None = None,
) -> MergeResult:
    """Merge every journal (and the shared cache) against the plan."""
    layout = ShardDirLayout(shard_dir)
    plan = ShardPlan.load(shard_dir, retry)
    result = MergeResult()

    by_hash: dict[str, list[tuple[str, RunRecord]]] = {}
    workers: set[str] = set()
    for path in sorted(layout.journals_dir.glob("*.jsonl")):
        for worker, record in _read_journal(path, result):
            by_hash.setdefault(record.spec_hash, []).append((worker, record))
            workers.add(worker)
    result.workers = sorted(workers)

    shared = (
        ResultCache(layout.cache_dir) if layout.cache_dir.is_dir() else None
    )
    seen: set[str] = set()
    for spec in plan.specs:
        if spec.spec_hash in seen:
            continue  # deduped specs resolve once, like a single host
        seen.add(spec.spec_hash)
        candidates = by_hash.get(spec.spec_hash)
        if candidates:
            result.records.append(
                _pick_winner(spec.spec_hash, candidates, result)
            )
            continue
        hit = shared.get(spec) if shared is not None else None
        if hit is not None:
            # the worker died in the journal-append window; the cache
            # write (checksummed) survived — the result is still good
            result.records.append(hit)
            result.backfilled.append(spec.spec_hash)
            continue
        result.missing.append(spec.spec_hash)

    for path in sorted(layout.leases_dir.glob(f"*{TOMBSTONE_INFIX}*")):
        shard_id = path.name.split(TOMBSTONE_INFIX, 1)[0]
        result.stolen_shards[shard_id] = (
            result.stolen_shards.get(shard_id, 0) + 1
        )
    return result


def shard_dir_status(
    shard_dir: str | os.PathLike[str],
    retry: RetryPolicy | None = None,
) -> dict[str, Any]:
    """A read-only snapshot of a shard directory's progress.

    Each shard is ``done`` (marker present), ``leased`` (live
    heartbeat), ``stale`` (lease whose heartbeat exceeded the TTL —
    steal candidate), or ``unclaimed``.
    """
    layout = ShardDirLayout(shard_dir)
    plan = ShardPlan.load(shard_dir, retry)
    leases = LeaseManager(layout.leases_dir, "status-reader")
    shards: list[dict[str, Any]] = []
    counts = {"done": 0, "leased": 0, "stale": 0, "unclaimed": 0}
    for shard in plan.shards:
        lease = leases.read_lease(shard.shard_id)
        if layout.done_path(shard.shard_id).exists():
            state = "done"
        elif lease is None:
            state = "unclaimed"
        elif leases.is_stale(shard.shard_id):
            state = "stale"
        else:
            state = "leased"
        counts[state] += 1
        entry: dict[str, Any] = {
            "shard_id": shard.shard_id,
            "specs": len(shard.specs),
            "state": state,
            "steals": len(leases.tombstones(shard.shard_id)),
        }
        if lease is not None:
            entry["worker"] = lease.worker
            entry["generation"] = lease.generation
            age = leases.heartbeat_age_s(shard.shard_id)
            if age is not None:
                entry["heartbeat_age_s"] = round(age, 3)
        shards.append(entry)
    return {
        "plan_id": plan.plan_id,
        "specs": len(plan),
        "shards": shards,
        "counts": counts,
    }

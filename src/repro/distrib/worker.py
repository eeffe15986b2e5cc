"""Shard workers: claim, heartbeat, execute, publish, steal.

A :class:`ShardWorker` is one process's participation in a distributed
sweep.  It loads the published plan, then loops: claim an unclaimed
shard (O_EXCL lease), execute its specs through the ordinary
:class:`~repro.orchestrator.runner.SweepRunner` (so retries, timeouts,
poison-spec bisection, and journaling all behave exactly as in a
single-host sweep), write an atomic done marker, release the lease.
While a shard executes, a daemon heartbeat thread renews the lease on
a cadence; when every shard is claimed, the worker hunts for leases
whose heartbeats have gone stale past the TTL and *steals* them —
exactly once each, courtesy of the tombstone rename in
:class:`~repro.distrib.lease.LeaseManager`.

Durability comes from composition, not new machinery:

- results land in a per-worker shard journal
  (``journals/<shard>.<worker>.jsonl``, the PR-8 fsync'd JSONL with
  ``worker``/``shard`` tags on each line) *and* in the two-tier cache,
  so a stealer resumes a dead worker's shard mostly from shared-cache
  hits — re-journaled under the stealer, making the stealer's journal
  complete for the shard even though it recomputed almost nothing;
- poison-spec quarantine propagates through ``poison/`` markers:
  written when a worker pins a killer spec, loaded by every worker
  before each shard, so one crash-bisection protects the whole fleet.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distrib.cache import TieredResultCache
from repro.orchestrator.fsio import atomic_write_json, read_json
from repro.distrib.layout import ShardDirLayout, safe_name
from repro.distrib.lease import DEFAULT_TTL_S, LeaseManager
from repro.distrib.plan import Shard, ShardPlan
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.journal import SweepJournal
from repro.orchestrator.results import RunRecord
from repro.orchestrator.runner import (
    ExecutionPolicy,
    SweepRunner,
    quarantine_spec,
    quarantined_hashes,
)


def default_worker_id() -> str:
    """``<hostname>-<pid>``, filesystem-safe; unique enough per fleet."""
    host = socket.gethostname() or "host"
    return safe_name(f"{host}-{os.getpid()}")


class _HeartbeatThread(threading.Thread):
    """Renews one shard's heartbeat on a cadence until stopped.

    A daemon thread so a worker dying abruptly (the scenario leases
    exist for) never blocks on it; ``stop()`` ends it promptly on the
    clean path.  All mutable state is created in ``__init__`` and only
    read (or ``Event.set``) afterwards.
    """

    def __init__(
        self, manager: LeaseManager, shard_id: str, interval_s: float
    ) -> None:
        super().__init__(
            name=f"heartbeat-{shard_id}",
            daemon=True,
        )
        self._manager = manager
        self._shard_id = shard_id
        self._interval_s = interval_s
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            # a False return means a fault plan stalled the renewal —
            # keep looping so the stall is a liveness failure (stale
            # heartbeat, stealable lease), not a worker crash
            self._manager.renew(self._shard_id)

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=max(1.0, self._interval_s * 4))


class _WorkerJournal(SweepJournal):
    """A shard journal whose lines carry the writing worker's identity."""

    def __init__(
        self,
        path: Any,
        *,
        worker: str,
        shard_id: str,
        resume: bool = True,
    ) -> None:
        super().__init__(path, resume=resume)
        self._tags = {"worker": worker, "shard": shard_id}

    def append(
        self, record: RunRecord, *, extra: dict[str, Any] | None = None
    ) -> None:
        tags = dict(self._tags)
        if extra:
            tags.update(extra)
        super().append(record, extra=tags)


@dataclass
class WorkReport:
    """What one :meth:`ShardWorker.work` call accomplished."""

    worker: str
    shards_done: list[str] = field(default_factory=list)
    shards_stolen: list[str] = field(default_factory=list)
    records: int = 0
    statuses: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "shards_done": list(self.shards_done),
            "shards_stolen": list(self.shards_stolen),
            "records": self.records,
            "statuses": dict(self.statuses),
        }


class ShardWorker:
    """One worker process's view of a shard directory.

    All cross-worker state lives in the shard directory; this object
    only holds configuration, so any number of ShardWorkers (threads,
    processes, hosts) may point at the same directory.
    """

    def __init__(
        self,
        shard_dir: str | os.PathLike[str],
        *,
        worker: str | None = None,
        policy: ExecutionPolicy | None = None,
        local_cache: ResultCache | None = None,
        ttl_s: float = DEFAULT_TTL_S,
        heartbeat_s: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        # a zero cadence would renew the lease in a busy loop
        if heartbeat_s is not None and not heartbeat_s > 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        self.layout = ShardDirLayout(shard_dir).ensure()
        self.worker = worker or default_worker_id()
        self.policy = policy or ExecutionPolicy()
        self.ttl_s = ttl_s
        # three beats per TTL: one lost write never looks like death
        self.heartbeat_s = (
            heartbeat_s if heartbeat_s is not None else max(ttl_s / 3.0, 0.05)
        )
        self.leases = LeaseManager(
            self.layout.leases_dir, self.worker, ttl_s=ttl_s, clock=clock
        )
        shared = ResultCache(self.layout.cache_dir)
        self.cache: TieredResultCache | ResultCache
        if local_cache is not None:
            self.cache = TieredResultCache(
                local_cache, shared, retry=self.policy.retry
            )
        else:
            # no local tier configured: the shared tier alone still
            # gives cross-worker reuse with checksummed entries
            self.cache = shared

    # -- poison propagation --------------------------------------------------
    def _load_poison(self) -> int:
        """Pull published poison markers into this process's quarantine."""
        n = 0
        for path in sorted(self.layout.poison_dir.glob("*.json")):
            payload = read_json(path)
            if payload is None:
                continue
            spec_hash = payload.get("spec_hash") or path.stem
            fate = payload.get("fate") or "quarantined by another worker"
            quarantine_spec(str(spec_hash), str(fate))
            n += 1
        return n

    def _publish_poison(self) -> int:
        """Push newly quarantined spec hashes to the shard directory."""
        n = 0
        for spec_hash, fate in quarantined_hashes().items():
            path = self.layout.poison_path(spec_hash)
            if path.exists():
                continue
            atomic_write_json(
                path,
                {"spec_hash": spec_hash, "fate": fate, "worker": self.worker},
            )
            n += 1
        return n

    # -- shard execution -----------------------------------------------------
    def _run_shard(
        self, shard: Shard, *, generation: int, report: WorkReport
    ) -> None:
        """Execute one claimed shard: journal, cache, done marker, release.

        The ordering is the crash-consistency contract: the done marker
        lands (atomically) *before* the lease is released, so a shard
        is never both unclaimed and undone unless its worker died —
        exactly the state the stale-lease steal recovers.
        """
        self._load_poison()
        heartbeat = _HeartbeatThread(
            self.leases, shard.shard_id, self.heartbeat_s
        )
        heartbeat.start()
        journal = _WorkerJournal(
            self.layout.journal_path(shard.shard_id, self.worker),
            worker=self.worker,
            shard_id=shard.shard_id,
        )
        try:
            runner = SweepRunner(
                policy=self.policy, cache=self.cache, journal=journal
            )
            with runner:
                records = runner.run(list(shard.specs))
            self._publish_poison()
            statuses: dict[str, int] = {}
            for record in records:
                statuses[record.status] = statuses.get(record.status, 0) + 1
            atomic_write_json(
                self.layout.done_path(shard.shard_id),
                {
                    "shard_id": shard.shard_id,
                    "worker": self.worker,
                    "generation": generation,
                    "records": len(records),
                    "statuses": statuses,
                },
            )
            report.shards_done.append(shard.shard_id)
            report.records += len(records)
            for status, count in statuses.items():
                report.statuses[status] = report.statuses.get(status, 0) + count
        finally:
            journal.close()
            heartbeat.stop()
            # released even when execution raised: the shard has no done
            # marker, so the next worker re-claims it without waiting
            # out the TTL (an os._exit fault kill skips this, leaving
            # the stale lease the steal path exists for)
            self.leases.release(shard.shard_id)

    # -- the work loop -------------------------------------------------------
    def _is_done(self, shard_id: str) -> bool:
        return self.layout.done_path(shard_id).exists()

    def work(
        self,
        *,
        wait: bool = False,
        max_shards: int | None = None,
        poll_s: float = 0.2,
    ) -> WorkReport:
        """Claim-and-execute until no work is left (or ``max_shards``).

        One pass claims every unclaimed, undone shard it can win; then
        stale leases are stolen.  With ``wait=True`` the worker polls
        until every shard has a done marker — the mode for fleets,
        where another worker's death may hand us work long after our
        first pass; without it the worker exits at the first pass that
        finds nothing claimable (the mode for ``--shards``-style local
        helpers and tests).
        """
        plan = ShardPlan.load(self.layout.root, self.policy.retry)
        report = WorkReport(worker=self.worker)

        def budget_left() -> bool:
            done_count = len(report.shards_done)
            return max_shards is None or done_count < max_shards

        while True:
            progressed = False
            # pass 1: virgin claims, in plan order
            for shard in plan.shards:
                if not budget_left():
                    return report
                if self._is_done(shard.shard_id):
                    continue
                lease = self.leases.try_claim(shard.shard_id)
                if lease is None:
                    continue
                if self._is_done(shard.shard_id):
                    # lost race variant: done landed between our check
                    # and our claim — hand the claim straight back
                    self.leases.release(shard.shard_id)
                    continue
                self._run_shard(
                    shard, generation=lease.generation, report=report
                )
                progressed = True
            # pass 2: steal from the (apparently) dead
            for shard in plan.shards:
                if not budget_left():
                    return report
                if self._is_done(shard.shard_id):
                    continue
                if not self.leases.is_stale(shard.shard_id):
                    continue
                lease = self.leases.try_steal(shard.shard_id)
                if lease is None:
                    continue  # lost the steal race (good: exactly-once)
                report.shards_stolen.append(shard.shard_id)
                self._run_shard(
                    shard, generation=lease.generation, report=report
                )
                progressed = True
            remaining = [
                s.shard_id
                for s in plan.shards
                if not self._is_done(s.shard_id)
            ]
            if not remaining or not budget_left():
                return report
            if not wait and not progressed:
                # someone else holds every remaining shard and none are
                # stale yet; a non-waiting worker's job here is done
                return report
            # waiting mode: live leases exist — poll until they finish,
            # die (then we steal above), or everything is done
            time.sleep(poll_s)

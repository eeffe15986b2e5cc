"""Lease-based shard claims: O_EXCL acquire, heartbeats, atomic steal.

Workers coordinate through lease files alone — no coordinator, no
locks held across hosts:

- **Claim** — ``leases/<shard>.lease`` is created with
  ``O_CREAT | O_EXCL``, the one filesystem operation that is atomic
  and exclusive on every POSIX filesystem worth sharing.  Exactly one
  worker wins; everyone else moves on.
- **Heartbeat** — the owner atomically rewrites
  ``leases/<shard>.heartbeat`` on a cadence with a wall-clock
  timestamp.  A lease whose heartbeat is older than the TTL is
  *stale*: its owner is dead, wedged, or partitioned — from the
  outside these are indistinguishable, and all three are handled the
  same way.
- **Steal** — a live worker first takes a *steal lock* named after
  the stale lease's exact incarnation (worker, pid, generation,
  claim time), again with ``O_CREAT | O_EXCL`` — so one lease
  incarnation can be tombstoned by at most one stealer, even if a
  second stealer's staleness judgement is delayed past the first
  steal completing and re-claiming.  The lock winner renames the
  lease to a unique tombstone (``<shard>.expired.<stealer>.<n>``),
  verifies the renamed content is the lease it judged stale (and
  links it back if a wedged owner released-and-lost the race in the
  window), then claims fresh (generation + 1, ``stolen_from``
  recorded).  The tombstone stays behind as auditable evidence of
  the steal.

Timestamps are wall-clock by necessity — liveness across hosts has no
shared monotonic clock — so the TTL must dominate worst-case clock
skew between hosts (seconds of skew vs. a 30 s default TTL).  None of
this feeds simulation results; it only decides *who* executes, never
*what* the execution produces.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.orchestrator.fsio import atomic_write_json, read_json
from repro.orchestrator import faults

LEASE_SUFFIX = ".lease"
HEARTBEAT_SUFFIX = ".heartbeat"
#: infix of steal tombstones: ``<shard>.expired.<stealer>.<n>``
TOMBSTONE_INFIX = ".expired."

DEFAULT_TTL_S = 30.0

#: distinguishes tombstones from repeated steals by one process
_STEAL_COUNTER = itertools.count()


@dataclass(frozen=True)
class Lease:
    """A worker's claim on one shard, as recorded in its lease file."""

    shard_id: str
    worker: str
    pid: int
    claimed_at: float
    ttl_s: float
    generation: int = 0
    stolen_from: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "worker": self.worker,
            "pid": self.pid,
            "claimed_at": self.claimed_at,
            "ttl_s": self.ttl_s,
            "generation": self.generation,
            "stolen_from": self.stolen_from,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Lease":
        return cls(
            shard_id=str(payload.get("shard_id", "")),
            worker=str(payload.get("worker", "")),
            pid=int(payload.get("pid", 0)),
            claimed_at=float(payload.get("claimed_at", 0.0)),
            ttl_s=float(payload.get("ttl_s", DEFAULT_TTL_S)),
            generation=int(payload.get("generation", 0)),
            stolen_from=payload.get("stolen_from"),
        )


class LeaseManager:
    """Claims, renews, releases, and steals shard leases in one dir.

    ``clock`` is injectable for tests; the default reads the wall
    clock because cross-host liveness has no other common time base.
    Lease state never feeds simulation results (see module docstring).
    """

    def __init__(
        self,
        leases_dir: str | os.PathLike[str],
        worker: str,
        *,
        ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.dir = Path(leases_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.worker = worker
        self.ttl_s = ttl_s
        # operational liveness, not a result path  # repro: ignore[RPR102]
        self._clock: Callable[[], float] = clock if clock is not None else time.time

    # -- paths ---------------------------------------------------------------
    def lease_path(self, shard_id: str) -> Path:
        return self.dir / f"{shard_id}{LEASE_SUFFIX}"

    def heartbeat_path(self, shard_id: str) -> Path:
        return self.dir / f"{shard_id}{HEARTBEAT_SUFFIX}"

    # -- claim ---------------------------------------------------------------
    def try_claim(
        self,
        shard_id: str,
        *,
        generation: int = 0,
        stolen_from: str | None = None,
    ) -> Lease | None:
        """Atomically claim ``shard_id``; None when someone else holds it."""
        lease = Lease(
            shard_id=shard_id,
            worker=self.worker,
            pid=os.getpid(),
            claimed_at=self._clock(),
            ttl_s=self.ttl_s,
            generation=generation,
            stolen_from=stolen_from,
        )
        path = self.lease_path(shard_id)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        try:
            os.write(
                fd,
                json.dumps(lease.to_dict(), sort_keys=True).encode() + b"\n",
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        self.renew(shard_id)
        # the injected-host-death seam fires *after* the lease exists:
        # a killed claimer leaves exactly the stale-lease state a real
        # machine loss leaves
        faults.on_shard_claim(shard_id)
        return lease

    def read_lease(self, shard_id: str) -> Lease | None:
        payload = read_json(self.lease_path(shard_id))
        return Lease.from_dict(payload) if payload is not None else None

    # -- heartbeat -----------------------------------------------------------
    def renew(self, shard_id: str) -> bool:
        """Refresh the heartbeat; False when a fault plan stalled it."""
        if not faults.on_heartbeat(shard_id):
            return False
        atomic_write_json(
            self.heartbeat_path(shard_id),
            {"worker": self.worker, "at": self._clock()},
        )
        return True

    def heartbeat_age_s(self, shard_id: str) -> float | None:
        """Seconds since the last heartbeat (or claim), None if no lease.

        Falls back from the heartbeat timestamp to the lease's
        ``claimed_at`` to the lease file's mtime, so a worker that died
        between claim and first heartbeat still goes stale — a lease
        with *no* interpretable timestamp at all reads as infinitely
        stale rather than unstealable.
        """
        beat = read_json(self.heartbeat_path(shard_id))
        if beat is not None and isinstance(beat.get("at"), (int, float)):
            return max(0.0, self._clock() - float(beat["at"]))
        lease = self.read_lease(shard_id)
        if lease is not None and lease.claimed_at > 0:
            return max(0.0, self._clock() - lease.claimed_at)
        try:
            mtime = self.lease_path(shard_id).stat().st_mtime
        except OSError:
            return None  # no lease at all
        return max(0.0, self._clock() - mtime)

    def is_stale(self, shard_id: str, ttl_s: float | None = None) -> bool:
        """Does a lease exist whose heartbeat is older than the TTL?"""
        if not self.lease_path(shard_id).exists():
            return False
        age = self.heartbeat_age_s(shard_id)
        if age is None:
            return False
        lease = self.read_lease(shard_id)
        ttl = ttl_s if ttl_s is not None else (
            lease.ttl_s if lease is not None else self.ttl_s
        )
        return age > ttl

    # -- steal ---------------------------------------------------------------
    def _steal_lock_path(self, old: Lease) -> Path:
        # one lock per lease *incarnation*: a stealer whose staleness
        # judgement predates a completed steal-and-reclaim cannot
        # tombstone the successor lease, because the successor is a
        # different incarnation with a different lock
        return self.dir / (
            f"{old.shard_id}.stealing.g{old.generation}"
            f".{old.pid}.{old.claimed_at!r}"
        )

    def try_steal(self, shard_id: str) -> Lease | None:
        """Steal a stale lease; None when not stale or the race is lost.

        Exactly-once is enforced in two layers: the per-incarnation
        steal lock serialises stealers of the *same* stale lease, and
        a post-rename content check catches the narrow window where a
        wedged-but-alive owner released and a fresh claim landed
        between judgement and rename (the fresh lease is linked back
        untouched).  The steal lock stays behind with the tombstone as
        audit evidence.
        """
        old = self.read_lease(shard_id)
        if old is None or not self.is_stale(shard_id):
            return None
        try:
            fd = os.open(
                self._steal_lock_path(old),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o644,
            )
            os.close(fd)
        except FileExistsError:
            return None  # another stealer holds this incarnation
        except OSError:
            return None  # shared dir unwritable; let a peer steal
        current = self.read_lease(shard_id)
        if current != old:
            return None  # lease changed hands since our judgement
        tombstone = self.dir / (
            f"{shard_id}{TOMBSTONE_INFIX}{self.worker}"
            f".{os.getpid()}.{next(_STEAL_COUNTER)}"
        )
        try:
            os.rename(self.lease_path(shard_id), tombstone)
        except OSError:
            return None  # the owner released in the window
        stolen = read_json(tombstone)
        if stolen is not None and Lease.from_dict(stolen) != old:
            # a wedged owner released and a new claim landed between
            # our verification and the rename: restore the fresh lease
            # (link fails only if yet another claim landed first, in
            # which case the displaced lease was lost to that claim
            # and the tombstone documents the displacement)
            try:
                os.link(tombstone, self.lease_path(shard_id))
                tombstone.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        # the stale heartbeat belongs to the dead owner; drop it so our
        # fresh claim starts its own liveness record
        self.heartbeat_path(shard_id).unlink(missing_ok=True)
        return self.try_claim(
            shard_id,
            generation=old.generation + 1,
            stolen_from=old.worker,
        )

    # -- release -------------------------------------------------------------
    def release(self, shard_id: str) -> None:
        """Drop our lease and heartbeat (after the done marker lands)."""
        self.heartbeat_path(shard_id).unlink(missing_ok=True)
        self.lease_path(shard_id).unlink(missing_ok=True)

    # -- observation ---------------------------------------------------------
    def tombstones(self, shard_id: str | None = None) -> list[Path]:
        """Steal tombstones, optionally for one shard (sorted, stable)."""
        pattern = (
            f"{shard_id}{TOMBSTONE_INFIX}*"
            if shard_id is not None
            else f"*{TOMBSTONE_INFIX}*"
        )
        return sorted(self.dir.glob(pattern))

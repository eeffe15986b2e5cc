"""Shard plans: a sweep's spec list split into content-hashed shards.

A :class:`ShardPlan` is the unit of agreement between workers that
share a shard directory: the full spec list, split into contiguous
shards, published once as ``plan.json``.  Everything is content
addressed —

- each shard's id folds in its position *and* the spec hashes it
  carries, so two plans agree on a shard id iff they agree on its
  work;
- the plan id folds in every shard id plus the spec schema and
  simulator version, so a worker can refuse to join a directory whose
  plan was built from a different grid (or by a simulator that prices
  it differently) instead of silently executing the wrong sweep.

Publishing is atomic and idempotent: re-publishing an identical plan
is a no-op, publishing a *different* plan into an occupied directory
raises :class:`PlanMismatch` (wipe the directory or pick another —
plans are immutable once published).  A sweep joins through
:func:`join_or_publish`, which joins a plan over its own grid whatever
that plan's shard count.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Sequence

from repro.orchestrator.fsio import atomic_write_json, read_json, with_io_retry
from repro.distrib.layout import ShardDirLayout
from repro.orchestrator.retry import RetryPolicy
from repro.orchestrator.spec import SIM_VERSION, SPEC_SCHEMA_VERSION, RunSpec

PLAN_SCHEMA_VERSION = 1


class PlanError(ValueError):
    """A shard plan could not be built, published, or loaded."""


class PlanMismatch(PlanError):
    """The shard directory already holds a *different* plan."""


def _digest(parts: Sequence[str]) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the sweep's spec list."""

    shard_id: str
    index: int
    specs: tuple[RunSpec, ...]


def _shard_id(index: int, specs: Sequence[RunSpec]) -> str:
    content = _digest([spec.spec_hash for spec in specs])
    return f"{index:04d}-{content}"


@dataclass(frozen=True)
class ShardPlan:
    """An immutable, content-addressed split of a sweep into shards."""

    plan_id: str
    shards: tuple[Shard, ...]

    @classmethod
    def build(
        cls, specs: Sequence[RunSpec], num_shards: int
    ) -> "ShardPlan":
        """Split ``specs`` into up to ``num_shards`` contiguous shards.

        Contiguity keeps each shard's specs in sweep order, so the
        merged result is a stable permutation-free reconstruction of
        the single-host row order.  Empty shards are never created:
        a 3-spec sweep asked for 8 shards gets 3 singleton shards.
        """
        if num_shards < 1:
            raise PlanError(f"num_shards must be >= 1, got {num_shards}")
        if not specs:
            raise PlanError("cannot build a shard plan over zero specs")
        count = min(num_shards, len(specs))
        base, extra = divmod(len(specs), count)
        shards: list[Shard] = []
        at = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunk = tuple(specs[at : at + size])
            shards.append(Shard(_shard_id(index, chunk), index, chunk))
            at += size
        return cls(plan_id=cls._plan_id(shards), shards=tuple(shards))

    @staticmethod
    def _plan_id(shards: Sequence[Shard]) -> str:
        return _digest(
            [str(SPEC_SCHEMA_VERSION), SIM_VERSION]
            + [shard.shard_id for shard in shards]
        )

    @property
    def specs(self) -> tuple[RunSpec, ...]:
        return tuple(
            spec for shard in self.shards for spec in shard.specs
        )

    def __len__(self) -> int:
        return sum(len(shard.specs) for shard in self.shards)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_schema": PLAN_SCHEMA_VERSION,
            "plan_id": self.plan_id,
            "spec_schema": SPEC_SCHEMA_VERSION,
            "code": SIM_VERSION,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "index": shard.index,
                    "specs": [spec.to_dict() for spec in shard.specs],
                }
                for shard in self.shards
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardPlan":
        if payload.get("plan_schema") != PLAN_SCHEMA_VERSION:
            raise PlanError(
                f"unsupported plan schema {payload.get('plan_schema')!r} "
                f"(this code reads {PLAN_SCHEMA_VERSION})"
            )
        if payload.get("spec_schema") != SPEC_SCHEMA_VERSION:
            raise PlanError(
                f"plan was built under spec schema "
                f"{payload.get('spec_schema')!r}, but this code runs "
                f"{SPEC_SCHEMA_VERSION}; rebuild the plan"
            )
        shards: list[Shard] = []
        for entry in payload.get("shards", []):
            specs = tuple(
                RunSpec.from_dict(d) for d in entry.get("specs", [])
            )
            shard = Shard(
                shard_id=str(entry.get("shard_id", "")),
                index=int(entry.get("index", len(shards))),
                specs=specs,
            )
            # recompute the content hash: a hand-edited or torn plan
            # must fail loudly, not hand workers divergent work lists
            if shard.shard_id != _shard_id(shard.index, specs):
                raise PlanError(
                    f"shard {shard.shard_id} fails its content check "
                    "(plan file damaged or edited)"
                )
            shards.append(shard)
        plan = cls(
            plan_id=str(payload.get("plan_id", "")), shards=tuple(shards)
        )
        if plan.plan_id != cls._plan_id(plan.shards):
            raise PlanError(
                "plan id fails its content check (plan file damaged, "
                "edited, or written by a different simulator version)"
            )
        return plan

    # -- shared-directory publication ---------------------------------------
    def publish(
        self,
        shard_dir: str | os.PathLike[str],
        retry: RetryPolicy | None = None,
    ) -> ShardDirLayout:
        """Write ``plan.json`` (idempotent; a different plan refuses)."""
        retry = retry or RetryPolicy()
        layout = ShardDirLayout(shard_dir).ensure()
        existing = read_json(layout.plan_path)
        if existing is not None:
            if existing.get("plan_id") == self.plan_id:
                return layout  # same content: racing publishers agree
            raise PlanMismatch(
                f"{layout.plan_path} already holds plan "
                f"{existing.get('plan_id')!r}, refusing to overwrite "
                f"with {self.plan_id!r}; use a fresh shard directory"
            )
        with_io_retry(
            lambda: atomic_write_json(layout.plan_path, self.to_dict()),
            retry,
            what=f"publishing plan to {layout.plan_path}",
        )
        return layout

    @classmethod
    def load(
        cls,
        shard_dir: str | os.PathLike[str],
        retry: RetryPolicy | None = None,
    ) -> "ShardPlan":
        retry = retry or RetryPolicy()
        layout = ShardDirLayout(shard_dir)
        payload = with_io_retry(
            lambda: read_json(layout.plan_path),
            retry,
            what=f"reading {layout.plan_path}",
        )
        if payload is None:
            raise PlanError(
                f"no readable shard plan at {layout.plan_path}; publish "
                "one with `repro shard plan` first"
            )
        return cls.from_dict(payload)


def join_or_publish(
    shard_dir: str | os.PathLike[str],
    specs: Sequence[RunSpec],
    num_shards: int,
    retry: RetryPolicy | None = None,
) -> tuple[ShardPlan, bool]:
    """The plan a sweep over ``specs`` works in ``shard_dir``, and
    whether this call published it.

    A plan over the same specs (equal spec hashes, in order) is joined
    whatever its shard count, also when another host publishes it
    between this call's check and its own publish.  A plan over another
    grid raises :class:`PlanMismatch` naming the directory.  With no
    plan there, one of ``num_shards`` shards is built and published.
    """
    if not ShardDirLayout(shard_dir).plan_path.exists():
        plan = ShardPlan.build(specs, num_shards)
        try:
            plan.publish(shard_dir, retry)
            return plan, True
        except PlanMismatch:
            pass  # another host published first: join it if it is ours
    plan = ShardPlan.load(shard_dir, retry)
    if [s.spec_hash for s in plan.specs] != [s.spec_hash for s in specs]:
        raise PlanMismatch(
            f"{shard_dir} holds plan {plan.plan_id} over another grid "
            f"({len(plan)} specs, this sweep {len(specs)}); refusing to "
            "join it, use a fresh shard directory"
        )
    return plan, False

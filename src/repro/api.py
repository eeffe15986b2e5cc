"""Stable public facade: declare a run, then simulate / sweep / ensemble.

This module is the supported entry point for orchestrated simulation —
the deep module paths keep working, but new code should start here:

>>> import repro
>>> spec = repro.RunSpec(scenario="pruning", mode="dynmo-partition")
>>> record = repro.simulate(spec)
>>> records = repro.sweep([spec, spec.with_(mode="megatron")],
...                       repro.ExecutionPolicy(backend="batched"))
>>> dist = repro.ensemble(spec, n=64)  # Monte-Carlo fault ensemble

Execution is controlled by an explicit :class:`ExecutionPolicy`
(``backend="batched" | "inline" | "pool"``);
:meth:`ExecutionPolicy.from_jobs` maps the legacy ``jobs`` integer
(the CLI's ``--jobs``) onto one.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.cluster.memory import PlacementOOMError
from repro.distrib.merge import MergeResult, merge_shard_dir, shard_dir_status
from repro.model.memory import StageMemoryModel, StageMemoryReport
from repro.distrib.plan import ShardPlan
from repro.distrib.worker import ShardWorker, WorkReport
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.ensemble import (
    EnsembleResult,
    TraceDistribution,
    run_ensemble,
)
from repro.orchestrator.journal import SweepJournal
from repro.orchestrator.results import RunRecord
from repro.orchestrator.retry import RetryPolicy
from repro.orchestrator.runner import (
    ExecutionPolicy,
    ProgressFn,
    SweepInterrupted,
    SweepRunner,
    execute_spec,
)
from repro.orchestrator.spec import RunSpec

__all__ = [
    "EnsembleResult",
    "ExecutionPolicy",
    "MergeResult",
    "PlacementOOMError",
    "ResultCache",
    "RetryPolicy",
    "RunRecord",
    "RunSpec",
    "ShardPlan",
    "ShardWorker",
    "StageMemoryModel",
    "StageMemoryReport",
    "SweepInterrupted",
    "SweepJournal",
    "TraceDistribution",
    "WorkReport",
    "ensemble",
    "merge_shard_dir",
    "shard_dir_status",
    "shard_sweep",
    "simulate",
    "sweep",
]


def _as_cache(
    cache: ResultCache | str | os.PathLike[str] | None,
) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def simulate(spec: RunSpec, *, policy: ExecutionPolicy | None = None) -> RunRecord:
    """Run one spec to a :class:`RunRecord` (failures captured, not raised).

    A single run always executes in this process; the Trainer's
    prewarm scout still batches where it can (it replays the run,
    trace-driven segments included, and simulates every distinct state
    in one vectorized call).  ``policy`` only contributes its
    ``timeout_s`` here.
    """
    return execute_spec(spec, policy.timeout_s if policy is not None else None)


def sweep(
    specs: Sequence[RunSpec],
    policy: ExecutionPolicy | None = None,
    *,
    cache: ResultCache | str | os.PathLike[str] | None = None,
    progress: ProgressFn | None = None,
    refresh: bool = False,
    journal: SweepJournal | str | os.PathLike[str] | None = None,
) -> list[RunRecord]:
    """Run many specs through a :class:`SweepRunner`.

    ``policy`` picks the backend (default: one batched lockstep call in
    this process); ``cache`` (a :class:`ResultCache` or a directory
    path) serves repeat specs from their content hash.  ``journal``
    (a :class:`SweepJournal` or a path) makes the sweep durable and
    resumable: records append as they land, SIGINT/SIGTERM drain
    in-flight work and raise :class:`SweepInterrupted`, and a re-run
    against the same journal re-executes only unresolved specs.
    """
    jrn: SweepJournal | None
    owns_journal = False
    if journal is None or isinstance(journal, SweepJournal):
        jrn = journal
    else:
        jrn = SweepJournal(journal)  # opened here, so closed here
        owns_journal = True
    runner = SweepRunner(
        policy=policy or ExecutionPolicy("batched"),
        cache=_as_cache(cache),
        progress=progress,
        refresh=refresh,
        journal=jrn,
    )
    try:
        with runner:
            return runner.run(list(specs))
    finally:
        if owns_journal and jrn is not None:
            jrn.close()


def shard_sweep(
    specs: Sequence[RunSpec],
    shard_dir: str | os.PathLike[str],
    policy: ExecutionPolicy | None = None,
    *,
    num_shards: int | None = None,
    worker: str | None = None,
    local_cache: ResultCache | str | os.PathLike[str] | None = None,
    ttl_s: float | None = None,
    wait: bool = True,
) -> MergeResult:
    """Join (or start) a distributed sweep over a shared directory.

    Publishes a :class:`ShardPlan` for ``specs`` into ``shard_dir`` if
    none exists (``num_shards`` defaults to one shard per worker-sized
    chunk of 16 specs), runs one :class:`ShardWorker` against it until
    every shard is done (``wait=True``) or until nothing is claimable,
    then merges.  Any number of hosts may call this concurrently with
    the same ``specs`` and ``shard_dir``; they share the work through
    lease claims and the shared result cache.  The returned
    :class:`MergeResult`'s ``records`` match a single-host
    :func:`sweep` over ``specs`` modulo wall-time fields.
    """
    from repro.distrib.lease import DEFAULT_TTL_S

    shards = (
        num_shards
        if num_shards is not None
        else max(1, (len(specs) + 15) // 16)
    )
    ShardPlan.build(list(specs), shards).publish(shard_dir)
    shard_worker = ShardWorker(
        shard_dir,
        worker=worker,
        policy=policy,
        local_cache=_as_cache(local_cache),
        ttl_s=ttl_s if ttl_s is not None else DEFAULT_TTL_S,
    )
    shard_worker.work(wait=wait)
    return merge_shard_dir(shard_dir)


def ensemble(
    spec: RunSpec | Sequence[RunSpec],
    n: int,
    policy: ExecutionPolicy | None = None,
    *,
    distribution: TraceDistribution | None = None,
    seed0: int = 0,
    cache: ResultCache | str | os.PathLike[str] | None = None,
    progress: ProgressFn | None = None,
    refresh: bool = False,
) -> EnsembleResult:
    """Monte-Carlo fault ensemble: N sampled traces per base spec.

    See :func:`repro.orchestrator.ensemble.run_ensemble`; this facade
    additionally accepts a cache directory path for ``cache``.
    """
    return run_ensemble(
        spec,
        n,
        policy,
        distribution=distribution,
        seed0=seed0,
        cache=_as_cache(cache),
        progress=progress,
        refresh=refresh,
    )

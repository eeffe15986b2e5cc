"""Two-tier result cache: fast local disk backed by the shared dir.

Both tiers are plain :class:`~repro.orchestrator.cache.ResultCache`
instances, so every entry — local or shared — carries the checksummed
envelope and the same corruption semantics: a damaged shared entry is
quarantined to ``*.corrupt`` *in the shared directory* (auditable by
every worker, reaped by ``repro cache gc``) and the lookup degrades to
a local hit or a recompute.  Nothing is ever served unchecksummed.

Reads go local → shared, populating the local tier on a shared hit so
hot specs stop paying shared-filesystem latency.  Writes go to both;
the shared write is retried with the sweep's
:class:`~repro.orchestrator.retry.RetryPolicy` backoff, and if the
shared directory stays unwritable the worker keeps going on its local
tier — a degraded cache must never fail a sweep that could otherwise
finish.
"""

from __future__ import annotations

import logging

from repro.orchestrator.fsio import with_io_retry
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.results import RunRecord
from repro.orchestrator.retry import RetryPolicy
from repro.orchestrator.spec import RunSpec

log = logging.getLogger(__name__)


class TieredResultCache:
    """A local :class:`ResultCache` in front of a shared one.

    Duck-type compatible with :class:`ResultCache` where the sweep
    runner is concerned (``get``/``put``).
    """

    def __init__(
        self,
        local: ResultCache,
        shared: ResultCache,
        *,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.local = local
        self.shared = shared
        self.retry = retry or RetryPolicy()

    def get(self, spec: RunSpec) -> RunRecord | None:
        record = self.local.get(spec)
        if record is not None:
            return record
        record = self.shared.get(spec)
        if record is not None:
            # promote so the next lookup skips the shared filesystem;
            # put() only stores ok records, which a hit always is
            self.local.put(record)
        return record

    def put(self, record: RunRecord) -> None:
        self.local.put(record)
        try:
            with_io_retry(
                lambda: self.shared.put(record),
                self.retry,
                what=f"sharing cache entry {record.spec_hash}",
            )
        except OSError as exc:
            # degraded, not fatal: the result is safe locally and in
            # the worker's journal; other workers just recompute
            log.warning("shared cache write failed, continuing: %s", exc)

"""Parallel sweep orchestration: declarative runs, pooled execution, caching.

The orchestrator treats simulated training runs as *data*: a
:class:`RunSpec` names one (scenario x mode x shape x seed) variant, a
:class:`SweepRunner` executes batches of them — serially or over a
process pool — and a :class:`ResultCache` keyed by the spec content
hash makes re-runs incremental.  The figure drivers in
``repro.experiments`` and the ``repro sweep`` CLI are both thin layers
over this package.

Fault tolerance rides along: a :class:`RetryPolicy` governs how
transient worker deaths re-run (deterministic exponential backoff),
poison specs that keep killing workers are bisected out and
quarantined, a :class:`SweepJournal` makes interrupted sweeps
resumable, and the cache checksums every entry so corruption is
quarantined, never served (see ``docs/failure-semantics.md``).
"""

from repro.orchestrator.cache import CacheAudit, ResultCache
from repro.orchestrator.export import (
    record_row,
    records_to_rows,
    write_csv,
    write_json,
)
from repro.orchestrator.ensemble import (
    EnsembleResult,
    EnsembleStats,
    TraceDistribution,
    percentile_nearest,
    run_ensemble,
    sample_specs,
)
from repro.orchestrator.faults import FaultPlan
from repro.orchestrator.journal import (
    JournalSchemaError,
    SweepJournal,
)
from repro.orchestrator.results import RunRecord, SweepError, result_metrics
from repro.orchestrator.retry import RetryPolicy
from repro.orchestrator.runner import (
    ExecutionPolicy,
    SweepInterrupted,
    SweepRunner,
    SweepTimeout,
    clear_quarantine,
    execute_spec,
    quarantine_spec,
    quarantined,
    quarantined_hashes,
    run_specs,
    run_specs_by,
)
from repro.orchestrator.spec import MODES, SPEC_SCHEMA_VERSION, RunSpec

__all__ = [
    "MODES",
    "SPEC_SCHEMA_VERSION",
    "CacheAudit",
    "EnsembleResult",
    "EnsembleStats",
    "ExecutionPolicy",
    "FaultPlan",
    "JournalSchemaError",
    "ResultCache",
    "RetryPolicy",
    "RunRecord",
    "RunSpec",
    "SweepError",
    "SweepInterrupted",
    "SweepJournal",
    "SweepRunner",
    "SweepTimeout",
    "clear_quarantine",
    "execute_spec",
    "quarantine_spec",
    "quarantined",
    "quarantined_hashes",
    "record_row",
    "records_to_rows",
    "result_metrics",
    "TraceDistribution",
    "percentile_nearest",
    "run_ensemble",
    "run_specs",
    "run_specs_by",
    "sample_specs",
    "write_csv",
    "write_json",
]

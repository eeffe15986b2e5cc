"""Sweep runner: in-process and pooled execution.

``execute_spec`` is the single entry point that turns a
:class:`RunSpec` into a :class:`RunRecord`; it is a module-level
function so a :class:`~concurrent.futures.ProcessPoolExecutor` can
pickle it to workers.  All exceptions are captured into the record
(``status="error"``), so one bad variant never takes down a sweep.

Execution backends (:class:`ExecutionPolicy`):

- ``backend="inline"`` (the default) — serial, in the calling process
  (no pickling, no worker import cost); each group (below) prices its
  runs' cache misses one window of iterations per vectorized
  :func:`~repro.pipeline.batched.simulate_many` call.
- ``backend="pool"`` — a process pool, submitted in chunks (one future
  per chunk of specs, not per spec) over a module-wide warm pool that
  is reused across sweep calls, so repeat sweeps stop paying per-spec
  pickle round-trips and per-call worker start-up.

On every backend, specs that step one dynamism trajectory
(:func:`_trajectory_key`; the rule, and what a group changes for
timeouts and interrupts, is in ``docs/failure-semantics.md``,
"Trajectory groups") run as one :class:`_SpecGroup`: an ensemble's
draws, and the Megatron, DeepSpeed and DynMo runs of one scenario,
shape and seed.  :meth:`SweepRunner.run` moves each group's members
next to each other, where its first spec stands, so one runner call or
one pool chunk runs them together, sharing a scenario, a recorded
scheme trajectory and an iteration cache, through
:func:`~repro.training.trainer.run_group`: every window, each member
decides, one call prices the union of their misses, and each member
folds.  Each still lands the record its solo run would.  Records come
back in the caller's order; progress and journal lines follow the
order of execution.

Fault tolerance (see ``docs/failure-semantics.md`` for the full
contract):

- **Retries** — a chunk whose worker dies (``BrokenProcessPool``) or
  whose plumbing hiccups (``OSError``) is re-run on a fresh pool per
  the policy's :class:`~repro.orchestrator.retry.RetryPolicy`, with
  deterministic exponential backoff.  Deterministic simulation errors
  are captured into records inside the worker and are never retried.
- **Poison-spec quarantine** — a chunk that keeps killing its worker
  is *bisected* on fresh pools (halves, then single specs) until the
  crash is pinned on specific specs.  Those specs are recorded
  ``status="crashed"`` with the worker's fate, and their hashes enter
  a process-wide quarantine so a repeated sweep skips them instead of
  re-killing workers.  Pool restarts are bounded by the policy's
  ``max_pool_restarts``; beyond the budget the runner degrades
  gracefully to the inline backend for the remaining work.
- **Journaling** — with a :class:`~repro.orchestrator.journal.SweepJournal`
  attached, every landed record is durably appended as it lands, and
  ``SIGINT``/``SIGTERM`` are trapped: in-flight futures are drained,
  an in-process group stops at its next iteration and lands none of
  its members, the journal is flushed, and the sweep exits by raising
  :class:`SweepInterrupted` (the CLI maps it to exit code 130).  A
  journal opened with ``resume=True`` serves already-finished specs
  without re-running them.

Per-run timeouts use an ``ITIMER_REAL`` alarm (``SIGALRM``) inside the
executing process for a spec alone, where available.  When the alarm
cannot be armed (no SIGALRM, or off the main thread), and for every
member of a group of two or more, the trainer checks the run's own
clock every iteration, so an over-budget run is still stopped
mid-flight and recorded as ``status="timeout"``.

The experiments package imports this module (the figure drivers build
their sweeps on top of it), so the heavy experiment imports happen
lazily inside the worker body to keep the import graph acyclic.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import math
import os
import signal
import threading
import time
import traceback
import warnings
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from types import FrameType
from typing import Any, Callable, Iterator, NoReturn, Sequence

from repro.cluster.memory import PlacementOOMError
from repro.orchestrator import faults
from repro.orchestrator.cache import CACHEABLE_STATUSES, ResultCache
from repro.orchestrator.journal import SweepJournal
from repro.orchestrator.results import RunRecord, result_metrics
from repro.orchestrator.retry import RetryPolicy
from repro.orchestrator.spec import MODES, RunSpec
from repro.training.trainer import (
    GroupMember,
    RunDeadlineExceeded,
    RunInterrupted,
    run_group,
)

#: execution backends an :class:`ExecutionPolicy` can name
BACKENDS = ("inline", "pool")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep's pending specs execute.

    - ``backend="inline"`` — serial, in the calling process;
    - ``backend="pool"`` — chunked submission over a warm process pool
      of ``workers`` (``None`` → all cores).

    ``timeout_s`` is the per-run wall-clock budget.  ``retry``
    governs how transient worker faults re-run; ``max_pool_restarts``
    bounds how many times a run may replace a broken pool before
    degrading to inline execution; ``chunk_size`` (pool only) overrides
    the automatic chunking, mostly for tests that need a specific chunk
    shape.
    """

    backend: str = "inline"
    workers: int | None = None
    timeout_s: float | None = None
    retry: RetryPolicy = RetryPolicy()
    max_pool_restarts: int = 8
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.workers is not None:
            if self.workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers}")
            if self.backend != "pool":
                raise ValueError(
                    f"workers only applies to backend='pool', "
                    f"not {self.backend!r}"
                )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )
        if self.chunk_size is not None:
            if self.chunk_size < 1:
                raise ValueError(
                    f"chunk_size must be >= 1, got {self.chunk_size}"
                )
            if self.backend != "pool":
                raise ValueError(
                    f"chunk_size only applies to backend='pool', "
                    f"not {self.backend!r}"
                )


class SweepTimeout(Exception):
    """Raised inside a worker when a run exceeds its time budget."""


class SweepInterrupted(RuntimeError):
    """A sweep stopped on SIGINT/SIGTERM after draining in-flight work.

    ``records`` holds everything that landed (and was journaled)
    before the stop; the rest of the grid is simply absent, so a
    journal resume re-runs exactly the missing specs.
    """

    def __init__(self, message: str, records: list[RunRecord]) -> None:
        super().__init__(message)
        self.records = records


# -- poison-spec quarantine --------------------------------------------------
# Spec hashes whose execution killed a worker, pinned by bisection (or
# reloaded from a journal's ``crashed`` records).  Process-wide so a
# repeated sweep in the same process skips them instead of re-killing
# workers; the journal persists them across processes.

_QUARANTINE: dict[str, str] = {}


def quarantine_spec(spec_hash: str, fate: str) -> None:
    """Mark ``spec_hash`` as poison; future sweeps skip it."""
    _QUARANTINE[spec_hash] = fate


def quarantined(spec_hash: str) -> str | None:
    """The recorded fate of a quarantined spec, or None."""
    return _QUARANTINE.get(spec_hash)


def quarantined_hashes() -> dict[str, str]:
    """Snapshot of the quarantine registry (hash → fate)."""
    return dict(_QUARANTINE)


def clear_quarantine() -> int:
    """Drop all quarantined hashes; returns how many were held."""
    n = len(_QUARANTINE)
    _QUARANTINE.clear()
    return n


@contextmanager
def _deadline(seconds: float | None) -> Iterator[bool]:
    """Arm a SIGALRM deadline; yields True when actually armed.

    The alarm only works on the main thread of a platform with
    ``SIGALRM``; callers use the yielded flag to know whether the
    budget must be enforced by a monotonic-clock deadline instead.
    """
    usable = bool(
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield False
        return

    def _handler(signum: int, frame: FrameType | None) -> None:
        raise SweepTimeout(f"exceeded {seconds:g}s budget")

    old = signal.signal(signal.SIGALRM, _handler)
    try:
        # armed inside the try: a budget that expires at once still
        # disarms and restores the old handler
        signal.setitimer(signal.ITIMER_REAL, seconds or 0.0)
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class _SpecGroup:
    """What consecutive specs that step one trajectory (equal
    :func:`_trajectory_key`) share within one runner call.

    A scheme's step never reads the cluster, the plan or the placement,
    so the group's first member builds the scenario once and records
    its scheme once (:class:`~repro.dynamics.base.ReplayScheme`),
    whatever the mode: the Tutel and Egeria baselines are schemes like
    any other.  Every member replays that trajectory in a fresh Trainer
    over the group's one iteration cache, and the members run through
    :func:`~repro.training.trainer.run_group` together, so each window
    of all of them is priced in one call.  The member whose build ran
    the setup carries it in its ``duration_s``; a setup that raises is
    that member's outcome, and the next member builds afresh.
    """

    def __init__(self) -> None:
        self.setup: Any = None
        self.replay: Any = None
        self.cache: OrderedDict[tuple[Any, ...], Any] = OrderedDict()

    def setup_and_scheme(self, spec: RunSpec) -> tuple[Any, Any]:
        """The shared scenario and the recording every member replays."""
        from repro.dynamics.base import ReplayScheme
        from repro.experiments.common import make_scheme

        if self.setup is None:
            setup, scheme = _spec_setup_and_scheme(spec)
            scheme = scheme or make_scheme(setup, spec.mode)
            self.replay = ReplayScheme(scheme, setup.iterations)
            # set last: a setup that raises leaves the group unbuilt
            self.setup = setup
        return self.setup, self.replay


#: the fields a run's trajectory never reads, each at its default: they
#: feed only the run's own Trainer, controller, placement, memory model
#: or job manager, and the iteration cache keys on the plan and the
#: placement grid
_MEMBER_FIELDS = {
    name: RunSpec.__dataclass_fields__[name].default
    for name in (
        "weight_by", "balance_cost", "repack", "repack_target",
        "repack_force", "placement", "cluster_events",
        "elastic_total_gpus", "memory_limit", "tag",
    )
}


def _trajectory_key(spec: RunSpec) -> RunSpec:
    """``spec`` with every field its trajectory never reads set to one
    fixed value: the :data:`_MEMBER_FIELDS`, and the mode when it steps
    the scenario's own scheme.  Specs with equal keys step one
    trajectory (:class:`_SpecGroup`); every other field, and any field
    added later, keeps specs apart."""
    from repro.experiments.common import SCENARIO_SCHEME_MODES

    mode = spec.mode
    if mode in SCENARIO_SCHEME_MODES:
        mode = SCENARIO_SCHEME_MODES[0]
    return dataclasses.replace(spec, mode=mode, **_MEMBER_FIELDS)


def _trajectory_order(specs: Sequence[RunSpec], positions: list[int]) -> list[int]:
    """``positions`` arranged group by group (:func:`_trajectory_key`),
    each group where its first spec stands."""
    groups: dict[RunSpec, list[int]] = {}
    for i in positions:
        groups.setdefault(_trajectory_key(specs[i]), []).append(i)
    return [i for group in groups.values() for i in group]


def _spec_groups(specs: Sequence[RunSpec]) -> Iterator[list[int]]:
    """Yield the positions of each run of consecutive specs that step
    one trajectory (:func:`_trajectory_key`), in order; a spec alone is
    a run of one."""
    run: list[int] = []
    last: RunSpec | None = None
    for j, spec in enumerate(specs):
        key = _trajectory_key(spec)
        if run and key != last:
            yield run
            run = []
        run.append(j)
        last = key
    if run:
        yield run


def _spec_setup_and_scheme(spec: RunSpec) -> tuple[Any, Any]:
    """The scenario a spec runs, and its static control when it asks
    for one (None: ``make_trainer`` builds the mode's scheme)."""
    # deferred: repro.experiments imports repro.orchestrator for the
    # figure drivers, so importing it at module level would be circular
    from repro.dynamics.base import StaticScheme
    from repro.experiments.common import build_scenario

    setup = build_scenario(
        spec.scenario,
        num_layers=spec.num_layers,
        pp_stages=spec.pp_stages,
        dp_ways=spec.dp_ways,
        iterations=spec.iterations,
        paper_scale=spec.paper_scale,
        seed=spec.seed,
        cluster=spec.cluster or None,
        precision=spec.precision,
        recompute=spec.recompute,
    )
    return setup, StaticScheme(setup.specs) if spec.static_scheme else None


def _spec_scenario_and_trainer(
    spec: RunSpec, group: _SpecGroup | None = None
) -> tuple[Any, Any]:
    """Build the scenario and (unrun) Trainer a spec describes, sharing
    ``group``'s scenario, recorded scheme and iteration cache."""
    from repro.cluster.events import ClusterEventTrace
    from repro.cluster.job_manager import ElasticJobManager
    from repro.experiments.common import make_trainer

    if spec.mode not in MODES:
        raise ValueError(f"unknown mode {spec.mode!r}; choose from {MODES}")
    events = (
        ClusterEventTrace.from_json(spec.cluster_events)
        if spec.cluster_events
        else None
    )
    setup, scheme = (
        _spec_setup_and_scheme(spec)
        if group is None
        else group.setup_and_scheme(spec)
    )
    job_manager = (
        ElasticJobManager(total_gpus=spec.elastic_total_gpus)
        if spec.elastic_total_gpus is not None
        else None
    )
    trainer = make_trainer(
        setup,
        mode=spec.mode,
        weight_by=spec.weight_by,
        repack=spec.repack,
        repack_target=spec.repack_target,
        repack_force=spec.repack_force,
        schedule=spec.schedule,
        scheme=scheme,
        job_manager=job_manager,
        balance_cost=spec.balance_cost,
        placement=spec.placement,
        cluster_events=events,
        memory_limit=spec.memory_limit or None,
        cache=group.cache if group is not None else None,
    )
    return setup, trainer


def _error_record(spec: RunSpec, exc: BaseException, duration: float = 0.0) -> RunRecord:
    trace = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8)
    )
    return RunRecord(
        spec=spec,
        spec_hash=spec.spec_hash,
        status="error",
        duration_s=duration,
        error=f"{type(exc).__name__}: {exc}\n{trace}",
        error_type=type(exc).__name__,
    )


def _oom_record(
    spec: RunSpec, exc: PlacementOOMError, duration: float = 0.0
) -> RunRecord:
    """A deterministic memory rejection: cacheable, with full reports.

    Unlike ``error`` records, the per-stage accounting that caused the
    rejection lands in ``metrics`` — the fig-maxmodel experiment and
    ``--memory-limit`` sweeps read it to say *why* a cell is OOM.
    """
    return RunRecord(
        spec=spec,
        spec_hash=spec.spec_hash,
        status="oom",
        duration_s=duration,
        error=str(exc),
        error_type="PlacementOOMError",
        metrics={
            "oom_context": str(exc.context),
            "stage_reports": [r.as_dict() for r in exc.reports],
        },
    )


def _timeout_record(spec: RunSpec, message: str, duration: float) -> RunRecord:
    return RunRecord(
        spec=spec,
        spec_hash=spec.spec_hash,
        status="timeout",
        duration_s=duration,
        error=message,
        error_type="SweepTimeout",
    )


def _crashed_record(spec: RunSpec, fate: str, duration: float = 0.0) -> RunRecord:
    return RunRecord(
        spec=spec,
        spec_hash=spec.spec_hash,
        status="crashed",
        duration_s=duration,
        error=fate,
        error_type="WorkerCrashed",
    )


def _outcome_record(
    spec: RunSpec,
    outcome: Any,
    duration: float,
    setup: Any = None,
    budget_s: float | None = None,
) -> RunRecord:
    """The record a run lands: its exception's, or an ``ok`` record of
    its :class:`~repro.training.trainer.TrainingResult`."""
    if isinstance(outcome, (SweepTimeout, RunDeadlineExceeded)):
        return _timeout_record(spec, str(outcome), duration)
    if isinstance(outcome, PlacementOOMError):
        return _oom_record(spec, outcome, duration)
    if isinstance(outcome, BaseException):
        return _error_record(spec, outcome, duration)
    if budget_s and duration > budget_s:
        # backstop for budgets blown inside a single iteration, a build
        # or a pricing call, where no deadline check ran
        return _timeout_record(
            spec,
            f"exceeded {budget_s:g}s budget "
            f"(detected post-hoc: ran {duration:.1f}s)",
            duration,
        )
    try:
        metrics = result_metrics(outcome)
    except Exception as exc:
        return _error_record(spec, exc, duration)
    # effective shape (build_scenario may widen the pipeline, e.g. MoE)
    metrics["effective_pp_stages"] = setup.pp_stages
    metrics["effective_dp_ways"] = setup.dp_ways
    metrics["rebalance_every"] = setup.rebalance_every
    return RunRecord(
        spec=spec,
        spec_hash=spec.spec_hash,
        status="ok",
        duration_s=duration,
        metrics=metrics,
    )


def _execute_group(
    specs: Sequence[RunSpec],
    budget_s: float | None,
    stop: threading.Event | None = None,
) -> list[RunRecord]:
    """Build each spec's Trainer in order, run them all through
    :func:`~repro.training.trainer.run_group`, and return one record
    per spec.

    Two or more specs share a :class:`_SpecGroup`.  A member whose
    build raises lands that failure and leaves; the others run on.
    ``budget_s`` bounds each member's clock (its build, its own steps
    and its lanes' share of each pricing call), which is also its
    ``duration_s``.  Once ``stop`` is set, the group ends at its next
    iteration by raising
    :class:`~repro.training.trainer.RunInterrupted`: no member has a
    record.
    """
    group = _SpecGroup() if len(specs) > 1 else None
    records: dict[int, RunRecord] = {}
    built: list[tuple[int, Any, GroupMember]] = []
    for j, spec in enumerate(specs):
        faults.on_spec_execute(spec.spec_hash)
        start = time.perf_counter()
        try:
            setup, trainer = _spec_scenario_and_trainer(spec, group)
        except Exception as exc:
            records[j] = _outcome_record(spec, exc, time.perf_counter() - start)
            continue
        built.append((j, setup, GroupMember(trainer, time.perf_counter() - start)))
    run_group([member for _, _, member in built], budget_s=budget_s, stop=stop)
    for j, setup, member in built:
        records[j] = _outcome_record(
            specs[j], member.outcome, member.clock, setup, budget_s
        )
    return [records[j] for j in range(len(specs))]


def execute_spec(
    spec: RunSpec,
    timeout_s: float | None = None,
    stop: threading.Event | None = None,
) -> RunRecord:
    """Run one spec alone, capturing any failure into the returned record.

    Once ``stop`` is set, the run ends at its next iteration by raising
    :class:`~repro.training.trainer.RunInterrupted`: an interrupted run
    has no record.
    """
    start = time.perf_counter()
    try:
        with _deadline(timeout_s) as armed:
            # when the alarm cannot arm (off the main thread, or no
            # SIGALRM — e.g. shard-worker mode) the trainer enforces
            # the budget itself with clock checks between iterations,
            # so over-budget runs still stop mid-flight
            [record] = _execute_group([spec], None if armed else timeout_s, stop)
    except SweepTimeout as exc:
        return _timeout_record(spec, str(exc), time.perf_counter() - start)
    return record


def _execute_specs(
    specs: Sequence[RunSpec],
    timeout_s: float | None,
    stop: threading.Event | None = None,
) -> list[RunRecord]:
    """Run one group of :func:`_spec_groups`: a spec alone under its
    exact alarm (:func:`execute_spec`), two or more together, each
    member's budget checked on its own clock."""
    if len(specs) == 1:
        return [execute_spec(specs[0], timeout_s, stop)]
    return _execute_group(specs, timeout_s, stop)


def _execute_chunk(
    specs: list[RunSpec],
    timeout_s: float | None,
    fault_plan: faults.FaultPlan | None = None,
    owner_pid: int | None = None,
) -> list[RunRecord]:
    """Worker body for pooled execution: one pickle round-trip per chunk.

    A fault plan installed in the orchestrator travels with the chunk
    so injected worker kills fire here, in the worker.  The chunk's
    specs run one group at a time (:func:`_spec_groups`).
    """
    if fault_plan is not None:
        faults.install(fault_plan, owner_pid)
    try:
        faults.on_chunk_start()
        return [
            record
            for run in _spec_groups(specs)
            for record in _execute_specs([specs[j] for j in run], timeout_s)
        ]
    finally:
        if fault_plan is not None:
            faults.uninstall()


# -- warm worker pools -------------------------------------------------------
# One module-wide pool per worker count, reused across SweepRunner
# instances and sweep calls: repeat sweeps (figure drivers, notebook
# loops) pay interpreter start-up and imports once per process, not
# once per call.  SweepRunner.close() detaches; the pools are shut
# down at interpreter exit.

_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(workers)
    if pool is None:
        # A forked worker inherits this process's discarded pools, whose
        # shutdown locks another thread may hold at fork time.  Freezing
        # everything it inherits keeps the worker's garbage collector
        # from running their weakref callbacks, which take that lock and
        # would wait forever.
        pool = ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)
        _SHARED_POOLS[workers] = pool
    return pool


def _discard_shared_pool(workers: int) -> None:
    pool = _SHARED_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_shared_pools() -> None:
    for workers in list(_SHARED_POOLS):
        _discard_shared_pool(workers)


ProgressFn = Callable[[int, int, RunRecord], None]
_LandFn = Callable[[int, RunRecord], None]


@dataclass
class _RunState:
    """Per-``run()`` bookkeeping shared by the backend methods."""

    specs: Sequence[RunSpec]
    records: list[RunRecord | None]
    land: _LandFn
    stop: threading.Event
    restarts: int = 0
    degraded: bool = False

    def partial(self) -> list[RunRecord]:
        return [r for r in self.records if r is not None]


class SweepRunner:
    """Executes RunSpecs, serving repeats from cache and misses from an
    execution backend.

    The backend is named by an :class:`ExecutionPolicy`: ``"inline"``
    runs the specs in this process, one group (:func:`_spec_groups`) at
    a time, ``"pool"`` fans chunks of specs out over a warm process
    pool.  Either way the pending specs run group by group
    (:func:`_trajectory_order`); results come back in spec order
    regardless of execution or completion order.

    With a :class:`~repro.orchestrator.journal.SweepJournal` attached,
    every landed record is durably appended, SIGINT/SIGTERM drain
    in-flight work (an in-process group stops at its next iteration and
    lands none of its members) and raise :class:`SweepInterrupted`, and
    specs the journal already resolved (``ok`` or quarantined
    ``crashed``) are served without re-running.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        progress: ProgressFn | None = None,
        refresh: bool = False,
        policy: ExecutionPolicy | None = None,
        journal: SweepJournal | None = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.cache = cache
        self.progress = progress
        self.journal = journal
        # refresh: skip cache reads but still write results through, so
        # a forced re-run replaces stale entries instead of orphaning them
        self.refresh = refresh
        self._pool: ProcessPoolExecutor | None = None
        self._progress_broken = False

    @property
    def _workers(self) -> int:
        """The pool's worker count: the policy's, or every core."""
        return self.policy.workers or os.cpu_count() or 1

    def close(self) -> None:
        """Detach from the warm worker pool (idempotent).

        The pool itself stays warm for the next sweep call; it is shut
        down at interpreter exit (or explicitly discarded when broken).
        """
        self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- progress ------------------------------------------------------------
    def _emit_progress(self, done: int, total: int, record: RunRecord) -> None:
        """Call the user's progress callback, disarming it if it raises.

        A broken callback must not abort a sweep mid-flight with
        records unwritten — progress is advisory, records are not.
        """
        if self.progress is None or self._progress_broken:
            return
        try:
            self.progress(done, total, record)
        except Exception as exc:
            self._progress_broken = True
            warnings.warn(
                f"progress callback raised {type(exc).__name__}: {exc}; "
                "progress reporting disabled for the rest of this runner's "
                "sweeps (records are unaffected)",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- interrupt handling --------------------------------------------------
    @contextmanager
    def _trap_signals(self, stop: threading.Event) -> Iterator[bool]:
        """Trap SIGINT/SIGTERM into ``stop`` while journaling.

        Only armed when a journal is attached (plain sweeps keep stock
        Ctrl-C semantics) and on the main thread (signal handlers
        cannot be installed elsewhere).
        """
        if self.journal is None or (
            threading.current_thread() is not threading.main_thread()
        ):
            yield False
            return

        def _handler(signum: int, frame: FrameType | None) -> None:
            stop.set()

        old_int = signal.signal(signal.SIGINT, _handler)
        old_term = signal.signal(signal.SIGTERM, _handler)
        try:
            yield True
        finally:
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)

    def _interrupt(self, state: _RunState) -> NoReturn:
        """Raise :class:`SweepInterrupted` with everything that landed."""
        done = state.partial()
        message = (
            f"sweep interrupted: {len(done)}/{len(state.specs)} record(s) "
            "landed and journaled"
        )
        if self.journal is not None:
            message += f"; resume with --resume {self.journal.path}"
        raise SweepInterrupted(message, done)

    def _maybe_interrupt(self, state: _RunState) -> None:
        if state.stop.is_set():
            self._interrupt(state)

    # -- main entry ----------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        records: list[RunRecord | None] = [None] * len(specs)
        done = 0
        stop = threading.Event()

        def finish(i: int, record: RunRecord, persist: bool = True) -> None:
            nonlocal done
            records[i] = record
            done += 1
            if persist:
                if self.cache is not None and not record.cached:
                    self.cache.put(record)
                if self.journal is not None:
                    self.journal.append(record)
            self._emit_progress(done, len(specs), record)
            faults.on_record(done)

        pending: list[int] = []
        use_cache = self.cache is not None and not self.refresh
        for i, spec in enumerate(specs):
            hit = (
                self.cache.get(spec)
                if use_cache and self.cache is not None
                else None
            )
            if hit is not None:
                finish(i, hit)
            else:
                pending.append(i)

        # serve specs a resumed journal already resolved: finished runs
        # replay their journaled record, crashed runs re-enter quarantine
        if self.journal is not None and self.journal.prior and pending:
            remaining: list[int] = []
            for i in pending:
                prev = self.journal.prior.get(specs[i].spec_hash)
                if prev is not None and prev.status in CACHEABLE_STATUSES:
                    # ok and oom are both deterministic verdicts:
                    # an infeasible placement is infeasible every time
                    finish(i, dataclasses.replace(prev), persist=False)
                elif prev is not None and prev.status == "crashed":
                    quarantine_spec(
                        prev.spec_hash,
                        prev.error or "crashed in a previous sweep",
                    )
                    finish(i, dataclasses.replace(prev), persist=False)
                else:
                    remaining.append(i)
            pending = remaining

        # quarantined poison specs are skipped, not re-run: re-killing a
        # worker to rediscover a known-poison spec helps nobody
        if pending:
            remaining = []
            for i in pending:
                fate = quarantined(specs[i].spec_hash)
                if fate is not None:
                    finish(
                        i,
                        _crashed_record(
                            specs[i], f"quarantined poison spec: {fate}"
                        ),
                    )
                else:
                    remaining.append(i)
            pending = remaining

        # dedupe repeated specs: execute each distinct hash once and fan
        # the record out to every duplicate position (ensembles already
        # dedupe; plain sweeps deserve the same)
        first_of: dict[str, int] = {}
        dup_of: dict[int, list[int]] = {}
        uniq: list[int] = []
        for i in pending:
            h = specs[i].spec_hash
            if h in first_of:
                dup_of[first_of[h]].append(i)
            else:
                first_of[h] = i
                dup_of[i] = []
                uniq.append(i)
        pending = uniq

        def land(i: int, record: RunRecord) -> None:
            finish(i, record)
            for j in dup_of.get(i, ()):
                finish(j, dataclasses.replace(record), persist=False)

        if not pending:
            return [r for r in records if r is not None]

        # each group's members run next to each other, so every backend
        # sees them as one run of consecutive specs (_spec_groups)
        pending = _trajectory_order(specs, pending)

        state = _RunState(specs=specs, records=records, land=land, stop=stop)
        with self._trap_signals(stop):
            if self.policy.backend == "pool" and len(pending) > 1:
                self._run_pool(pending, state)
            else:
                self._run_inline(pending, state)
        return [r for r in records if r is not None]

    def _run_inline(self, indices: list[int], state: _RunState) -> None:
        """Run ``indices`` in this process, one group
        (:func:`_spec_groups`) at a time, landing one record per member.

        Once the stop event is set, the running group ends at its next
        iteration and lands none of its members (a resume re-runs
        exactly them), and :class:`SweepInterrupted` is raised.
        """
        for run in _spec_groups([state.specs[i] for i in indices]):
            self._maybe_interrupt(state)
            members = [indices[j] for j in run]
            try:
                records = _execute_specs(
                    [state.specs[i] for i in members],
                    self.policy.timeout_s,
                    state.stop,
                )
            except RunInterrupted:
                self._interrupt(state)
            for i, record in zip(members, records):
                state.land(i, record)

    # -- pooled execution with retry / bisection -----------------------------
    def _restart_pool(self, state: _RunState) -> None:
        """Replace a broken pool, degrading to inline past the budget."""
        _discard_shared_pool(self._workers)
        self._pool = None
        state.restarts += 1
        if state.restarts > self.policy.max_pool_restarts:
            if not state.degraded:
                state.degraded = True
                warnings.warn(
                    f"worker pool died {state.restarts} times "
                    f"(max_pool_restarts={self.policy.max_pool_restarts}); "
                    "degrading to inline execution for the remaining specs",
                    RuntimeWarning,
                    stacklevel=3,
                )
        else:
            self._pool = _shared_pool(self._workers)

    def _probe(self, indices: list[int], state: _RunState) -> list[RunRecord]:
        """Run ``indices`` as one chunk on the pool, synchronously."""
        if self._pool is None:
            self._pool = _shared_pool(self._workers)
        future = self._pool.submit(
            _execute_chunk,
            [state.specs[i] for i in indices],
            self.policy.timeout_s,
            faults.active(),
            os.getpid(),
        )
        return future.result()

    def _run_pool(self, pending: list[int], state: _RunState) -> None:
        if self._pool is None:
            self._pool = _shared_pool(self._workers)
        chunk_size = self.policy.chunk_size or max(
            1, math.ceil(len(pending) / (self._workers * 4))
        )
        chunks = [
            pending[at : at + chunk_size]
            for at in range(0, len(pending), chunk_size)
        ]
        # chunks travel with the active fault plan so injected worker
        # kills fire in the worker, never in this process
        plan, owner = faults.active(), os.getpid()
        futures: dict[Future[list[RunRecord]], list[int]] = {
            self._pool.submit(
                _execute_chunk,
                [state.specs[i] for i in chunk],
                self.policy.timeout_s,
                plan,
                owner,
            ): chunk
            for chunk in chunks
        }
        # chunks whose future raised a *retryable* fault (a dead worker
        # breaks every in-flight future, so innocent chunks land here
        # alongside the culprit); recovered after the first pass
        suspects: list[list[int]] = []
        processed: set[Future[list[RunRecord]]] = set()
        for future in as_completed(futures):
            processed.add(future)
            chunk = futures[future]
            try:
                chunk_records = future.result()
            except Exception as exc:
                if self.policy.retry.should_retry(exc):
                    suspects.append(chunk)
                    continue
                if isinstance(exc, BrokenProcessPool):
                    # not retried, but the dead worker broke the shared
                    # pool: a later run must start a fresh one
                    _discard_shared_pool(self._workers)
                    self._pool = None
                for i in chunk:
                    state.land(i, _error_record(state.specs[i], exc))
                continue
            for i, record in zip(chunk, chunk_records):
                state.land(i, record)
            if state.stop.is_set():
                self._drain(futures, processed, state)
                self._interrupt(state)
        if suspects:
            self._restart_pool(state)
            for chunk in suspects:
                self._maybe_interrupt(state)
                self._recover_chunk(chunk, state)

    def _drain(
        self,
        futures: dict[Future[list[RunRecord]], list[int]],
        processed: set[Future[list[RunRecord]]],
        state: _RunState,
    ) -> None:
        """On interrupt: cancel queued chunks, land the running ones.

        Chunks that raise a retryable fault while draining stay
        unrecorded — the journal simply lacks them, so a resume re-runs
        exactly those specs.
        """
        for future, chunk in futures.items():
            if future in processed or future.cancel():
                continue
            try:
                chunk_records = future.result()
            except Exception as exc:
                if not self.policy.retry.should_retry(exc):
                    for i in chunk:
                        state.land(i, _error_record(state.specs[i], exc))
                continue
            for i, record in zip(chunk, chunk_records):
                state.land(i, record)

    def _recover_chunk(self, chunk: list[int], state: _RunState) -> None:
        """Retry a transiently-failed chunk, then bisect what remains."""
        retry = self.policy.retry
        failures = 1  # the original pooled run
        while failures < retry.max_attempts and not state.degraded:
            faults.sleep(retry.delay_s(failures))
            self._maybe_interrupt(state)
            try:
                chunk_records = self._probe(chunk, state)
            except Exception as exc:
                if not retry.should_retry(exc):
                    for i in chunk:
                        state.land(i, _error_record(state.specs[i], exc))
                    return
                failures += 1
                self._restart_pool(state)
                continue
            for i, record in zip(chunk, chunk_records):
                state.land(i, record)
            return
        if state.degraded:
            self._run_inline(chunk, state)
            return
        self._bisect(chunk, state)

    def _bisect(self, suspects: list[int], state: _RunState) -> None:
        """Pin a persistent worker-killer on specific specs.

        Re-runs the suspect group on a fresh pool in halves, then
        singly; a single spec that still kills its worker is recorded
        ``status="crashed"`` and quarantined.  Specs in groups that
        execute cleanly land their real records — one poison spec in a
        chunk costs the chunk nothing but bisection probes.
        """
        stack: list[list[int]] = [list(suspects)]
        while stack:
            self._maybe_interrupt(state)
            group = stack.pop()
            if state.degraded:
                self._run_inline(group, state)
                continue
            try:
                group_records = self._probe(group, state)
            except Exception as exc:
                if not self.policy.retry.should_retry(exc):
                    for i in group:
                        state.land(i, _error_record(state.specs[i], exc))
                    continue
                self._restart_pool(state)
                if len(group) == 1:
                    i = group[0]
                    fate = (
                        "worker died executing this spec "
                        f"({type(exc).__name__}: {exc})"
                    )
                    quarantine_spec(state.specs[i].spec_hash, fate)
                    state.land(
                        i,
                        _crashed_record(
                            state.specs[i], f"{fate}; quarantined"
                        ),
                    )
                else:
                    mid = len(group) // 2
                    stack.append(group[mid:])
                    stack.append(group[:mid])  # popped (probed) first
                continue
            for i, record in zip(group, group_records):
                state.land(i, record)


def run_specs(
    specs: Sequence[RunSpec], runner: SweepRunner | None = None
) -> list[RunRecord]:
    """Run specs through ``runner``, defaulting to serial + uncached."""
    return (runner or SweepRunner()).run(specs)


def run_specs_by(
    specs: Sequence[RunSpec], runner: SweepRunner | None = None
) -> dict[RunSpec, RunRecord]:
    """Like :func:`run_specs`, keyed by spec for pairwise consumers."""
    return dict(zip(specs, run_specs(specs, runner)))

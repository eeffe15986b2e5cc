"""Monte-Carlo fault ensembles: throughput distributions under dynamism.

The paper's claim is about throughput *under dynamism*, and a single
trace is a single anecdote.  This module samples N seeded cluster-event
traces from the :class:`~repro.cluster.events.ClusterEventTrace`
generator, runs each as an ordinary :class:`RunSpec` (so content-hash
caching applies per sampled trace), and summarises the outcomes as
distributions:

- p50/p90/p99 iteration time (pooled recorded makespans) and
  tokens/sec percentiles across runs;
- a recovery-cost CDF over each run's elasticity overhead
  (migration pricing of failure/regrow transitions);
- a survivability curve: the fraction of runs still at their full
  stage count at each recorded iteration.

Execution defaults to the in-process ``inline`` backend.  A base
spec's draws differ only in their traces, so they step one trajectory
and the runner runs them as one group (with the draws of other bases
that differ from it only in a mode that steps the scenario's own
scheme; the rule is in ``docs/failure-semantics.md``, "Trajectory
groups"): one scenario, one scheme stepped once into a recorded
trajectory, and one iteration cache.  Every draw is a fresh Trainer
that replays the trajectory, and the draws run window by window
together (:func:`~repro.training.trainer.run_group`): each decides the
window in turn, one vectorized call prices the union of their cache
misses, and each folds.  Trace-driven runs are piecewise static, so a
window batches segment by segment, and a draw reuses earlier draws'
prices up to its first event.  Each draw lands the record its solo run
would.  Percentiles use the deterministic nearest-rank definition, so
summaries are bit-identical across the inline and pool backends and
across cached re-runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.cluster.events import ClusterEventTrace
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.results import RunRecord
from repro.orchestrator.journal import SweepJournal
from repro.orchestrator.runner import ExecutionPolicy, ProgressFn, SweepRunner
from repro.orchestrator.spec import RunSpec


@dataclass(frozen=True)
class TraceDistribution:
    """Parameters of the seeded trace generator, minus the seed.

    ``num_ranks=0`` (the default) sizes the draw pool to the ranks the
    base spec actually runs on, ``pp_stages * dp_ways`` of its effective
    shape (:func:`~repro.experiments.common.effective_shape`: MoE widens
    to 16 stages, ``paper_scale`` picks the paper's grid), at sampling
    time; events are drawn over the effective iteration count too.  All
    other fields mirror :meth:`ClusterEventTrace.generate`.
    """

    num_ranks: int = 0
    failure_rate: float = 0.01
    straggler_rate: float = 0.02
    preemption_rate: float = 0.0
    recover_after: int = 40
    straggler_duration: int = 20
    straggler_slowdown: float = 2.0

    def sample(self, iterations: int, num_ranks: int, seed: int) -> ClusterEventTrace:
        """Draw one deterministic trace for ``seed``."""
        return ClusterEventTrace.generate(
            iterations=iterations,
            num_ranks=self.num_ranks or num_ranks,
            seed=seed,
            failure_rate=self.failure_rate,
            straggler_rate=self.straggler_rate,
            preemption_rate=self.preemption_rate,
            recover_after=self.recover_after,
            straggler_duration=self.straggler_duration,
            straggler_slowdown=self.straggler_slowdown,
        )


def percentile_nearest(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation).

    Picks an actual sample — the ``ceil(q/100 * n)``-th smallest — so
    the result is bit-stable across execution backends as long as the
    samples are (interpolated percentiles would still be deterministic,
    but an actual sample is also directly attributable to one run).
    """
    vals = sorted(float(v) for v in values)
    if not vals:
        return float("nan")
    k = max(1, math.ceil(q / 100.0 * len(vals)))
    return vals[min(k, len(vals)) - 1]


def sample_specs(
    base: RunSpec,
    n: int,
    distribution: TraceDistribution | None = None,
    seed0: int = 0,
) -> list[RunSpec]:
    """One spec per sampled trace: draw ``i`` uses trace seed ``seed0+i``.

    The dynamism seed stays the base spec's — the ensemble isolates
    cluster variability.  Draws whose trace comes up empty collapse to
    the identical event-free spec (same content hash), so they cost one
    execution regardless of how many there are.
    """
    # deferred: repro.experiments imports repro.orchestrator for the
    # figure drivers, so importing it at module level would be circular
    from repro.experiments.common import effective_shape

    if n <= 0:
        raise ValueError(f"ensemble size must be positive, got {n}")
    dist = distribution or TraceDistribution()
    stages, dp_ways, iterations = effective_shape(
        base.scenario, base.pp_stages, base.dp_ways, base.iterations, base.paper_scale
    )
    ranks = stages * dp_ways
    specs: list[RunSpec] = []
    for i in range(n):
        trace = dist.sample(iterations, ranks, seed0 + i)
        specs.append(base.with_(cluster_events=trace.to_json() if trace else ""))
    return specs


@dataclass
class EnsembleStats:
    """Distribution summary for one base spec's N draws."""

    label: str
    draws: int
    unique: int
    ok: int
    failed: int
    events_mean: float
    tokens_per_s_p50: float
    tokens_per_s_p90: float
    tokens_per_s_p99: float
    iter_time_p50: float
    iter_time_p90: float
    iter_time_p99: float
    #: sorted (overhead_s, fraction of runs <= overhead_s) CDF points
    recovery_cost_cdf: list[tuple[float, float]] = field(default_factory=list)
    #: (iteration, fraction of runs at their full stage count)
    survivability: list[tuple[int, float]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["recovery_cost_cdf"] = [[float(v), float(p)] for v, p in self.recovery_cost_cdf]
        d["survivability"] = [[int(k), float(p)] for k, p in self.survivability]
        return d

    def row(self) -> dict[str, Any]:
        """Flat scalar row for the CLI table / CSV."""
        surv_end = self.survivability[-1][1] if self.survivability else float("nan")
        return {
            "group": self.label,
            "draws": self.draws,
            "unique": self.unique,
            "ok": self.ok,
            "events_mean": round(self.events_mean, 2),
            "iter_p50_ms": round(self.iter_time_p50 * 1e3, 3),
            "iter_p99_ms": round(self.iter_time_p99 * 1e3, 3),
            "tok_s_p50": round(self.tokens_per_s_p50, 1),
            "tok_s_p99": round(self.tokens_per_s_p99, 1),
            "surv_final": round(surv_end, 3),
        }


@dataclass
class EnsembleResult:
    """Everything one ensemble run produced.

    ``records`` holds one record per *unique* spec (what executed /
    came from cache); per-draw consumption happens through ``stats``,
    which weights duplicate draws correctly.
    """

    n: int
    seed0: int
    stats: list[EnsembleStats]
    records: list[RunRecord]
    num_unique: int
    num_cached: int

    @property
    def full_cache_hit(self) -> bool:
        return self.num_unique > 0 and self.num_cached == self.num_unique

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "seed0": self.seed0,
            "num_unique": self.num_unique,
            "num_cached": self.num_cached,
            "groups": [s.to_dict() for s in self.stats],
        }


def _group_stats(
    label: str, per_draw: list[RunRecord], full_stages_fallback: int
) -> EnsembleStats:
    ok = [r for r in per_draw if r.ok]
    tokens = [r.metrics["tokens_per_s"] for r in ok]
    makespans = [
        float(m) for r in ok for _, m in r.metrics.get("makespan_history", [])
    ]
    overheads = sorted(float(r.metrics.get("overhead_s", 0.0)) for r in ok)
    n_ok = len(ok)
    cdf = [(v, (i + 1) / n_ok) for i, v in enumerate(overheads)]
    events_mean = (
        sum(len(r.metrics.get("cluster_events_applied", [])) for r in ok) / n_ok
        if n_ok
        else 0.0
    )

    # survivability: step-fill each run's stage-count history onto the
    # union grid of recorded iterations (runs share iterations and
    # record cadence, so grids align; the union is belt and braces)
    grid = sorted(
        {int(k) for r in ok for k, _ in r.metrics.get("stage_count_history", [])}
    )
    surv: list[tuple[int, float]] = []
    if grid and n_ok:
        full = int(
            ok[0].metrics.get("effective_pp_stages", full_stages_fallback)
        )
        histories: list[list[tuple[int, int]]] = []
        for r in ok:
            hist = [(int(k), int(s)) for k, s in r.metrics["stage_count_history"]]
            histories.append(hist)
        for k in grid:
            alive = 0
            for hist in histories:
                s = hist[0][1]
                for kk, ss in hist:
                    if kk > k:
                        break
                    s = ss
                alive += s >= full
            surv.append((k, alive / n_ok))

    return EnsembleStats(
        label=label,
        draws=len(per_draw),
        unique=len({r.spec_hash for r in per_draw}),
        ok=n_ok,
        failed=len(per_draw) - n_ok,
        events_mean=events_mean,
        tokens_per_s_p50=percentile_nearest(tokens, 50),
        tokens_per_s_p90=percentile_nearest(tokens, 90),
        tokens_per_s_p99=percentile_nearest(tokens, 99),
        iter_time_p50=percentile_nearest(makespans, 50),
        iter_time_p90=percentile_nearest(makespans, 90),
        iter_time_p99=percentile_nearest(makespans, 99),
        recovery_cost_cdf=cdf,
        survivability=surv,
    )


def run_ensemble(
    bases: RunSpec | Sequence[RunSpec],
    n: int,
    policy: ExecutionPolicy | None = None,
    *,
    distribution: TraceDistribution | None = None,
    seed0: int = 0,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
    refresh: bool = False,
    journal: SweepJournal | None = None,
) -> EnsembleResult:
    """Sample N traces per base spec, run them, summarise distributions.

    Draws are deduplicated by spec content hash before execution (empty
    traces collapse into one event-free run), executed through a
    :class:`SweepRunner` — in this process by default — and
    fanned back out so duplicate draws weight the statistics exactly
    once per draw.  A base spec's draws step one trajectory, so the
    runner runs them as one group sharing a scenario, a recorded scheme
    trajectory and an iteration cache, and pricing each window of all
    its draws in one call; the first draw's ``duration_s`` carries that
    setup.  ``journal`` makes the underlying sweep durable and
    resumable, exactly as in :meth:`SweepRunner.run`.
    """
    base_list = [bases] if isinstance(bases, RunSpec) else list(bases)
    if not base_list:
        raise ValueError("run_ensemble needs at least one base spec")

    draws: list[tuple[int, RunSpec]] = []
    unique: dict[str, RunSpec] = {}
    for g, base in enumerate(base_list):
        for spec in sample_specs(base, n, distribution, seed0):
            draws.append((g, spec))
            unique.setdefault(spec.spec_hash, spec)

    specs = list(unique.values())
    runner = SweepRunner(
        policy=policy,
        cache=cache,
        progress=progress,
        refresh=refresh,
        journal=journal,
    )
    with runner:
        records = runner.run(specs)
    by_hash = {r.spec_hash: r for r in records}

    stats: list[EnsembleStats] = []
    for g, base in enumerate(base_list):
        label = f"{base.scenario}/{base.mode}/{base.schedule}"
        per_draw = [by_hash[spec.spec_hash] for gg, spec in draws if gg == g]
        stats.append(_group_stats(label, per_draw, base.pp_stages))

    return EnsembleResult(
        n=n,
        seed0=seed0,
        stats=stats,
        records=records,
        num_unique=len(specs),
        num_cached=sum(r.cached for r in records),
    )

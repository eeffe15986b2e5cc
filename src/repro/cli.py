"""Command-line interface for the reproduction experiments.

    python -m repro.cli fig1 --layers 24
    python -m repro.cli fig3 --scenario pruning --layers 24 48
    python -m repro.cli fig4 --scenario pruning
    python -m repro.cli overhead
    python -m repro.cli gantt --scenario early_exit --balanced
    python -m repro.cli sweep --mode megatron dynmo-partition --jobs 8
    python -m repro.cli sweep --journal run.jsonl   # Ctrl-C safe
    python -m repro.cli sweep --resume run.jsonl    # finish the rest
    python -m repro.cli cache verify

Every sub-command prints the reproduced table; ``sweep --paper-scale``
switches to the paper's full 16/24-stage pipelines (slow).  ``sweep``
fans the full (scenario x mode x depth x seed) grid out over a
process pool and caches results on disk keyed by each run's content
hash — re-running a sweep only executes changed variants.
``--no-cache`` forces every run to execute (cache entries are still
refreshed on the way out).  ``--journal``/``--resume`` make long
sweeps interruption-safe (see ``docs/failure-semantics.md``), and
``cache verify|gc|stats`` audits the checksummed result cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Any, Callable

from repro.cluster.topology import parse_cluster
from repro.experiments import (
    SCENARIOS,
    ascii_table,
    run_figure1,
    run_figure3_scenario,
    run_figure4_repacking,
    run_overhead_table,
)
from repro.experiments.common import check_depth, effective_shape, parse_memory_limit
from repro.experiments.maxmodel import cell_stages, check_maxmodel_depths
from repro.orchestrator import (
    MODES,
    ExecutionPolicy,
    JournalSchemaError,
    ResultCache,
    RetryPolicy,
    RunSpec,
    SweepInterrupted,
    SweepJournal,
    SweepRunner,
    records_to_rows,
    write_csv,
    write_json,
)

DEFAULT_CACHE_DIR = ".repro-cache"


# -- argument types: reject bad values while parsing, before any runner,
# cache or pool exists (argparse names the flag and exits 2) -------------


def _number(
    kind: type, low: float, strict: bool, high: float | None = None
) -> Callable[[str], Any]:
    """A ``kind`` number above ``low`` (or equal to it unless ``strict``)
    and, given ``high``, at most ``high``; NaN is neither."""
    bound = f"{'>' if strict else '>='} {low:g}"
    if high is not None:
        bound = f"in [{low:g}, {high:g}]"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} {bound}, got {text!r}"
            ) from None
        if not (value > low if strict else value >= low) or (
            high is not None and not value <= high
        ):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_positive_int = _number(int, 0, strict=True)
_non_negative_int = _number(int, 0, strict=False)
_positive_float = _number(float, 0.0, strict=True)
_non_negative_float = _number(float, 0.0, strict=False)
#: a per-iteration event probability
_rate = _number(float, 0.0, strict=False, high=1.0)
#: an op-time factor on a straggling rank
_slowdown = _number(float, 1.0, strict=False)


def _cluster_spec(text: str) -> str:
    """A ``parse_cluster`` spec, returned unchanged ("" = auto-sized)."""
    if text:
        try:
            parse_cluster(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _memory_limit(text: str) -> str:
    """A ``parse_memory_limit`` value, returned unchanged ("" = none)."""
    try:
        parse_memory_limit(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=_positive_int, nargs="+", default=[24])
    p.add_argument("--stages", type=_positive_int, default=8)
    p.add_argument("--dp", type=_positive_int, default=1)
    p.add_argument("--iterations", type=_positive_int, default=150)


def _add_runner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=_non_negative_int, default=1,
        help="0 or 1 = run in this process (the inline backend), each "
             "run pricing its cache misses a window of iterations per "
             "vectorized call, and runs that step one dynamism "
             "trajectory (an ensemble's draws; the Megatron, DeepSpeed "
             "and DynMo runs of one scenario, shape and seed) sharing "
             "one scenario, one recording and one call per window, see "
             "docs/failure-semantics.md; N>1 = process pool with N "
             "workers, each chunk's groups shared alike "
             "(default: 1, all cores for sweep)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="serve identical runs from this result cache directory",
    )
    p.add_argument("--timeout", type=_positive_float, default=None, metavar="SECONDS",
                   help="per-run wall-clock budget, fractions of a second "
                        "included (sweep records over-budget runs as "
                        "failed rows; figure commands abort on them)")
    _add_plan_flags(p)


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """The runner flags ``shard plan`` takes too: a spec field and the
    retry policy of the plan's publication."""
    p.add_argument(
        "--balance-cost", default="modeled", choices=["modeled", "measured"],
        help="charge the balancer's analytic (reproducible) or real "
             "wall-clock cost as overhead",
    )
    p.add_argument(
        "--retries", type=_positive_int, default=None, metavar="N",
        help="total attempts for chunks hit by transient worker faults "
             "(BrokenProcessPool/OSError); deterministic sim errors are "
             "never retried (default: 3)",
    )
    p.add_argument(
        "--retry-backoff", type=_non_negative_float, default=None, metavar="SECONDS",
        help="base backoff before the first retry, doubling per attempt "
             "(deterministic, no jitter; default: 0.05)",
    )


def _add_trace_flags(
    p: argparse.ArgumentParser,
    failure_rate: float,
    straggler_rate: float,
    recover_after: int,
) -> None:
    """The random trace generator's distribution (``ensemble``, ``events``)."""
    p.add_argument("--failure-rate", type=_rate, default=failure_rate,
                   help="per-iteration probability of one rank failing")
    p.add_argument("--straggler-rate", type=_rate, default=straggler_rate,
                   help="per-iteration probability of a straggler window opening")
    p.add_argument("--preemption-rate", type=_rate, default=0.0,
                   help="per-iteration probability of one rank being preempted")
    p.add_argument("--recover-after", type=_non_negative_int, default=recover_after,
                   metavar="ITERS",
                   help="schedule a recovery this many iterations after "
                        "each failure/preemption (0 = never recover)")
    p.add_argument("--straggler-duration", type=_positive_int, default=20, metavar="ITERS")
    p.add_argument("--straggler-slowdown", type=_slowdown, default=2.0,
                   help="op-time factor on straggling ranks (>= 1.0)")


def _add_topology_flags(p: argparse.ArgumentParser, multi: bool = False) -> None:
    from repro.cluster.placement import PLACEMENT_STRATEGIES

    placements = list(PLACEMENT_STRATEGIES)
    if multi:
        p.add_argument(
            "--placement", nargs="+", default=["packed"], choices=placements,
            help="stage→rank placement strategies to sweep over",
        )
    else:
        p.add_argument(
            "--placement", default="packed", choices=placements,
            help="stage→rank placement strategy",
        )
    p.add_argument(
        "--cluster", type=_cluster_spec, default=None, metavar="SPEC",
        help="cluster topology spec, e.g. '4x4' or '2x8+2x4' for mixed "
             "node sizes (default: auto-sized homogeneous 4-GPU nodes)",
    )


def _add_memory_flags(p: argparse.ArgumentParser) -> None:
    """Memory/precision knobs shared by sweep, ensemble and fig-maxmodel."""
    p.add_argument(
        "--precision", default="mixed", choices=["mixed", "full"],
        help="parameter/optimizer byte accounting: 'mixed' (fp16 weights "
             "+ fp32 master, the legacy default) or 'full' (fp32 "
             "everywhere, no master copy); affects memory only, never "
             "timing",
    )
    p.add_argument(
        "--recompute", action="store_true",
        help="model activation recomputation: only one micro-batch of "
             "activations is ever resident (and the backward pass "
             "replays the forward, as ModelCost already charges)",
    )
    p.add_argument(
        "--memory-limit", type=_memory_limit, default="", metavar="BYTES|auto",
        help="enforce the per-stage memory model: 'auto' caps each stage "
             "at its placed ranks' own device capacity, a byte count "
             "like 40e9 caps every stage at that budget; runs that "
             "exceed it land as deterministic, cacheable status='oom' "
             "rows (default: no enforcement, bit-identical legacy "
             "accounting)",
    )


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """The sweep-grid axes shared by ``sweep`` and ``shard plan``."""
    p.add_argument("--scenario", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    p.add_argument(
        "--mode", nargs="+", default=["megatron", "dynmo-partition"], choices=MODES
    )
    p.add_argument("--seeds", type=_non_negative_int, nargs="+", default=[0])
    p.add_argument("--schedule", default="zb", choices=["gpipe", "1f1b", "zb"])
    _add_topology_flags(p, multi=True)
    p.add_argument(
        "--repack", action="store_true",
        help="enable DynMo re-packing (dynmo-* modes); rows record the "
             "surviving GPU ranks",
    )
    p.add_argument("--repack-target", type=_positive_int, default=1, metavar="N",
                   help="minimum worker count re-packing may shrink to")
    p.add_argument("--repack-force", action="store_true",
                   help="force packing to --repack-target regardless of load")
    p.add_argument(
        "--events", default=None, metavar="TRACE.json",
        help="apply a cluster-event trace (failures/stragglers/"
             "recoveries, see `repro events`) to every run; the trace "
             "content is hashed into each spec so caching stays sound",
    )
    p.add_argument(
        "--paper-scale", action="store_true",
        help="run the paper's full 16/24-stage, 10k-iteration grids (slow)",
    )
    _add_memory_flags(p)


def _policy_from_args(args) -> ExecutionPolicy:
    """``--jobs`` as a policy: 0 or 1 runs in this process, N > 1 on a
    pool of N workers, unset (sweep's default) on a pool of all cores."""
    if args.jobs is None or args.jobs > 1:
        policy = ExecutionPolicy("pool", workers=args.jobs, timeout_s=args.timeout)
    else:
        policy = ExecutionPolicy(timeout_s=args.timeout)
    retry = _retry_from_args(args)
    if retry is not None:
        policy = dataclasses.replace(policy, retry=retry)
    return policy


def _retry_from_args(args) -> RetryPolicy | None:
    """``--retries`` and ``--retry-backoff`` as a retry policy, or None
    (the default policy) when neither is given."""
    retries = getattr(args, "retries", None)
    backoff = getattr(args, "retry_backoff", None)
    if retries is None and backoff is None:
        return None
    return RetryPolicy(
        max_attempts=retries if retries is not None else 3,
        backoff_s=backoff if backoff is not None else 0.05,
    )


def _runner_from_args(args, progress=None, journal=None) -> SweepRunner:
    cache = ResultCache(args.cache_dir) if getattr(args, "cache_dir", None) else None
    return SweepRunner(
        policy=_policy_from_args(args),
        cache=cache,
        progress=progress,
        refresh=bool(getattr(args, "no_cache", False)),
        journal=journal,
    )


def cmd_fig1(args) -> int:
    with _runner_from_args(args) as runner:
        rows = run_figure1(
            scenarios=args.scenario,
            num_layers=args.layers[0],
            iterations=args.iterations,
            pp_stages=args.stages,
            balance_cost=args.balance_cost,
            runner=runner,
            placement=args.placement,
            cluster=args.cluster or "",
        )
    print(ascii_table(rows, title="Figure 1 — GPU idleness by dynamism type"))
    return 0


def cmd_fig3(args) -> int:
    rows = []
    with _runner_from_args(args) as runner:
        for scenario in args.scenario:
            for layers in args.layers:
                rows.append(
                    run_figure3_scenario(
                        scenario,
                        num_layers=layers,
                        pp_stages=args.stages,
                        dp_ways=args.dp,
                        iterations=args.iterations,
                        balance_cost=args.balance_cost,
                        runner=runner,
                        placement=args.placement,
                        cluster=args.cluster or "",
                    )
                )
    print(ascii_table(rows, title="Figure 3 — end-to-end throughput (tokens/sec)"))
    return 0


def cmd_fig4(args) -> int:
    with _runner_from_args(args) as runner:
        for scenario in args.scenario:
            rows = run_figure4_repacking(
                scenario,
                num_layers=args.layers[0],
                iterations=args.iterations,
                gpu_counts=tuple(args.gpus),
                balance_cost=args.balance_cost,
                runner=runner,
                placement=args.placement,
                cluster=args.cluster or "",
            )
            print(ascii_table(rows, title=f"Figure 4 — re-packing ({scenario})"))
    return 0


def cmd_overhead(args) -> int:
    with _runner_from_args(args) as runner:
        rows = run_overhead_table(
            scenarios=tuple(args.scenario),
            num_layers=args.layers[0],
            iterations=args.iterations,
            balance_cost=args.balance_cost,
            runner=runner,
            placement=args.placement,
            cluster=args.cluster or "",
        )
    print(ascii_table(rows, title="Figure 4 — load-balancing overhead"))
    return 0


def cmd_fig_maxmodel(args) -> int:
    from repro.experiments import run_fig_maxmodel

    with _runner_from_args(args) as runner:
        rows = run_fig_maxmodel(
            scenario=args.scenario[0],
            depths=tuple(args.depths),
            clusters=tuple(args.clusters),
            iterations=args.iterations,
            with_failure=not args.no_failure,
            precision=args.precision,
            recompute=args.recompute,
            memory_limit=args.memory_limit or "auto",
            schedule=args.schedule,
            balance_cost=args.balance_cost,
            runner=runner,
        )
    # flatten the per-depth cells into one status column per row
    table = []
    for row in rows:
        flat = {"cluster": row["cluster"], "gpus": row["gpus"],
                "max_layers": row["max_layers"]}
        if "max_layers_faulty" in row:
            flat["max_layers_faulty"] = row["max_layers_faulty"]
        for cell in row["cells"]:
            tag = f"L{cell['layers']}" + ("+fail" if cell["faulty"] else "")
            flat[tag] = f"{cell['status']} ({cell['peak_gib']:.1f} GiB)"
        table.append(flat)
    print(ascii_table(
        table,
        title="fig-maxmodel — max trainable depth per cluster shape",
    ))
    return 0


def _specs_from_args(args) -> list[RunSpec]:
    """Build the (scenario x mode x depth x seed x placement) grid."""
    events_json = ""
    if getattr(args, "events", None):
        from repro.cluster.events import ClusterEventTrace

        # canonical JSON of the trace *content* rides in every spec (and
        # so in its hash): cached results stay sound if the file changes
        try:
            trace = ClusterEventTrace.load(args.events)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--events {args.events}: {exc}") from None
        if trace:
            events_json = trace.to_json()
            counts = ", ".join(f"{v} {k}" for k, v in trace.summary().items() if v)
            print(f"cluster events: {len(trace)} from {args.events} ({counts})")
        else:
            # an empty trace is a no-op: keep the specs event-free so
            # they batch normally and share cache entries with plain runs
            print(f"cluster events: {args.events} is empty; running without events")
    return [
        RunSpec(
            scenario=scenario,
            mode=mode,
            num_layers=layers,
            pp_stages=args.stages,
            dp_ways=args.dp,
            iterations=args.iterations,
            seed=seed,
            schedule=args.schedule,
            balance_cost=args.balance_cost,
            paper_scale=args.paper_scale,
            placement=placement,
            cluster=args.cluster or "",
            repack=args.repack,
            repack_target=args.repack_target,
            repack_force=args.repack_force,
            cluster_events=events_json,
            precision=args.precision,
            recompute=args.recompute,
            memory_limit=args.memory_limit,
        )
        for scenario in args.scenario
        for mode in args.mode
        for layers in args.layers
        for seed in args.seeds
        for placement in args.placement
    ]


def _print_sweep_table(args, records, wall: float, jobs_label: str) -> int:
    rows = records_to_rows(records)
    columns = [
        "scenario", "mode", "num_layers", "seed", "spec_hash", "status",
        "cached", "tokens_per_s", "mean_bubble_ratio", "duration_s",
    ]
    if args.placement != ["packed"]:
        columns.insert(4, "placement")
    if args.repack:
        columns.append("surviving_ranks")
    if args.events:
        columns += ["events_applied", "final_num_stages"]
    print(ascii_table(rows, columns=columns, title="Sweep results"))
    n_ok = sum(r.ok for r in records)
    n_oom = sum(r.status == "oom" for r in records)
    n_failed = len(records) - n_ok - n_oom
    n_cached = sum(r.cached for r in records)
    # oom rows are deterministic verdicts, not failures: they appear in
    # the summary only when present (keeping the usual line stable) and
    # never fail the sweep's exit code
    oom_part = f"{n_oom} oom, " if n_oom else ""
    print(
        f"{len(records)} runs: {n_ok} ok, {oom_part}{n_failed} failed, "
        f"{n_cached} from cache, {wall:.1f}s wall, jobs={jobs_label}"
    )
    if args.json:
        print(f"wrote {write_json(records, args.json)}")
    if args.csv:
        print(f"wrote {write_csv(records, args.csv)}")
    return 0 if n_failed == 0 else 1


def cmd_sweep(args) -> int:
    specs = _specs_from_args(args)
    if args.shard_dir:
        return _sweep_sharded(args, specs)

    def progress(done: int, total: int, record) -> None:
        origin = "cache" if record.cached else f"{record.duration_s:.1f}s"
        print(
            f"[{done}/{total}] {record.status:<7} {record.spec.label:<40} "
            f"({origin})",
            flush=True,
        )

    journal_path = args.resume or args.journal
    try:
        journal = SweepJournal(journal_path) if journal_path else None
    except JournalSchemaError as exc:
        # resuming rows written under another spec schema would silently
        # reinterpret them; refuse with the journal's own explanation
        raise SystemExit(f"cannot resume: {exc}") from None
    if journal is not None and journal.prior:
        print(
            f"journal {journal_path}: {len(journal.prior)} prior record(s) "
            f"({', '.join(f'{v} {k}' for k, v in sorted(journal.statuses().items()))})"
        )

    t0 = time.perf_counter()
    try:
        with _runner_from_args(args, progress=progress, journal=journal) as runner:
            records = runner.run(specs)
    except SweepInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        return 130
    finally:
        if journal is not None:
            journal.close()
    wall = time.perf_counter() - t0
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    return _print_sweep_table(args, records, wall, str(jobs))


def _sweep_sharded(args, specs) -> int:
    """``repro sweep --shard-dir``: publish-if-absent, work, merge."""
    from repro.distrib import PlanError, ShardWorker, merge_shard_dir
    from repro.distrib.plan import join_or_publish

    policy = _policy_from_args(args)
    retry = policy.retry
    try:
        plan, published = join_or_publish(args.shard_dir, specs, args.shards, retry)
    except PlanError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"{'published' if published else 'joining'} plan {plan.plan_id} in "
        f"{args.shard_dir} ({len(plan)} specs / {len(plan.shards)} shards)"
    )
    local = ResultCache(args.cache_dir) if args.cache_dir else None
    worker = ShardWorker(
        args.shard_dir,
        worker=args.worker_id,
        policy=policy,
        local_cache=local,
        ttl_s=args.lease_ttl,
    )
    t0 = time.perf_counter()
    report = worker.work(wait=True)
    merged = merge_shard_dir(args.shard_dir, retry)
    wall = time.perf_counter() - t0
    print(
        f"worker {report.worker}: {len(report.shards_done)} shard(s) done, "
        f"{len(report.shards_stolen)} stolen, {report.records} record(s)"
    )
    if merged.missing:
        print(
            f"{len(merged.missing)} spec(s) still missing from "
            f"{args.shard_dir}; other workers may still be running",
            file=sys.stderr,
        )
    for conflict in merged.conflicts:
        print(
            f"CONFLICT {conflict.spec_hash} "
            f"({', '.join(conflict.workers)}): {conflict.detail}",
            file=sys.stderr,
        )
    code = _print_sweep_table(args, merged.records, wall, "shard")
    return code if merged.clean else 1


def cmd_ensemble(args) -> int:
    """Monte-Carlo fault ensemble over N sampled cluster-event traces."""
    from repro.orchestrator import TraceDistribution, run_ensemble

    dist = TraceDistribution(
        failure_rate=args.failure_rate,
        straggler_rate=args.straggler_rate,
        preemption_rate=args.preemption_rate,
        recover_after=args.recover_after,
        straggler_duration=args.straggler_duration,
        straggler_slowdown=args.straggler_slowdown,
    )
    bases = [
        RunSpec(
            scenario=scenario,
            mode=mode,
            num_layers=args.layers[0],
            pp_stages=args.stages,
            dp_ways=args.dp,
            iterations=args.iterations,
            schedule=args.schedule,
            balance_cost=args.balance_cost,
            placement=args.placement,
            cluster=args.cluster or "",
            precision=args.precision,
            recompute=args.recompute,
            memory_limit=args.memory_limit,
        )
        for scenario in args.scenario
        for mode in args.mode
    ]

    def progress(done: int, total: int, record) -> None:
        origin = "cache" if record.cached else f"{record.duration_s:.1f}s"
        print(
            f"[{done}/{total}] {record.status:<7} {record.spec.label:<40} "
            f"({origin})",
            flush=True,
        )

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    t0 = time.perf_counter()
    result = run_ensemble(
        bases,
        args.n,
        _policy_from_args(args),
        distribution=dist,
        seed0=args.trace_seed,
        cache=cache,
        progress=progress if args.verbose else None,
        refresh=bool(args.no_cache),
    )
    wall = time.perf_counter() - t0

    rows = [s.row() for s in result.stats]
    print(ascii_table(rows, title=f"Ensemble — {args.n} sampled traces per group"))
    n_failed = sum(s.failed for s in result.stats)
    hit = " (full cache hit)" if result.full_cache_hit else ""
    print(
        f"{len(bases)} groups x {args.n} draws -> {result.num_unique} unique "
        f"runs: {result.num_cached} from cache{hit}, {n_failed} failed, "
        f"{wall:.1f}s wall"
    )
    if args.json:
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0 if n_failed == 0 else 1


def cmd_events(args) -> int:
    """Generate a deterministic cluster-event trace file."""
    from repro.cluster.events import ClusterEvent, ClusterEventTrace

    if args.fail_at is None and args.recover_at is not None:
        raise SystemExit("--recover-at needs --fail-at")
    hand_written = (
        args.fail_at is not None
        or args.straggle_at is not None
        or bool(args.straggle_ranks)
    )
    if hand_written:
        events = []
        if args.fail_at is not None:
            events.append(
                ClusterEvent(args.fail_at, "failure", tuple(args.fail_ranks))
            )
            # no --recover-at = a permanent loss (fully supported)
            if args.recover_at is not None:
                if args.recover_at <= args.fail_at:
                    raise SystemExit("--recover-at must come after --fail-at")
                events.append(
                    ClusterEvent(
                        args.recover_at, "recovery", tuple(args.fail_ranks)
                    )
                )
        if args.straggle_at is not None and not args.straggle_ranks:
            raise SystemExit("--straggle-at needs --straggle-ranks")
        if args.straggle_ranks:
            at = args.straggle_at
            if at is None:
                if args.recover_at is None:
                    raise SystemExit("--straggle-ranks needs --straggle-at")
                at = args.recover_at + 1  # straggle right after the recovery
            events.append(
                ClusterEvent(
                    at,
                    "straggler",
                    tuple(args.straggle_ranks),
                    duration=args.straggler_duration,
                    slowdown=args.straggler_slowdown,
                )
            )
        trace = ClusterEventTrace(tuple(events))
    else:
        trace = ClusterEventTrace.generate(
            iterations=args.iterations,
            num_ranks=args.ranks,
            seed=args.seed,
            failure_rate=args.failure_rate,
            straggler_rate=args.straggler_rate,
            preemption_rate=args.preemption_rate,
            recover_after=args.recover_after,
            straggler_duration=args.straggler_duration,
            straggler_slowdown=args.straggler_slowdown,
        )
    counts = ", ".join(f"{v} {k}" for k, v in trace.summary().items() if v)
    print(f"{len(trace)} events ({counts or 'none'})")
    for e in trace.events:
        extra = (
            f" x{e.slowdown:g} for {e.duration} iters"
            if e.kind == "straggler"
            else ""
        )
        print(f"  iter {e.iteration:>5}  {e.kind:<10} ranks {list(e.ranks)}{extra}")
    if args.out:
        print(f"wrote {trace.save(args.out)}")
    return 0


def cmd_cache(args) -> int:
    """Result-cache maintenance: verify / gc / stats.

    ``verify`` audits every entry against its payload checksum and
    quarantines (renames to ``*.corrupt``) anything damaged; ``gc``
    additionally reaps stale-format entries, quarantined files, and
    orphaned ``*.tmp.*`` files from writers that died mid-write;
    ``stats`` is the same audit without touching anything.  Exit
    status is 1 when corrupt or quarantined entries remain — CI runs
    ``repro cache verify`` to assert a clean cache — and 2 when there is
    no cache directory at all (a mistyped path must not pass as a
    clean, empty cache).
    """
    if not os.path.isdir(args.cache_dir):
        print(f"no result cache at {args.cache_dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.action == "gc":
        audit = cache.gc(corrupt_age_s=args.corrupt_age)
    else:
        audit = {"verify": cache.verify, "stats": cache.stats}[args.action]()
    print(f"cache {args.cache_dir} ({args.action}):")
    for key, value in audit.to_dict().items():
        if key == "renamed":
            continue
        print(f"  {key:<12} {value}")
    for path in audit.renamed:
        print(f"  quarantined -> {path}")
    return 0 if audit.clean else 1


def cmd_shard(args) -> int:
    """Distributed sweeps over a shared directory: plan / work / merge / status."""
    import json as _json

    from repro.distrib import (
        PlanError,
        PlanMismatch,
        ShardPlan,
        ShardWorker,
        merge_shard_dir,
        shard_dir_status,
    )

    retry = _retry_from_args(args)
    if args.action == "plan":
        specs = _specs_from_args(args)
        plan = ShardPlan.build(specs, args.shards)
        try:
            plan.publish(args.shard_dir, retry)
        except PlanMismatch as exc:
            raise SystemExit(str(exc)) from None
        print(
            f"published plan {plan.plan_id} to {args.shard_dir}: "
            f"{len(plan)} specs / {len(plan.shards)} shards"
        )
        for shard in plan.shards:
            print(f"  {shard.shard_id}  {len(shard.specs)} spec(s)")
        return 0

    if args.action == "work":
        try:
            # read before anything is created: a mistyped --shard-dir
            # must leave no directory tree behind
            ShardPlan.load(args.shard_dir, retry)
        except PlanError as exc:
            raise SystemExit(str(exc)) from None
        local = ResultCache(args.cache_dir) if args.cache_dir else None
        worker = ShardWorker(
            args.shard_dir,
            worker=args.worker_id,
            policy=_policy_from_args(args),
            local_cache=local,
            ttl_s=args.lease_ttl,
            heartbeat_s=args.heartbeat,
        )
        try:
            report = worker.work(wait=args.wait, max_shards=args.max_shards)
        except PlanError as exc:
            raise SystemExit(str(exc)) from None
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.action == "merge":
        try:
            merged = merge_shard_dir(args.shard_dir, retry)
        except PlanError as exc:
            raise SystemExit(str(exc)) from None
        summary = merged.summary()
        print(_json.dumps(summary, indent=2, sort_keys=True))
        if args.json:
            print(f"wrote {write_json(merged.records, args.json)}")
        if args.csv:
            print(f"wrote {write_csv(merged.records, args.csv)}")
        if not merged.complete and not args.allow_partial:
            print(
                f"merge incomplete: {len(merged.missing)} spec(s) have no "
                "record yet (pass --allow-partial to accept)",
                file=sys.stderr,
            )
            return 1
        return 0 if not merged.conflicts else 1

    try:
        status = shard_dir_status(args.shard_dir, retry)
    except PlanError as exc:
        raise SystemExit(str(exc)) from None
    print(_json.dumps(status, indent=2, sort_keys=True))
    counts = status["counts"]
    return 0 if counts["done"] == len(status["shards"]) else 1


def cmd_lint(args) -> int:
    """Static analysis: determinism / cache-soundness / facade."""
    from repro.analysis import all_codes, lint_paths

    if args.list_codes:
        for code, description in all_codes().items():
            print(f"{code}  {description}")
        return 0
    selected = set(args.select or [])
    known = set(all_codes())
    unknown = sorted(selected - known)
    if unknown:
        raise SystemExit(f"unknown lint codes: {', '.join(unknown)}")
    select = (lambda code: code in selected) if selected else None
    try:
        report = lint_paths(args.paths, select)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    print(report.format_text())
    if args.show_suppressed and report.suppressions_used:
        for path, line, code in report.suppressions_used:
            print(f"suppressed {code} at {path}:{line}")
    return 0 if report.ok else 1


def cmd_gantt(args) -> int:
    from repro.baselines.megatron import megatron_uniform_plan
    from repro.core import PartitionBalancer
    from repro.core.profiler import PipelineProfiler
    from repro.experiments.common import build_scenario
    from repro.pipeline.engine import PipelineEngine
    from repro.pipeline.visualize import bubble_summary, render_gantt

    setup = build_scenario(
        args.scenario[0],
        num_layers=args.layers[0],
        pp_stages=args.stages,
        dp_ways=1,
        iterations=10,
    )
    scheme = setup.scheme_factory()
    states = scheme.initial_states()
    scheme.step(0, states)
    plan = megatron_uniform_plan(setup.specs, setup.pp_stages)
    if args.balanced:
        w = PipelineProfiler(setup.cost).profile(plan, states).weights("time")
        plan = PartitionBalancer().rebalance(plan, w).plan
    engine = PipelineEngine(
        setup.cost,
        setup.comm,
        schedule=args.schedule,
        num_micro=args.micro,
        record_timeline=True,
    )
    res = engine.run_iteration(plan, states)
    chart = render_gantt(res, width=args.width)
    label = "balanced" if args.balanced else "static"
    print(f"{args.scenario[0]} / {label} / {args.schedule}: "
          f"makespan {res.makespan * 1e3:.2f} ms, bubble {res.bubble_ratio():.1%}")
    print(chart)
    print(ascii_table(bubble_summary(res), title="per-worker busy/idle"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DynMo reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="Figure 1: idleness by dynamism type")
    _add_common(p1)
    _add_runner_flags(p1)
    _add_topology_flags(p1)
    p1.add_argument("--scenario", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    p1.set_defaults(fn=cmd_fig1)

    p3 = sub.add_parser("fig3", help="Figure 3: end-to-end throughput")
    _add_common(p3)
    _add_runner_flags(p3)
    _add_topology_flags(p3)
    p3.add_argument("--scenario", nargs="+", default=["pruning"], choices=SCENARIOS)
    p3.set_defaults(fn=cmd_fig3)

    p4 = sub.add_parser("fig4", help="Figure 4: re-packing sweep")
    _add_common(p4)
    _add_runner_flags(p4)
    _add_topology_flags(p4)
    p4.add_argument("--scenario", nargs="+", default=["pruning"], choices=SCENARIOS)
    p4.add_argument("--gpus", type=_positive_int, nargs="+", default=[8, 6, 4, 2])
    p4.set_defaults(fn=cmd_fig4)

    po = sub.add_parser("overhead", help="Figure 4 right: balancing overhead")
    _add_common(po)
    _add_runner_flags(po)
    _add_topology_flags(po)
    po.add_argument(
        "--scenario", nargs="+", default=list(SCENARIOS), choices=SCENARIOS
    )
    po.set_defaults(fn=cmd_overhead)

    pm = sub.add_parser(
        "fig-maxmodel",
        help="max trainable model depth per cluster shape, healthy and "
             "under a mid-run stage failure (per-stage memory model)",
    )
    _add_runner_flags(pm)
    pm.add_argument(
        "--scenario", nargs="+", default=["pruning"], choices=SCENARIOS
    )
    pm.add_argument("--depths", type=_positive_int, nargs="+", default=[24, 32, 40, 48],
                    help="model depths (layer counts) to probe")
    pm.add_argument(
        "--clusters", type=_cluster_spec, nargs="+",
        default=["1x2", "1x4", "1x8", "2x8+2x4:a100"],
        metavar="SPEC",
        help="cluster shapes to probe, e.g. '1x8' or '2x8+2x4:a100'",
    )
    pm.add_argument("--iterations", type=_positive_int, default=60)
    pm.add_argument("--schedule", default="zb", choices=["gpipe", "1f1b", "zb"])
    pm.add_argument("--no-failure", action="store_true",
                    help="skip the faulty variant of each cell")
    _add_memory_flags(pm)
    pm.set_defaults(fn=cmd_fig_maxmodel, cache_dir=DEFAULT_CACHE_DIR)

    ps = sub.add_parser(
        "sweep",
        help="run a (scenario x mode x depth x seed) grid via the process pool",
    )
    _add_common(ps)
    _add_runner_flags(ps)
    _add_grid_flags(ps)
    ps.add_argument(
        "--shard-dir", default=None, metavar="DIR",
        help="run the sweep distributed over this shared directory: "
             "publish a shard plan if none exists, work shards (claiming "
             "leases, stealing from dead workers) until all are done, "
             "then merge — any number of hosts may run this command "
             "concurrently against the same directory",
    )
    ps.add_argument("--shards", type=_positive_int, default=8, metavar="N",
                    help="shard count when publishing a new plan "
                         "(ignored when joining an existing one)")
    ps.add_argument("--worker-id", default=None, metavar="ID",
                    help="worker identity in the shard dir "
                         "(default: <hostname>-<pid>)")
    ps.add_argument("--lease-ttl", type=_positive_float, default=30.0, metavar="SECONDS",
                    help="heartbeats older than this mark a worker dead "
                         "and its leases stealable")
    ps.add_argument("--json", default=None, help="write full records to this JSON file")
    ps.add_argument("--csv", default=None, help="write flat rows to this CSV file")
    ps.add_argument(
        "--no-cache", action="store_true",
        help="re-execute every run, refreshing any cached entries",
    )
    ps.add_argument(
        "--journal", default=None, metavar="FILE.jsonl",
        help="append every landed record to this journal as it lands; "
             "SIGINT/SIGTERM drain in-flight runs, flush the journal, "
             "and exit 130 so the sweep can be resumed",
    )
    ps.add_argument(
        "--resume", default=None, metavar="FILE.jsonl",
        help="resume from a journal: serve finished runs from it, reload "
             "quarantined poison specs, and execute only what is missing "
             "or previously failed (keeps journaling to the same file)",
    )
    ps.set_defaults(fn=cmd_sweep, jobs=None, cache_dir=DEFAULT_CACHE_DIR)

    pn = sub.add_parser(
        "ensemble",
        help="Monte-Carlo fault ensemble: N sampled cluster-event traces "
             "per (scenario x mode), in-process by default, p50/p99 + "
             "survivability summaries",
    )
    _add_common(pn)
    _add_runner_flags(pn)
    _add_topology_flags(pn)
    pn.add_argument("--scenario", nargs="+", default=["pruning"], choices=SCENARIOS)
    pn.add_argument(
        "--mode", nargs="+", default=["megatron", "dynmo-partition"], choices=MODES
    )
    pn.add_argument("--schedule", default="zb", choices=["gpipe", "1f1b", "zb"])
    pn.add_argument("--n", type=_positive_int, default=64, metavar="N",
                    help="sampled traces per (scenario x mode) group")
    pn.add_argument("--trace-seed", type=_non_negative_int, default=0, metavar="SEED0",
                    help="draw i uses trace seed SEED0+i")
    _add_trace_flags(pn, failure_rate=0.01, straggler_rate=0.02, recover_after=40)
    pn.add_argument("--json", default=None,
                    help="write the full distribution summary to this JSON file")
    pn.add_argument("--csv", default=None, help="write flat rows to this CSV file")
    pn.add_argument("--verbose", action="store_true",
                    help="print per-run progress lines")
    pn.add_argument(
        "--no-cache", action="store_true",
        help="re-execute every run, refreshing any cached entries",
    )
    _add_memory_flags(pn)
    pn.set_defaults(fn=cmd_ensemble, cache_dir=DEFAULT_CACHE_DIR)

    pe = sub.add_parser(
        "events",
        help="generate a deterministic cluster-event trace "
             "(failures, stragglers, preemptions, recoveries)",
    )
    pe.add_argument("--out", default=None, metavar="TRACE.json",
                    help="write the trace to this file (else print only)")
    pe.add_argument("--seed", type=_non_negative_int, default=0)
    pe.add_argument("--iterations", type=_positive_int, default=150)
    pe.add_argument("--ranks", type=_positive_int, default=8,
                    help="cluster size the random trace draws ranks from")
    _add_trace_flags(pe, failure_rate=0.0, straggler_rate=0.0, recover_after=0)
    # hand-written single-scenario mode (exact iterations and ranks)
    pe.add_argument("--fail-at", type=_non_negative_int, default=None, metavar="ITER",
                    help="hand-written trace: fail --fail-ranks here "
                         "(bypasses the random generator; omit "
                         "--recover-at for a permanent loss)")
    pe.add_argument("--recover-at", type=_non_negative_int, default=None, metavar="ITER")
    pe.add_argument("--fail-ranks", type=_non_negative_int, nargs="+", default=[0])
    pe.add_argument("--straggle-ranks", type=_non_negative_int, nargs="+", default=[])
    pe.add_argument("--straggle-at", type=_non_negative_int, default=None, metavar="ITER")
    pe.set_defaults(fn=cmd_events)

    pc = sub.add_parser(
        "cache",
        help="result-cache maintenance: verify checksums / gc / stats "
             "(exit 1 while corrupt or quarantined entries remain)",
    )
    pc.add_argument("action", choices=["verify", "gc", "stats"])
    pc.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory to audit (default: {DEFAULT_CACHE_DIR})",
    )
    pc.add_argument(
        "--corrupt-age", type=_non_negative_float, default=None, metavar="SECONDS",
        help="gc only: reap quarantined *.corrupt files older than this "
             "(default: reap them all; recent ones are usually still "
             "wanted for post-mortem)",
    )
    pc.set_defaults(fn=cmd_cache)

    psh = sub.add_parser(
        "shard",
        help="distributed sweeps over a shared directory: publish a "
             "shard plan, work it from any number of hosts (lease "
             "claims, heartbeats, work-stealing), merge the journals",
    )
    shard_sub = psh.add_subparsers(dest="action", required=True)

    sp = shard_sub.add_parser(
        "plan", help="split a sweep grid into shards and publish the plan"
    )
    _add_common(sp)
    _add_plan_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--shard-dir", required=True, metavar="DIR")
    sp.add_argument("--shards", type=_positive_int, default=8, metavar="N",
                    help="number of contiguous shards to split the grid into")
    sp.set_defaults(fn=cmd_shard, action="plan")

    sw = shard_sub.add_parser(
        "work",
        help="claim and execute shards from a published plan "
             "(run one per host; safe to race)",
    )
    _add_runner_flags(sw)
    sw.add_argument("--shard-dir", required=True, metavar="DIR")
    sw.add_argument("--worker-id", default=None, metavar="ID",
                    help="worker identity in the shard dir "
                         "(default: <hostname>-<pid>)")
    sw.add_argument("--lease-ttl", type=_positive_float, default=30.0, metavar="SECONDS",
                    help="heartbeats older than this mark a worker dead "
                         "and its leases stealable")
    sw.add_argument("--heartbeat", type=_positive_float, default=None, metavar="SECONDS",
                    help="heartbeat renewal cadence (default: ttl/3)")
    sw.add_argument("--wait", action="store_true",
                    help="poll until every shard is done (steal from dead "
                         "workers) instead of exiting when nothing is "
                         "claimable")
    sw.add_argument("--max-shards", type=_positive_int, default=None, metavar="N",
                    help="stop after completing this many shards")
    sw.set_defaults(fn=cmd_shard, action="work", cache_dir=None)

    sm = shard_sub.add_parser(
        "merge",
        help="merge every worker's shard journals (and the shared "
             "cache) into one record set, detecting conflicts",
    )
    sm.add_argument("--shard-dir", required=True, metavar="DIR")
    sm.add_argument("--json", default=None,
                    help="write merged records to this JSON file")
    sm.add_argument("--csv", default=None,
                    help="write merged rows to this CSV file")
    sm.add_argument("--allow-partial", action="store_true",
                    help="exit 0 even when specs are still missing "
                         "(workers may still be running)")
    sm.set_defaults(fn=cmd_shard, action="merge")

    st = shard_sub.add_parser(
        "status",
        help="show each shard's state (unclaimed / leased / stale / "
             "done) and steal history; exit 0 when all are done",
    )
    st.add_argument("--shard-dir", required=True, metavar="DIR")
    st.set_defaults(fn=cmd_shard, action="status")

    pl = sub.add_parser(
        "lint",
        help="static analysis: determinism, spec-hash completeness, "
             "API facade (exit 1 on findings)",
    )
    pl.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    pl.add_argument("--json", default=None, metavar="FILE",
                    help="write the JSON report to this file (CI artifact)")
    pl.add_argument("--select", nargs="+", default=None, metavar="CODE",
                    help="only report these codes (e.g. RPR101 RPR201)")
    pl.add_argument("--list-codes", action="store_true",
                    help="print every checker code and exit")
    pl.add_argument("--show-suppressed", action="store_true",
                    help="also list applied '# repro: ignore' suppressions")
    pl.set_defaults(fn=cmd_lint)

    pg = sub.add_parser("gantt", help="render one iteration as ASCII Gantt")
    _add_common(pg)
    pg.add_argument("--scenario", nargs="+", default=["early_exit"], choices=SCENARIOS)
    pg.add_argument("--balanced", action="store_true", help="apply DynMo first")
    pg.add_argument("--schedule", default="zb", choices=["gpipe", "1f1b", "zb"])
    pg.add_argument("--micro", type=_positive_int, default=8)
    pg.add_argument("--width", type=_positive_int, default=96)
    pg.set_defaults(fn=cmd_gantt)
    return parser


def _requested_shape(args) -> tuple[int, int]:
    """The (pipeline stages, data-parallel ways) a command asks its
    scenarios for: fig4 sizes the pipeline by its largest ``--gpus``,
    overhead always runs 8 stages, and only sweep, shard plan, ensemble
    and fig3 pass ``--dp`` on."""
    if args.command == "fig4":
        return max(args.gpus), 1
    if args.command == "overhead":
        return 8, 1
    uses_dp = args.command in ("sweep", "shard", "ensemble", "fig3")
    return args.stages, args.dp if uses_dp else 1


def _check_maxmodel_clusters(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2, naming ``--clusters``, when a fig-maxmodel cluster has
    fewer GPUs than its cells' effective pipeline stages."""
    scenario = args.scenario[0]  # the scenario cmd_fig_maxmodel runs
    short = []
    for cluster in args.clusters:
        gpus = parse_cluster(cluster).num_gpus
        pp = max(
            effective_shape(scenario, cell_stages(gpus, depth), 1, 1)[0]
            for depth in args.depths
        )
        if pp > gpus:
            short.append(f"{cluster} has {gpus} GPUs for {pp} stages")
    if short:
        parser.error(
            f"--clusters too small for scenario {scenario!r}, which runs "
            f"one pipeline stage per GPU: {'; '.join(short)}"
        )


#: list flags a command reads only the first value of
_SINGLE_VALUED = {
    "ensemble": ("layers",),
    "fig1": ("layers",),
    "fig4": ("layers",),
    "overhead": ("layers",),
    "gantt": ("layers", "scenario"),
    "fig-maxmodel": ("scenario",),
}


def _check_shapes(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2, naming the flag, when a command is given more values of
    a flag than it runs, a scenario has no model of a ``--layers``
    depth, or its effective pipeline (after MoE widening or the
    paper-scale grids) does not fit its ``--layers`` or ``--cluster``
    (``--depths`` and ``--clusters`` for fig-maxmodel)."""
    for flag in _SINGLE_VALUED.get(args.command, ()):
        values = getattr(args, flag)
        if len(values) > 1:
            parser.error(
                f"--{flag} takes one value for {args.command}, got "
                f"{' '.join(map(str, values))}"
            )
    if args.command == "fig-maxmodel":
        try:
            check_maxmodel_depths(tuple(args.depths))
        except ValueError as exc:
            parser.error(f"--depths: {exc}")
        _check_maxmodel_clusters(parser, args)
        return
    layers = getattr(args, "layers", None)
    if not layers:
        return
    paper_scale = getattr(args, "paper_scale", False)
    # megatron_uniform_plan gives every stage at least one block; the
    # paper-scale grids pick their own stage counts
    if not paper_scale and args.stages > min(layers):
        parser.error(
            f"--stages {args.stages} exceeds --layers {min(layers)}: "
            "every pipeline stage needs at least one transformer block"
        )
    stages, dp = _requested_shape(args)
    cluster = getattr(args, "cluster", None)
    gpus = parse_cluster(cluster).num_gpus if cluster else None
    for scenario in args.scenario:
        for depth in layers:
            try:
                check_depth(scenario, depth)
            except ValueError as exc:
                parser.error(f"--layers {depth}: {exc}")
        pp, ways, _ = effective_shape(scenario, stages, dp, 1, paper_scale)
        if pp > min(layers):
            parser.error(
                f"--layers {min(layers)}: scenario {scenario!r} runs on {pp} "
                "pipeline stages, and every stage needs at least one "
                "transformer block"
            )
        if gpus is not None and gpus < pp * ways:
            parser.error(
                f"--cluster {cluster} has {gpus} GPUs; scenario {scenario!r} "
                f"runs {pp} stages x {ways} data-parallel ways = {pp * ways}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_shapes(parser, args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

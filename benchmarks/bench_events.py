"""Cluster-event microbenchmark: trace-driven runs must stay cache-friendly.

An event-carrying run's plan, placement and per-rank speeds change
mid-flight, so its hot path is the Trainer's iteration cache keyed on
``(plan, placement grid, straggler state, dynamism fingerprint)``:
``Trainer.run`` prices only a window's distinct uncached keys, in one
batched call.  This benchmark drives one failure + straggler +
recovery trace through a full Trainer twice — once through
``Trainer.run`` (the shipped path) and once re-simulating every
iteration on the scalar engine — and records the speedup.  The floor
is a one-run ``run_trainers_lockstep`` call with every cache lookup
missing: each iteration's miss is a bin of one, priced by the
scalar executor.  The ratio is machine-neutral (both paths run in the
same process) and collapses if event handling ever starts thrashing
the cache, e.g. by leaking a non-canonical slowdown key.

Runs standalone::

    python benchmarks/bench_events.py --json BENCH_events.json

or under pytest (one smoke case asserting the cached path wins).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.cluster.events import ClusterEventTrace
from repro.experiments.common import build_scenario, make_trainer
from repro.training.lockstep import run_trainers_lockstep

ITERATIONS = 300
SCHEDULES = ("1f1b", "zb")


def _trace(iterations: int) -> ClusterEventTrace:
    """Deterministic failure + straggler + recovery mix."""
    return ClusterEventTrace.generate(
        iterations=iterations,
        num_ranks=8,
        seed=7,
        failure_rate=0.01,
        straggler_rate=0.03,
        recover_after=40,
        straggler_duration=25,
        straggler_slowdown=1.8,
    )


def _run(schedule: str, cached: bool, iterations: int) -> float:
    setup = build_scenario(
        "pruning", num_layers=24, pp_stages=8, dp_ways=1, iterations=iterations
    )
    trainer = make_trainer(
        setup,
        "megatron",
        schedule=schedule,
        iterations=iterations,
        cluster_events=_trace(iterations),
    )
    t0 = time.perf_counter()
    if cached:
        trainer.run()
    else:
        # shadow the bound method: every lookup misses, and the one-run
        # lockstep call re-simulates every iteration on the scalar
        # engine (the no-memoisation floor)
        trainer._cache_lookup = lambda key: None
        run_trainers_lockstep([(trainer, None)])
    return time.perf_counter() - t0


def _best_of(fn, repeats: int) -> float:
    return min(fn() for _ in range(repeats))


def run_grid(repeats: int = 3, iterations: int = ITERATIONS) -> list[dict]:
    rows = []
    for schedule in SCHEDULES:
        _run(schedule, cached=True, iterations=iterations)  # warm compile caches
        t_cached = _best_of(lambda: _run(schedule, True, iterations), repeats)
        t_uncached = _best_of(lambda: _run(schedule, False, iterations), repeats)
        rows.append(
            {
                "case": f"events-{schedule}-cached",
                "schedule": schedule,
                "iterations": iterations,
                "fast_ms": t_cached * 1e3,
                "uncached_ms": t_uncached * 1e3,
                "speedup": t_uncached / t_cached if t_cached > 0 else float("inf"),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_events.json", help="output artifact path")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats)
    artifact = {
        "benchmark": "cluster-events",
        "python": platform.python_version(),
        "cases": rows,
    }
    with open(args.json, "w") as fh:
        json.dump(artifact, fh, indent=2)
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(
            f"{r['case']:<{width}}  cached {r['fast_ms']:8.2f} ms"
            f"  uncached {r['uncached_ms']:8.2f} ms"
            f"  speedup {r['speedup']:5.1f}x"
        )
    print(f"wrote {args.json}")
    return 0


def test_event_run_cache_speedup(once):
    """Acceptance bar: the iteration cache must carry event runs — a
    trace-driven run with memoisation beats per-iteration re-simulation
    by >= 2x (the distinct-state count is far below the iteration
    count even with failures, stragglers and recoveries applied)."""
    rows = once(run_grid, repeats=2, iterations=200)
    print()
    for r in rows:
        print(
            f"{r['case']:<22} cached {r['fast_ms']:.2f} ms "
            f"uncached {r['uncached_ms']:.2f} ms ({r['speedup']:.1f}x)"
        )
    for r in rows:
        assert r["speedup"] >= 2.0, r["case"]


if __name__ == "__main__":
    sys.exit(main())

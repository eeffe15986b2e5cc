"""Ensemble-replay benchmark: batched segment lanes vs N scalar runs.

Times the lockstep pricing reference ``run_trainers_lockstep`` over N
trace-driven trainers (``repro ensemble`` instead runs its draws
through ``run_group``, which prices a whole window of every draw in
one call over the group's shared scenario, recorded scheme trajectory
and iteration cache) against the same N
trainers stepped scalar one by one (a one-run lockstep call each, so
every iteration's miss is a bin of one, priced by ``run_iteration``),
and writes a ``BENCH_ensemble.json``
artifact tracked commit-over-commit (the CI bench-smoke job runs this
script and ``scripts/check_bench_regression.py`` gates on the
committed baseline).

Every trainer carries a distinct seeded :class:`ClusterEventTrace`, so
the lockstep replay exercises the piecewise-static segmentation: each
iteration's (placement, slowdown-map) key bins across trainers into
batched-engine lanes.  One layer-times call prices the stage tables of
every lane whose cost model has the same content, and each lane divides
by its own engine's speeds; edge-time vectors are memoised per
comm-model object, which these trainers share.  Bit-identity between
the two paths is asserted inside the bench itself.

Runs standalone::

    python benchmarks/bench_ensemble.py --json BENCH_ensemble.json

or under pytest (one smoke case asserting the >=3x acceptance bar on
the 1f1b N=128 grid point).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.baselines.megatron import megatron_uniform_plan
from repro.cluster.events import ClusterEventTrace
from repro.experiments.common import build_scenario
from repro.training.lockstep import run_trainers_lockstep
from repro.training.trainer import Trainer, TrainingConfig

ITERATIONS = 100
STAGES = 8
NUM_LAYERS = 24

#: (label, schedule, ensemble size, micro-batches).  The 1f1b point is
#: the acceptance case; zb carries the scalar per-lane W-filler merge
#: and is tracked for regression only.
CASES = (
    ("1f1b-N128-M128", "1f1b", 128, 128),
    ("zb-N64-M128", "zb", 64, 128),
)


def _build_trainers(schedule: str, n: int, micro: int) -> list[Trainer]:
    """n trainers over one scenario, each with a distinct seeded trace."""
    setup = build_scenario(
        "early_exit",
        num_layers=NUM_LAYERS,
        pp_stages=STAGES,
        dp_ways=1,
        iterations=ITERATIONS,
    )
    trainers = []
    for i in range(n):
        trace = ClusterEventTrace.generate(
            iterations=ITERATIONS,
            num_ranks=STAGES,
            seed=i,
            failure_rate=0.002,
            straggler_rate=0.08,
            recover_after=20,
            straggler_duration=10,
            straggler_slowdown=2.0,
        )
        cfg = TrainingConfig(
            iterations=ITERATIONS,
            micro_batch=2,
            seq_len=setup.cfg.seq_len,
            pp_stages=STAGES,
            dp_ways=1,
            num_micro=micro,
            schedule=schedule,
            record_every=max(1, ITERATIONS // 50),
            placement_strategy="packed",
        )
        trainers.append(
            Trainer(
                cfg,
                setup.cost,
                setup.scheme_factory(),
                comm=setup.comm,
                initial_plan=megatron_uniform_plan(setup.specs, STAGES),
                cluster_events=trace,
            )
        )
    return trainers


def run_case(schedule: str, n: int, micro: int, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` (lockstep, scalar) wall times, with the
    trainers rebuilt fresh per repeat (they are stateful) outside the
    timed region.  Asserts the two paths agree bit for bit."""
    t_fast = t_scalar = float("inf")
    fast = scalar = None
    for _ in range(max(1, repeats)):
        trainers = _build_trainers(schedule, n, micro)
        t0 = time.perf_counter()
        fast = run_trainers_lockstep([(t, None) for t in trainers])
        t_fast = min(t_fast, time.perf_counter() - t0)

        trainers = _build_trainers(schedule, n, micro)
        t0 = time.perf_counter()
        scalar = [run_trainers_lockstep([(t, None)])[0] for t in trainers]
        t_scalar = min(t_scalar, time.perf_counter() - t0)
    for a, b in zip(fast, scalar):
        assert a.total_time_s == b.total_time_s, "lockstep diverged from scalar"
        assert a.makespan_history == b.makespan_history
        assert a.overhead_s == b.overhead_s
    return t_fast, t_scalar


def run_grid(repeats: int = 2, quick: bool = False) -> list[dict]:
    rows = []
    for case, sched, n, micro in CASES[:1] if quick else CASES:
        t_fast, t_scalar = run_case(sched, n, micro, repeats)
        rows.append(
            {
                "case": case,
                "schedule": sched,
                "ensemble": n,
                "micro": micro,
                "iterations": ITERATIONS,
                "fast_ms": t_fast * 1e3,
                "scalar_ms": t_scalar * 1e3,
                "speedup": t_scalar / t_fast if t_fast > 0 else float("inf"),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_ensemble.json", help="output artifact path")
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--quick", action="store_true",
                    help="run only the acceptance case")
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats, quick=args.quick)
    artifact = {
        "benchmark": "ensemble-replay",
        "python": platform.python_version(),
        "cases": rows,
    }
    with open(args.json, "w") as fh:
        json.dump(artifact, fh, indent=2)
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(
            f"{r['case']:<{width}}  lockstep {r['fast_ms']:8.1f} ms"
            f"  scalar {r['scalar_ms']:8.1f} ms"
            f"  speedup {r['speedup']:5.2f}x"
        )
    print(f"wrote {args.json}")
    return 0


def test_ensemble_speedup(once):
    """Acceptance bar: an N=128 1f1b fault ensemble through batched
    segment lanes runs >= 3x faster than 128 scalar trace-driven runs
    (bit-identity is asserted inside run_case; per-trace identity is
    covered by tests/test_ensemble.py)."""
    rows = once(run_grid, repeats=1, quick=True)
    print()
    for r in rows:
        print(
            f"{r['case']:<16} lockstep {r['fast_ms']:.1f} ms "
            f"scalar {r['scalar_ms']:.1f} ms ({r['speedup']:.2f}x)"
        )
    assert rows[0]["speedup"] >= 3.0


if __name__ == "__main__":
    sys.exit(main())

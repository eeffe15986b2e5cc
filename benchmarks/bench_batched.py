"""Batched-backend microbenchmark: vectorized multi-run replay vs scalar.

Times one ``simulate_many`` call over N scenarios
against N calls of the compiled scalar ``run_iteration`` (and the
reference ready-loop of ``tests/engine_oracle.py``) at sweep-realistic
shapes, and writes a
``BENCH_batched.json`` artifact tracked commit-over-commit (the CI
bench-smoke job runs this script and
``scripts/check_bench_regression.py`` gates on the committed baseline).

Scenario states come from a deterministic pruning-dynamism trajectory —
the distinct state vectors a sweep prices in one window of
``Trainer.run`` — not synthetic uniform states.

Runs standalone::

    python benchmarks/bench_batched.py --json BENCH_batched.json

or under pytest (one smoke case asserting the >=5x acceptance bar on
the zb default-shape N=64 grid point).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.dynamics.pruning import GradualPruningSchedule, PruningDynamism
from repro.model.config import gpt_24
from repro.model.cost import ModelCost, build_layer_specs
from repro.pipeline.batched import simulate_many
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import engine_oracle  # noqa: E402

#: (label, stages, micro-batches) — ``default`` is the sweep CLI's
#: 8-stage shape (micro = 4 x stages), ``large`` the MoE/paper-style
#: 16-stage pipeline.
SHAPES = (
    ("default", 8, 32),
    ("large", 16, 64),
)
SCHEDULES = ("1f1b", "zb")
BATCH_SIZES = (1, 16, 64, 256)
NUM_LAYERS = 26  # gpt-24: embedding + 24 blocks + head


def _scenario_states(n: int) -> list:
    """n distinct state vectors off a deterministic pruning trajectory."""
    specs = build_layer_specs(gpt_24())
    scheme = PruningDynamism(
        specs,
        schedule=GradualPruningSchedule(start_iter=5, end_iter=3 * n + 5, prune_every=3),
        seed=0,
    )
    states = scheme.initial_states()
    out = []
    k = 0
    while len(out) < n:
        scheme.step(k, states)
        if k % 3 == 0:
            out.append(states.copy())
        k += 1
    return out[:n]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_grid(
    repeats: int = 3, include_reference: bool = True, quick: bool = False
) -> list[dict]:
    specs = build_layer_specs(gpt_24())
    cost = ModelCost(specs)
    batch_sizes = tuple(n for n in BATCH_SIZES if n <= 64) if quick else BATCH_SIZES
    all_states = _scenario_states(max(batch_sizes))
    rows = []
    for label, S, M in SHAPES:
        plan = PipelinePlan.uniform(NUM_LAYERS, S)
        for sched in SCHEDULES:
            engine = PipelineEngine(cost, None, schedule=sched, num_micro=M)
            for n in batch_sizes:
                scenarios = [(plan, states) for states in all_states[:n]]
                requests = [(engine, plan, states) for states in all_states[:n]]
                simulate_many(requests)  # warm compile caches
                t_batched = _best_of(lambda: simulate_many(requests), repeats)

                def scalar():
                    for p, states in scenarios:
                        engine.run_iteration(p, states)

                t_scalar = _best_of(scalar, repeats)
                row = {
                    "case": f"{sched}-{label}-N{n}",
                    "schedule": sched,
                    "stages": S,
                    "micro": M,
                    "batch": n,
                    "fast_ms": t_batched * 1e3,
                    "scalar_ms": t_scalar * 1e3,
                    "speedup": t_scalar / t_batched if t_batched > 0 else float("inf"),
                }
                if include_reference:
                    def ref():
                        for p, states in scenarios:
                            engine_oracle.run_iteration(engine, p, states)

                    row["reference_ms"] = _best_of(ref, max(1, repeats // 2)) * 1e3
                rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_batched.json", help="output artifact path")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the slow reference-loop timings")
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats, include_reference=not args.no_reference)
    artifact = {
        "benchmark": "batched-backend",
        "python": platform.python_version(),
        "cases": rows,
    }
    with open(args.json, "w") as fh:
        json.dump(artifact, fh, indent=2)
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        ref = f"  reference {r['reference_ms']:9.2f} ms" if "reference_ms" in r else ""
        print(
            f"{r['case']:<{width}}  batched {r['fast_ms']:8.2f} ms"
            f"  scalar {r['scalar_ms']:8.2f} ms{ref}"
            f"  speedup {r['speedup']:5.1f}x"
        )
    print(f"wrote {args.json}")
    return 0


def test_batched_speedup_bar(once):
    """Acceptance bar: zb default shape, N=64 — batched >= 5x the
    compiled scalar engine run 64 times (per-scenario bit-identity is
    covered by tests/test_batched_engine.py)."""
    rows = once(run_grid, repeats=3, include_reference=False, quick=True)
    by_case = {r["case"]: r for r in rows}
    print()
    for r in rows:
        print(
            f"{r['case']:<18} batched {r['fast_ms']:.2f} ms "
            f"scalar {r['scalar_ms']:.2f} ms ({r['speedup']:.1f}x)"
        )
    assert by_case["zb-default-N64"]["speedup"] >= 5.0
    assert by_case["1f1b-default-N64"]["speedup"] >= 5.0
    # batching must never lose to the scalar loop once there is a batch
    for r in rows:
        if r["batch"] >= 16:
            assert r["speedup"] >= 1.0, r["case"]


if __name__ == "__main__":
    sys.exit(main())

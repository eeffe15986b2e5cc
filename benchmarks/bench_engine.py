"""Engine-core microbenchmark: compiled executor vs reference loop.

Times ``PipelineEngine.run_iteration`` against the reference ready-loop
(``tests/engine_oracle.py``, the test oracle) over the 1f1b/zb/gpipe x
small/large S·M grid and writes a ``BENCH_engine.json`` artifact so
the perf trajectory is tracked commit-over-commit (the CI bench-smoke
job runs this script and ``scripts/check_bench_regression.py`` gates
on the committed baseline).

Runs standalone::

    python benchmarks/bench_engine.py --json BENCH_engine.json

or under pytest (one smoke case asserting the >=10x acceptance bar on
the zb S=16/M=256 grid point).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.model.config import gpt_24
from repro.model.cost import ModelCost, build_layer_specs, fresh_states
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelinePlan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import engine_oracle  # noqa: E402

#: (label, stages, micro-batches) — small is the CLI default shape,
#: large is the paper-scale stress point from the issue.
GRID = (
    ("small", 4, 16),
    ("large", 16, 256),
)
SCHEDULES = ("1f1b", "zb", "gpipe")
NUM_LAYERS = 26  # gpt-24: embedding + 24 blocks + head


def _time_once(run, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one ``run()`` call."""
    run()  # warm the compile cache
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def run_grid(repeats: int = 5) -> list[dict]:
    specs = build_layer_specs(gpt_24())
    cost = ModelCost(specs)
    states = fresh_states(NUM_LAYERS)
    rows = []
    for label, S, M in GRID:
        plan = PipelinePlan.uniform(NUM_LAYERS, S)
        for sched in SCHEDULES:
            engine = PipelineEngine(cost, None, schedule=sched, num_micro=M)
            t_fast = _time_once(lambda: engine.run_iteration(plan, states), repeats)
            t_ref = _time_once(
                lambda: engine_oracle.run_iteration(engine, plan, states),
                max(2, repeats // 2),
            )
            rows.append(
                {
                    "case": f"{sched}-{label}",
                    "schedule": sched,
                    "stages": S,
                    "micro": M,
                    "compiled_ms": t_fast * 1e3,
                    "reference_ms": t_ref * 1e3,
                    "speedup": t_ref / t_fast if t_fast > 0 else float("inf"),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_engine.json", help="output artifact path")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats)
    artifact = {
        "benchmark": "engine-core",
        "python": platform.python_version(),
        "cases": rows,
    }
    with open(args.json, "w") as fh:
        json.dump(artifact, fh, indent=2)
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(
            f"{r['case']:<{width}}  compiled {r['compiled_ms']:8.3f} ms"
            f"  reference {r['reference_ms']:8.3f} ms"
            f"  speedup {r['speedup']:6.1f}x"
        )
    print(f"wrote {args.json}")
    return 0


def test_engine_speedup_bar(once):
    """Acceptance bar: zb S=16/M=256 compiled >= 10x the reference."""
    rows = once(run_grid, repeats=3)
    by_case = {r["case"]: r for r in rows}
    zb_large = by_case["zb-large"]
    print()
    for r in rows:
        print(
            f"{r['case']:<12} compiled {r['compiled_ms']:.3f} ms "
            f"reference {r['reference_ms']:.3f} ms ({r['speedup']:.1f}x)"
        )
    assert zb_large["speedup"] >= 10.0
    # every grid point must at least not get slower under compilation
    assert all(r["speedup"] >= 1.0 for r in rows)


if __name__ == "__main__":
    sys.exit(main())

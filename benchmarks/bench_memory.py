"""Memory-model microbenchmark: placement validation must stay cheap.

The per-stage memory model prices every placement decision (initial
placement, each controller iteration, repack/regrow transitions), so
its validation pass sits on the training hot path whenever
``--memory-limit`` is set.  The Trainer throttles re-validation on a
``(plan, placement, states)`` key, which keeps the steady-state cost
near zero; this benchmark drives the same dynamic run twice — with
enforcement (``memory_limit="auto"``) and without — and records the
ratio.  The ``speedup`` (plain / enforced) should sit at ~1.0x: the
committed baseline documents validation overhead within ~5%, and the
CI gate fires if the ratio ever collapses (e.g. the throttle key
breaks and every iteration re-prices the full plan).

Runs standalone::

    python benchmarks/bench_memory.py --json BENCH_memory.json

or under pytest (one smoke case asserting the overhead stays small).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.experiments.common import build_scenario, make_trainer

ITERATIONS = 300
SCENARIOS = ("pruning", "freezing")


def _run(scenario: str, enforced: bool, iterations: int) -> float:
    setup = build_scenario(
        scenario, num_layers=24, pp_stages=8, dp_ways=1, iterations=iterations
    )
    t0 = time.perf_counter()
    make_trainer(
        setup,
        "dynmo-partition",
        schedule="zb",
        iterations=iterations,
        memory_limit="auto" if enforced else None,
    ).run()
    return time.perf_counter() - t0


def _best_of(fn, repeats: int) -> float:
    return min(fn() for _ in range(repeats))


def run_grid(repeats: int = 3, iterations: int = ITERATIONS) -> list[dict]:
    rows = []
    for scenario in SCENARIOS:
        _run(scenario, enforced=True, iterations=iterations)  # warm caches
        _run(scenario, enforced=False, iterations=iterations)
        # interleave the two variants so host noise hits both equally
        enforced_times, plain_times = [], []
        for _ in range(repeats):
            enforced_times.append(_run(scenario, True, iterations))
            plain_times.append(_run(scenario, False, iterations))
        t_enforced = min(enforced_times)
        t_plain = min(plain_times)
        rows.append(
            {
                "case": f"memory-validate-{scenario}",
                "scenario": scenario,
                "iterations": iterations,
                # fast path = the enforced run; the gate watches the
                # plain/enforced ratio for collapse
                "fast_ms": t_enforced * 1e3,
                "plain_ms": t_plain * 1e3,
                "speedup": t_plain / t_enforced,
            }
        )
    return rows


def test_memory_validation_overhead(once):
    """Smoke: enforcement must not meaningfully slow the hot loop.

    The bound is generous for shared CI runners; the committed baseline
    pins the precise ~5% figure via the regression gate."""
    rows = once(run_grid, repeats=2, iterations=120)
    print()
    for r in rows:
        print(
            f"{r['case']:<28} enforced {r['fast_ms']:.2f} ms "
            f"plain {r['plain_ms']:.2f} ms ({r['speedup']:.3f}x)"
        )
    for r in rows:
        assert r["speedup"] >= 0.67, (
            f"{r['case']}: memory validation overhead too high "
            f"({1 / r['speedup'] - 1:.0%})"
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default=None, metavar="FILE")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=ITERATIONS)
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats, iterations=args.iterations)
    for row in rows:
        print(
            f"{row['case']:<28} enforced {row['fast_ms']:8.1f} ms  "
            f"plain {row['plain_ms']:8.1f} ms  ratio {row['speedup']:.3f}x"
        )
    if args.json:
        payload = {
            "benchmark": "memory-model",
            "python": platform.python_version(),
            "cases": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Rewrite ``perfbench/expected/`` from the current tree.

    python3 perfbench/regen_expected.py

Runs each workload's commands once per seed in the pool (serial sweep
backend; the batched sweep must match it) and records every run's
output digest and every ensemble summary.  Run it from a checkout root,
and only in a change that means to move simulated numbers.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import outputs
import run


def regenerate(workload: run.Workload, seeds: range) -> dict:
    expected: dict = {"records": {}, "summaries": {}}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for seed in seeds:
            for i, argv in enumerate(workload.commands(seed)):
                cache = work / f"cache-{seed}-{i}"
                res = run.run_process(argv, work, cache, f"{seed}-{i}", trace=False)
                for rec in res["records"]:
                    if rec["status"] in outputs.FAILED_STATUSES:
                        raise run.BenchError(f"{workload.name}: run {rec['spec_hash']} "
                                             f"ended {rec['status']}")
                    expected["records"][rec["spec_hash"]] = {
                        "status": rec["status"],
                        "digest": rec["digest"],
                    }
                expected["summaries"].update(res["summaries"])
                print(f"{workload.name} seed {seed}: {len(res['records'])} runs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return expected


def main() -> int:
    pool = range(run.POOL)
    for name, workload, seeds in (
        ("sweep", run.WORKLOADS["sweep-serial"], pool),
        ("ensemble-faults", run.WORKLOADS["ensemble-faults"], pool),
        ("maxmodel-oom", run.WORKLOADS["maxmodel-oom"], range(1)),
    ):
        print(f"wrote {outputs.write_expected(name, regenerate(workload, seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the ``repro`` command line.

    python3 perfbench/run.py --workload sweep-serial --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout; it needs nothing but the checkout's
``src/`` (there is no build step).  Every measured process is a cold
``python3`` that imports ``repro`` and runs one user command in a
closed loop with a single client: the next process starts only when the
previous one has exited.  A sample is one cold pass of the workload's
commands against a fresh, empty result cache, followed by three warm
passes of the same commands in new processes against the cache the
cold pass filled.  Samples repeat until ``--seconds`` is spent (at least two
with ``--trace 0``), and every reported value is a median over samples.

Worker pools are deliberately not measured: on a small shared machine a
pool measures the scheduler and the other tenants, not this program.

End-to-end metrics (``--trace 0``).  Times are in reference seconds:
each phase's CPU time (user + system) of the measured process, scaled
by how fast the CPU ran a fixed reference workload at the same time on
the same CPU (``speed.py``).  The program is single-threaded and waits
on little I/O, so on an idle machine of reference speed this is its
wall time; on a shared virtual machine, whose CPUs lose time to other
tenants and change speed by tens of percent from second to second, it
is what the wall time would have been at reference speed.

- ``setup_s``: process start until the first spec reaches
  ``SweepRunner.run`` (interpreter, ``import repro``, grid or trace
  construction), per process, median over every process of the run;
- ``total_s``: process start until the command has written its result,
  cold pass, summed over the workload's commands;
- ``sim_iters_per_s``: simulated iterations of the runs that completed,
  divided by the run phase (first spec in the runner until the runner
  returns), cold pass;
- ``warm_s``: like ``total_s``, for the warm pass;
- ``peak_rss_mib``: peak resident memory of the cold processes.

Every run record, cold and warm, and every ensemble summary is checked
against the committed expected outputs (``outputs.py``).  A record with
status ``error``/``timeout``/``crashed`` or a differing output counts
in ``failed``; ``failed / attempted`` is the failed fraction.

``--trace 1`` instead runs, per sample, the cold pass untraced and then
the cold and warm passes with every layer's entry points wrapped
(``layers.py``), and reports per-layer calls, self time and share of
the run phase, outcome ratios, the unattributed share of the run phase,
and the tracing overhead on ``total_s``.  The speed probe does not run
then, so the layer spans, timed on the wall clock, hold only the
program; ``total_s`` there is plain CPU time.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import layers
import outputs
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: distinct input sets per workload; the seed picks one, and the
#: expected outputs of all of them are committed
POOL = 10
SWEEP_SEEDS = 2
ENSEMBLE_DRAWS = 32
CHILD_TIMEOUT_S = 60.0
WARM_PASSES = 3

SWEEP_GRID = [
    "--scenario", "moe", "pruning", "freezing", "sparse_attention",
    "early_exit", "mod",
    "--mode", "megatron", "dynmo-partition",
    "--layers", "24", "--stages", "8", "--iterations", "150",
    "--schedule", "zb",
]
SWEEP_RUNS = 6 * 2 * SWEEP_SEEDS
MAXMODEL_CELLS = 32

E2E_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "sim_iters_per_s": "iter/s",
    "warm_s": "s",
    "peak_rss_mib": "MiB",
}
OUTCOME_UNITS = {
    "itercache.hit_ratio": "ratio",
    "batched.lanes_per_call": "lanes/call",
    "batched.scalar_fallbacks": "count",
    "prewarm.scenarios": "count",
    "controller.rebalanced_ratio": "ratio",
    "controller.oom_rejections": "count",
    "cache.hit_ratio": "ratio",
    "unattributed.share": "ratio",
    "trace_overhead": "ratio",
}
LAYER_UNITS = {
    f"{layer}.{kind}": unit
    for layer in layers.LAYERS
    for kind, unit in (("calls", "count"), ("busy_s", "s"), ("share", "ratio"))
}
TRACE_UNITS = {**LAYER_UNITS, **OUTCOME_UNITS}


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# -- workloads ---------------------------------------------------------------


def sweep_commands(jobs: str) -> Callable[[int], list[list[str]]]:
    def commands(seed: int) -> list[list[str]]:
        first = SWEEP_SEEDS * (seed % POOL)
        seeds = [str(first + i) for i in range(SWEEP_SEEDS)]
        return [["sweep", "--jobs", jobs, *SWEEP_GRID, "--seeds", *seeds]]

    return commands


def ensemble_commands(seed: int) -> list[list[str]]:
    seed0 = str(ENSEMBLE_DRAWS * (seed % POOL))
    return [
        [
            "ensemble", "--jobs", "0", "--scenario", "pruning",
            "--mode", "megatron", "--schedule", schedule,
            "--layers", "24", "--stages", "8", "--iterations", "150",
            "--n", str(ENSEMBLE_DRAWS), "--trace-seed", seed0,
        ]
        for schedule in ("zb", "1f1b")
    ]


def maxmodel_commands(seed: int) -> list[list[str]]:
    # the grid has no random input: every seed runs the same cells
    return [[
        "fig-maxmodel", "--memory-limit", "4e9", "--scenario", "pruning",
        "--depths", "24", "32", "40", "48",
        "--clusters", "1x2", "1x4", "1x8", "2x8+2x4:a100",
        "--iterations", "60", "--schedule", "zb",
    ]]


def guard_sweep(cold: list[dict], trace: dict | None) -> None:
    n = sum(len(r["records"]) for r in cold)
    if n != SWEEP_RUNS:
        raise BenchError(f"sweep yielded {n} runs, expected {SWEEP_RUNS}")
    if trace is not None and trace["calls"]["memory"]:
        raise BenchError("the memory model ran on a sweep without --memory-limit")


def guard_ensemble(cold: list[dict], trace: dict | None) -> None:
    if not any(rec["events"] for r in cold for rec in r["records"]):
        raise BenchError("no ensemble draw applied a cluster event")
    if trace is not None and trace["calls"]["controller"]:
        raise BenchError("the DynMo controller ran on a megatron-only ensemble")


def guard_maxmodel(cold: list[dict], trace: dict | None) -> None:
    statuses = [rec["status"] for r in cold for rec in r["records"]]
    if len(statuses) != MAXMODEL_CELLS:
        raise BenchError(
            f"fig-maxmodel yielded {len(statuses)} cells, expected {MAXMODEL_CELLS}"
        )
    if not {"ok", "oom"} <= set(statuses):
        raise BenchError(f"fig-maxmodel must yield ok and oom cells, got {set(statuses)}")


@dataclass(frozen=True)
class Workload:
    name: str
    expected: str  # file stem under expected/
    commands: Callable[[int], list[list[str]]]
    guard: Callable[[list[dict], dict | None], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-serial", "sweep", sweep_commands("1"), guard_sweep),
        Workload("sweep-batched", "sweep", sweep_commands("0"), guard_sweep),
        Workload("ensemble-faults", "ensemble-faults", ensemble_commands, guard_ensemble),
        Workload("maxmodel-oom", "maxmodel-oom", maxmodel_commands, guard_maxmodel),
    )
}


# -- one process -------------------------------------------------------------


def run_process(
    argv: list[str], work: Path, cache: Path, tag: str, trace: bool,
    probe: SpeedProbe | None,
) -> dict:
    """Start one cold process running ``repro <argv>`` and time it.

    Phases are the process's CPU time, converted to reference seconds
    with ``probe`` when there is one.
    """
    result_path = work / f"{tag}.result.json"
    log_path = work / f"{tag}.log"
    cmd = [
        sys.executable, str(HERE / "child.py"), str(result_path),
        "1" if trace else "0", str(SRC), "--", *argv, "--cache-dir", str(cache),
    ]
    json_path = None
    if argv[0] in ("sweep", "ensemble"):
        json_path = work / f"{tag}.out.json"
        cmd += ["--json", str(json_path)]
    with log_path.open("wb") as log:
        spawned = time.monotonic()
        if probe is not None:
            probe.forget_before(spawned)
        subprocess.run(
            cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    if not result_path.exists():
        tail = log_path.read_text(errors="replace")[-3000:]
        raise BenchError(f"`repro {' '.join(argv)}` left no result:\n{tail}")
    res = json.loads(result_path.read_text())
    marks, cpu = res["marks"], res["cpu_marks"]
    if "first_spec" not in marks:
        raise BenchError(f"`repro {' '.join(argv)}` never reached the sweep runner")
    marks["spawned"], cpu["spawned"] = spawned, 0.0

    def phase(start: str, end: str) -> float:
        seconds = cpu[end] - cpu[start]
        if probe is not None:
            seconds *= probe.scale(marks[start], marks[end])
        return seconds

    res["setup_s"] = phase("spawned", "first_spec")
    res["run_s"] = phase("first_spec", "run_end")
    res["total_s"] = res["setup_s"] + res["run_s"] + phase("run_end", "end")
    res["wall_run_s"] = marks["run_end"] - marks["first_spec"]
    res["summaries"] = {}
    if argv[0] == "ensemble":
        res["summaries"] = outputs.ensemble_outputs(json.loads(json_path.read_text()))
    for path in (result_path, log_path, json_path):
        if path is not None:
            path.unlink(missing_ok=True)
    return res


class OutputCheck:
    """Compares every run record and summary with the expected outputs."""

    def __init__(self, expected: dict[str, Any]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def add(self, res: dict) -> None:
        for rec in res["records"]:
            self.attempted += 1
            want = self.expected["records"].get(rec["spec_hash"])
            if rec["status"] in outputs.FAILED_STATUSES:
                self._fail(f"run {rec['spec_hash']} ended {rec['status']}")
            elif want is None or want["digest"] != rec["digest"]:
                self._fail(f"run {rec['spec_hash']} differs from its expected output")
        for key, got in res["summaries"].items():
            self.attempted += 1
            want = self.expected["summaries"].get(key)
            if want is None or want["digest"] != got["digest"]:
                self._fail(f"ensemble summary {key} differs from its expected output")


# -- samples -----------------------------------------------------------------


@dataclass
class Runner:
    workload: Workload
    seed: int
    work: Path
    check: OutputCheck
    probe: SpeedProbe | None = None
    taken: int = 0

    def run_pass(self, cache: Path, label: str, trace: bool) -> list[dict]:
        # sample k runs input set seed + k, so that a run's medians do not
        # rest on the simulated work of a single input set
        commands = self.workload.commands(self.seed + self.taken)
        out = [
            run_process(
                argv, self.work, cache, f"{self.taken}-{label}-{i}", trace, self.probe
            )
            for i, argv in enumerate(commands)
        ]
        for res in out:
            self.check.add(res)
        return out

    def cache(self, label: str) -> Path:
        return self.work / f"cache-{self.taken}-{label}"

    def e2e_sample(self) -> dict[str, Any]:
        cache = self.cache("e2e")
        cold = self.run_pass(cache, "cold", trace=False)
        # a warm pass is short, so it repeats to be measured as steadily
        warm_passes = [self.run_pass(cache, "warm", trace=False) for _ in range(WARM_PASSES)]
        warm = [r for p in warm_passes for r in p]
        shutil.rmtree(cache, ignore_errors=True)
        self.workload.guard(cold, None)
        self.taken += 1
        iters = sum(
            rec["iterations"] for r in cold for rec in r["records"] if rec["status"] == "ok"
        )
        return {
            "setup_s": [r["setup_s"] for r in cold + warm],
            "total_s": sum(r["total_s"] for r in cold),
            "sim_iters_per_s": iters / sum(r["run_s"] for r in cold),
            "warm_s": [sum(r["total_s"] for r in p) for p in warm_passes],
            "peak_rss_mib": max(r["peak_rss_mib"] for r in cold),
        }

    def trace_sample(self) -> dict[str, Any]:
        plain = self.cache("plain")
        untraced = self.run_pass(plain, "plain", trace=False)
        shutil.rmtree(plain, ignore_errors=True)
        traced = self.cache("traced")
        cold = self.run_pass(traced, "cold", trace=True)
        warm = self.run_pass(traced, "warm", trace=True)
        shutil.rmtree(traced, ignore_errors=True)
        stats = merge_traces([r["trace"] for r in cold])
        self.workload.guard(cold, stats)
        self.taken += 1
        # layer spans are timed on the wall clock, so shares are of the wall run phase
        metrics = layer_metrics(stats, sum(r["wall_run_s"] for r in cold))
        warm_stats = merge_traces([r["trace"] for r in warm])["counters"]
        metrics["cache.hit_ratio"] = ratio(warm_stats["cache_hits"], warm_stats["cache_gets"])
        metrics["trace_overhead"] = (
            sum(r["total_s"] for r in cold) / sum(r["total_s"] for r in untraced) - 1.0
        )
        return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge_traces(traces: list[dict]) -> dict[str, Any]:
    """Sum the layer totals of the processes of one pass."""
    return {
        group: {key: sum(t[group][key] for t in traces) for key in keys}
        for group, keys in (
            ("calls", layers.LAYERS),
            ("busy_s", layers.LAYERS),
            ("counters", layers.COUNTERS),
        )
    } | {"busy_in_run_s": sum(t["busy_in_run_s"] for t in traces)}


def layer_metrics(stats: dict[str, Any], run_s: float) -> dict[str, float]:
    calls, busy, c = stats["calls"], stats["busy_s"], stats["counters"]
    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.share"] = busy[layer] / run_s
    simulated = c["engine_direct"] + c["batched_lanes"]
    m["itercache.hit_ratio"] = (
        1.0 - simulated / c["iterations_run"] if c["iterations_run"] else 0.0
    )
    m["batched.lanes_per_call"] = ratio(c["batched_lanes"], calls["batched"])
    m["batched.scalar_fallbacks"] = c["scalar_fallbacks"]
    m["prewarm.scenarios"] = c["prewarm_scenarios"]
    m["controller.rebalanced_ratio"] = ratio(c["rebalanced"], calls["controller"])
    m["controller.oom_rejections"] = c["oom_rejections"]
    m["unattributed.share"] = 1.0 - stats["busy_in_run_s"] / run_s
    return m


# -- the run -----------------------------------------------------------------


def collect(take: Callable[[], dict], seconds: float, min_samples: int) -> list[dict]:
    """Take samples until one more, as long as the longest yet, would overrun ``seconds``."""
    samples: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        before = time.monotonic()
        samples.append(take())
        longest = max(longest, time.monotonic() - before)
        elapsed = time.monotonic() - started
        if len(samples) >= min_samples and elapsed + longest > seconds:
            return samples


def medians(samples: list[dict], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    out = {}
    for name, unit in units.items():
        values = []
        for s in samples:
            v = s[name]
            values.extend(v if isinstance(v, list) else [v])
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def check_declared(units: dict[str, str], section: str) -> None:
    """The metrics reported must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    if {m["name"]: m["unit"] for m in declared} != units:
        raise BenchError(f"BENCHMARK.json {section} does not match the reported metrics")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no src/repro/cli.py under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    check = OutputCheck(outputs.load_expected(workload.expected))
    # bytecode is compiled once here, so no timed process pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, args.seed, work, check)
        if args.trace:
            check_declared(TRACE_UNITS, "per_layer")
            samples = collect(runner.trace_sample, args.seconds, min_samples=1)
            metrics = medians(samples, TRACE_UNITS)
        else:
            check_declared(E2E_UNITS, "end_to_end")
            with SpeedProbe() as runner.probe:
                samples = collect(runner.e2e_sample, args.seconds, min_samples=2)
            metrics = medians(samples, E2E_UNITS)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{workload.name}: seed {args.seed}, {len(samples)} samples, "
          f"{check.attempted} outputs checked, {check.failed} failed "
          f"(failed_frac {ratio(check.failed, check.attempted):.4f})")
    for problem in check.problems:
        print(f"  {problem}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

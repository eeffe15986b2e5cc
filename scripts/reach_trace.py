"""List the functions under ``src/repro`` that nothing runs.

    PYTHONPATH=src python scripts/reach_trace.py           # print the report
    PYTHONPATH=src python scripts/reach_trace.py --check   # exit 1 unless empty

In this one process, under ``sys.setprofile`` (and
``threading.setprofile`` for the shard heartbeat thread and one
timed-out ``simulate`` off the main thread), the script runs a fixed
list of CLI invocations that covers every subcommand, the four
``repro.api`` entry points and the three examples, all inside a
temporary directory.  It records every code object the run enters,
then walks the source of ``src/repro`` and reports every function,
method and nested function that was never entered, except

- abstract methods, and base methods whose body only raises
  ``NotImplementedError``;
- names that code in ``benchmarks/``, ``scripts/`` or ``perfbench/``
  uses: a module-level function by its name; a method by
  ``Class.method`` in a string, by its class and attribute name in one
  file, or by its attribute name alone when no other function under
  ``src/repro`` has that name;
- the entries of :data:`ALLOWLIST`, each with a one-line reason.

A nested function is reported only when its enclosing function ran.
Functions are keyed by (file, first line): ``co_qualname`` does not
exist on Python 3.10, and a code object's ``co_firstlineno`` is the
line of its first decorator, which the AST gives too.

Exit status: 0 on success (with ``--check``: and an empty report), 1
when ``--check`` finds unreached functions or stale allowlist
entries, 2 when a traced invocation does not end as expected.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: trees whose code may call into ``src/repro`` by name
CALLER_DIRS = ("benchmarks", "scripts", "perfbench")
EXAMPLES = ("quickstart.py", "elastic_pruning.py", "moe_continual.py")

_POOL = "runs only in pool workers or on pool faults (retry / bisect / drain)"
_SIGINT = "runs only when SIGINT/SIGTERM drains a sweep"
_STEAL = "lease steal: runs only when a worker's heartbeat goes stale"
_FAULTS = "fault-injection seam"

#: ``path:qualname`` -> why the function stays although no traced
#: command enters it
ALLOWLIST: dict[str, str] = {
    "src/repro/cluster/memory.py:PlacementOOMError.__reduce__":
        "OOM path: pickles the error across a pool boundary",
    "src/repro/cluster/topology.py:ClusterTopology.gpus_per_node":
        "kept: reads back h100_cluster(gpus_per_node=), which every example passes",
    "src/repro/core/balancers/dpexact.py:dp_partition":
        "the exact DP reference balancer (ROADMAP item 4)",
    "src/repro/core/metrics.py:imbalance":
        "BalanceResult.imbalance_before/_after, which benchmarks and scripts "
        "read, compute it",
    "src/repro/pipeline/engine.py:IterationResult.imbalance":
        "kept: Eq. 2 on one iteration's worker busy times, beside "
        "core.metrics.imbalance",
    "src/repro/sparse/kernels.py:SpmmCostModel.time":
        "dense_time and crossover_sparsity, which benchmarks and scripts call, "
        "price with it",
    "src/repro/distrib/layout.py:ShardDirLayout.poison_path":
        "poison propagation: runs only when a spec kills a worker",
    "src/repro/distrib/lease.py:Lease.from_dict": _STEAL,
    "src/repro/distrib/lease.py:LeaseManager.heartbeat_age_s": _STEAL,
    "src/repro/distrib/lease.py:LeaseManager.is_stale": _STEAL,
    "src/repro/distrib/lease.py:LeaseManager._steal_lock_path": _STEAL,
    "src/repro/distrib/lease.py:LeaseManager.try_steal": _STEAL,
    "src/repro/distrib/merge.py:MergeConflict.to_dict":
        "merge conflicts: runs only when two workers' records for a spec differ",
    "src/repro/orchestrator/cache.py:ResultCache._quarantine":
        "cache quarantine: runs only on a corrupt entry",
    "src/repro/orchestrator/faults.py:uninstall": _FAULTS,
    "src/repro/orchestrator/faults.py:injected": _FAULTS,
    "src/repro/orchestrator/faults.py:recorded_sleeps": _FAULTS,
    "src/repro/orchestrator/faults.py:_bump": _FAULTS,
    "src/repro/orchestrator/faults.py:_kill_permitted": _FAULTS,
    "src/repro/orchestrator/faults.py:on_chunk_start": _FAULTS,
    "src/repro/orchestrator/faults.py:corrupt_file": _FAULTS,
    "src/repro/orchestrator/faults.py:tear_file": _FAULTS,
    "src/repro/orchestrator/journal.py:SweepJournal.__enter__":
        "resource protocol: closes the journal file for `with` callers",
    "src/repro/orchestrator/journal.py:SweepJournal.__exit__":
        "resource protocol: closes the journal file for `with` callers",
    "src/repro/orchestrator/retry.py:RetryPolicy.should_retry": _POOL,
    "src/repro/orchestrator/retry.py:RetryPolicy.delay_s": _POOL,
    "src/repro/orchestrator/retry.py:RetryPolicy.delays": _POOL,
    "src/repro/orchestrator/retry.py:RetryPolicy.to_dict": _POOL,
    "src/repro/orchestrator/runner.py:SweepInterrupted.__init__": _SIGINT,
    "src/repro/orchestrator/runner.py:quarantine_spec":
        "poison quarantine: runs only when bisection pins a worker-killing spec",
    "src/repro/orchestrator/runner.py:clear_quarantine":
        "test seam: resets the process-wide poison quarantine",
    "src/repro/orchestrator/runner.py:_deadline.<locals>._handler":
        "SIGALRM handler of an inline --timeout; a trace cannot observe it, "
        "since the signal lands inside the profiler",
    "src/repro/orchestrator/runner.py:_crashed_record": _POOL,
    "src/repro/orchestrator/runner.py:_execute_chunk": _POOL,
    "src/repro/orchestrator/runner.py:_discard_shared_pool": _POOL,
    "src/repro/orchestrator/runner.py:_shutdown_shared_pools":
        "atexit hook: runs at interpreter exit, after the trace",
    "src/repro/orchestrator/runner.py:_RunState.partial": _SIGINT,
    "src/repro/orchestrator/runner.py:SweepRunner._trap_signals.<locals>._handler":
        _SIGINT,
    "src/repro/orchestrator/runner.py:SweepRunner._interrupt": _SIGINT,
    "src/repro/orchestrator/runner.py:SweepRunner._restart_pool": _POOL,
    "src/repro/orchestrator/runner.py:SweepRunner._probe": _POOL,
    "src/repro/orchestrator/runner.py:SweepRunner._drain": _POOL,
    "src/repro/orchestrator/runner.py:SweepRunner._recover_chunk": _POOL,
    "src/repro/orchestrator/runner.py:SweepRunner._bisect": _POOL,
    "src/repro/pipeline/batched.py:BatchStats.reset":
        "test seam: tests count batched lanes from zero",
}

_SMALL = ["--layers", "24", "--stages", "4", "--iterations", "8"]


def cli_invocations(tmp: Path) -> list[tuple[list[str], int]]:
    """``(argv, expected exit code)`` for every traced CLI run."""
    fixtures = ROOT / "tests" / "lint_fixtures"
    cache = str(tmp / "cache")
    shard = str(tmp / "shard")
    journal = str(tmp / "sweep.jsonl")
    trace = str(tmp / "trace.json")
    every_scenario = [
        "--scenario", "pruning", "freezing", "sparse_attention",
        "early_exit", "moe", "mod",
    ]
    sweep_grid = [
        *every_scenario,
        "--mode", "megatron", "deepspeed", "dynmo-partition", "dynmo-diffusion",
        "--layers", "24", "--stages", "4", "--iterations", "6",
    ]
    return [
        (["sweep", "--jobs", "1", *sweep_grid, "--cache-dir", cache,
          "--journal", journal, "--json", str(tmp / "s.json"),
          "--csv", str(tmp / "s.csv")], 0),
        (["sweep", "--jobs", "0", *sweep_grid, "--no-cache", "--cache-dir", cache], 0),
        (["sweep", "--jobs", "1", *sweep_grid, "--cache-dir", str(tmp / "fresh"),
          "--resume", journal], 0),
        (["sweep", "--jobs", "0", "--scenario", "moe", "--mode", "tutel",
          "--layers", "16", "--iterations", "4", "--no-cache"], 0),
        (["sweep", "--jobs", "1", "--scenario", "sparse_attention", "early_exit",
          "--mode", "egeria", "dense-baseline", *_SMALL, "--no-cache",
          "--schedule", "1f1b", "--precision", "full", "--recompute"], 0),
        # an error row (tutel needs MoE layers); api_calls adds a
        # timeout row
        (["sweep", "--jobs", "1", "--scenario", "pruning", "--mode", "tutel",
          *_SMALL, "--no-cache"], 1),
        # one oom cell
        (["sweep", "--jobs", "1", "--scenario", "pruning", "--mode",
          "dynmo-partition", "--layers", "32", "--stages", "2", "--cluster", "1x2",
          "--memory-limit", "4e9", "--iterations", "6", "--no-cache"], 0),
        # an events + re-pack cell
        (["events", "--fail-at", "3", "--recover-at", "8", "--fail-ranks", "2",
          "--straggle-ranks", "4", "--straggle-at", "9", "--straggler-duration",
          "2", "--straggler-slowdown", "1.5", "--out", trace], 0),
        (["events", "--iterations", "30", "--failure-rate", "0.1",
          "--straggler-rate", "0.1", "--preemption-rate", "0.05",
          "--recover-after", "5"], 0),
        (["sweep", "--jobs", "1", "--scenario", "pruning", "freezing",
          "--mode", "dynmo-diffusion", "dynmo-partition", "--iterations", "14",
          "--cluster", "2x8+2x4:a100", "--placement", "packed", "scattered",
          "dp-outer", "--repack", "--repack-target", "4", "--repack-force",
          "--events", trace, "--memory-limit", "auto", "--no-cache"], 0),
        (["sweep", "--jobs", "2", "--scenario", "pruning", "--mode", "megatron",
          "--seeds", "0", "1", *_SMALL, "--timeout", "60", "--retries", "2",
          "--retry-backoff", "0", "--no-cache"], 0),
        (["sweep", "--jobs", "1", "--scenario", "pruning", "--mode", "megatron",
          *_SMALL, "--dp", "2", "--balance-cost", "measured", "--no-cache",
          "--shard-dir", str(tmp / "sweep-shard"), "--shards", "2"], 0),
        (["fig1", *_SMALL, "--scenario", "pruning", "early_exit"], 0),
        (["fig3", *_SMALL, "--scenario", "freezing", "--dp", "2"], 0),
        (["fig4", "--scenario", "pruning", "--layers", "24", "--iterations", "8",
          "--gpus", "4", "2", "--stages", "4"], 0),
        (["overhead", *_SMALL, "--scenario", "pruning", "mod"], 0),
        (["fig-maxmodel", "--depths", "24", "48", "--clusters", "1x2", "1x8",
          "--iterations", "9", "--memory-limit", "4e9", "--cache-dir", cache], 0),
        (["ensemble", "--scenario", "pruning", "--mode", "megatron",
          "dynmo-partition", "--stages", "4", "--iterations", "20", "--n", "4",
          "--failure-rate", "0.05", "--cache-dir", cache, "--verbose",
          "--json", str(tmp / "e.json"), "--csv", str(tmp / "e.csv")], 0),
        (["ensemble", "--scenario", "pruning", "--mode", "megatron",
          "dynmo-partition", "--stages", "4", "--iterations", "20", "--n", "4",
          "--failure-rate", "0.05", "--cache-dir", cache, "--jobs", "1"], 0),
        (["cache", "verify", "--cache-dir", cache], 0),
        (["cache", "stats", "--cache-dir", cache], 0),
        (["cache", "gc", "--cache-dir", cache], 0),
        (["shard", "plan", "--shard-dir", shard, "--shards", "2", "--scenario",
          "pruning", "freezing", "--mode", "megatron", *_SMALL], 0),
        (["shard", "status", "--shard-dir", shard], 1),
        (["shard", "work", "--shard-dir", shard, "--worker-id", "w1",
          "--max-shards", "1"], 0),
        (["shard", "work", "--shard-dir", shard, "--worker-id", "w2", "--wait"], 0),
        (["shard", "merge", "--shard-dir", shard, "--json", str(tmp / "m.json"),
          "--csv", str(tmp / "m.csv")], 0),
        (["shard", "status", "--shard-dir", shard], 0),
        (["lint", str(fixtures / "seeded_violation.py"), "--json",
          str(tmp / "lint.json")], 1),
        # the checkers' other branches: every rot mode of the fixtures,
        # suppressions, and the real facade's absolute imports
        (["lint", *(str(fixtures / name) for name in (
            "determinism_bad.py", "facadepkg/__init__.py", "spec_hash_bad.py",
            "suppressed_ok.py")), str(PACKAGE / "api.py"), "--show-suppressed"], 1),
        (["lint", "--list-codes"], 0),
        *[
            (["gantt", "--scenario", "early_exit", "--stages", "4", "--micro", "4",
              "--width", "40", "--schedule", schedule, *balanced], 0)
            for schedule in ("gpipe", "1f1b", "zb")
            for balanced in ([], ["--balanced"])
        ],
    ]


def api_calls(tmp: Path) -> list[Callable[[], Any]]:
    """The four ``repro.api`` entry points, each on a small spec, and a
    ``simulate`` that times out."""
    import repro

    spec = repro.RunSpec(
        scenario="freezing", mode="dynmo-partition", pp_stages=4, iterations=8
    )
    specs = [spec, spec.with_(mode="megatron")]

    def timeout_off_main_thread() -> None:
        # off the main thread the budget is the trainer's monotonic
        # clock check; a SIGALRM would land inside the profiler and
        # remove it
        policy = repro.ExecutionPolicy(timeout_s=1e-9)
        worker = threading.Thread(
            target=repro.simulate, args=(spec,), kwargs={"policy": policy}
        )
        worker.start()
        worker.join()

    return [
        lambda: repro.simulate(spec),
        timeout_off_main_thread,
        lambda: repro.sweep(
            specs, repro.ExecutionPolicy("inline"), cache=tmp / "api-cache",
            journal=tmp / "api.jsonl",
        ),
        lambda: repro.ensemble(spec, n=3, cache=tmp / "api-cache"),
        lambda: repro.shard_sweep(specs, tmp / "api-shard"),
    ]


# -- tracing -------------------------------------------------------------------


def _run_cli(argv: list[str]) -> int:
    import repro.cli

    try:
        return repro.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def trace() -> tuple[set[tuple[str, int]], list[str]]:
    """Run everything traced; return ``(path, first line)`` of every
    ``src/repro`` code object entered, and the invocations that did not
    exit as expected."""
    entered: set[CodeType] = set()
    add = entered.add

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            add(frame.f_code)

    failures: list[str] = []
    cwd = os.getcwd()
    sink = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        tmp = Path(name)
        os.chdir(tmp)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv, expected in cli_invocations(tmp):
                    code = _run_cli(argv)
                    if code != expected:
                        failures.append(f"repro {' '.join(argv)}: exit {code}, "
                                        f"expected {expected}")
                    if sys.getprofile() is not profile:
                        failures.append(f"repro {' '.join(argv)}: the profiler "
                                        "was removed (an exception inside it)")
                        sys.setprofile(profile)
                for call in api_calls(tmp):
                    call()
                for example in EXAMPLES:
                    runpy.run_path(str(ROOT / "examples" / example), run_name="__main__")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
            os.chdir(cwd)
    prefix = str(PACKAGE) + os.sep
    keys = {
        (_rel(Path(code.co_filename)), code.co_firstlineno)
        for code in entered
        if code.co_filename.startswith(prefix)
    }
    return keys, failures


# -- what the source defines ---------------------------------------------------


@dataclass(frozen=True)
class Definition:
    path: str  # relative to the repo root
    line: int  # first line, decorators included
    qualname: str
    name: str
    owner: str | None  # enclosing class, for methods
    node: ast.AST

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"

    @property
    def abstract(self) -> bool:
        """``@abstractmethod``, or a body (after any docstring) that only
        raises ``NotImplementedError``."""
        node: Any = self.node
        if any(
            (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
            == "abstractmethod"
            for d in node.decorator_list
        ):
            return True
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Raise):
            return False
        exc = body[0].exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _rel(path: Path) -> str:
    return path.resolve().relative_to(ROOT).as_posix()


def _children(node: ast.AST, path: str, prefix: str, owner: str | None) -> Iterator[Definition]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _children(child, path, f"{prefix}{child.name}.", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield Definition(path, line, prefix + child.name, child.name, owner, child)
        else:
            yield from _children(child, path, prefix, owner)


def top_definitions(path: Path) -> list[Definition]:
    """The functions and methods of one module, not nested in a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return list(_children(tree, _rel(path), "", None))


def nested_definitions(defn: Definition) -> list[Definition]:
    prefix = f"{defn.qualname}.<locals>."
    return list(_children(defn.node, defn.path, prefix, None))


# -- what benchmarks and scripts name ------------------------------------------

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


@dataclass
class CallerNames:
    identifiers: set[str]
    dotted: set[str]  # "Class.method" pairs in strings
    files: list[set[str]]  # identifiers per file

    def names(self, defn: Definition, unique: bool) -> bool:
        """Whether callers use ``defn``; ``unique`` says no other
        function under ``src/repro`` shares its name."""
        if defn.owner is None or unique:
            return defn.name in self.identifiers
        if f"{defn.owner}.{defn.name}" in self.dotted:
            return True
        return any(defn.owner in ids and defn.name in ids for ids in self.files)


def caller_names() -> CallerNames:
    me = Path(__file__).resolve()
    identifiers: set[str] = set()
    dotted: set[str] = set()
    files: list[set[str]] = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == me:
                continue
            ids: set[str] = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    ids.add(node.id)
                elif isinstance(node, ast.Attribute):
                    ids.add(node.attr)
                elif isinstance(node, ast.alias):
                    ids.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    for match in _DOTTED.findall(node.value):
                        parts = match.split(".")
                        dotted.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
                        ids.update(parts)
            identifiers |= ids
            files.append(ids)
    return CallerNames(identifiers, dotted, files)


# -- the report ----------------------------------------------------------------


def report(entered: set[tuple[str, int]]) -> tuple[list[Definition], list[str]]:
    """Unreached functions, and allowlist entries that name no function."""
    named = caller_names()
    modules = [top_definitions(path) for path in sorted(PACKAGE.rglob("*.py"))]
    name_count = Counter(defn.name for defs in modules for defn in defs)
    unreached: list[Definition] = []
    seen: set[str] = set()

    def visit(defs: list[Definition]) -> None:
        for defn in defs:
            seen.add(defn.key)
            if (defn.path, defn.line) in entered:
                visit(nested_definitions(defn))
            elif not (
                defn.abstract
                or defn.key in ALLOWLIST
                or named.names(defn, name_count[defn.name] == 1)
            ):
                unreached.append(defn)

    for defs in modules:
        visit(defs)
    stale = sorted(key for key in ALLOWLIST if key not in seen)
    return unreached, stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any function is unreached")
    args = parser.parse_args(argv)
    entered, failures = trace()
    unreached, stale = report(entered)
    for defn in unreached:
        print(f"{defn.path}:{defn.line}: {defn.qualname} is never entered")
    for key in stale:
        print(f"allowlist entry {key} names no function")
    print(f"{len(unreached)} unreached function(s), {len(stale)} stale allowlist "
          f"entr{'y' if len(stale) == 1 else 'ies'}")
    for failure in failures:
        print(f"traced run went wrong: {failure}", file=sys.stderr)
    if failures:
        return 2
    return 1 if args.check and (unreached or stale) else 0


if __name__ == "__main__":
    sys.exit(main())

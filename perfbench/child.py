"""One cold ``repro`` process, as a user would start it.

    python3 perfbench/child.py RESULT.json TRACE SRC -- <repro arguments>

Imports ``repro.cli`` from ``SRC`` and runs ``repro.cli.main`` on the
given arguments in this process: one client, no worker pool.  It marks
three moments, each on two clocks: the system-wide monotonic clock,
which the parent compares with the moment it started this process, and
this process's CPU clock (user + system time since the process began):

- ``first_spec``: the first spec reaches ``SweepRunner.run``;
- ``run_end``: the last ``SweepRunner.run`` returns;
- ``end``: ``main`` returns, after the command has written its result.

With ``TRACE`` = 1 it first wraps every layer's entry points (see
``layers.py``).  After ``end`` it writes the marks, its peak resident
memory, one digest per run record and the layer totals to RESULT.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, src, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, src)

    import repro.cli
    from repro.orchestrator.runner import SweepRunner

    tracer = None
    if trace == "1":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    marks: dict[str, float] = {}
    cpu_marks: dict[str, float] = {}
    records: list = []
    run = SweepRunner.run

    def mark(name: str) -> None:
        marks[name] = time.monotonic()
        cpu_marks[name] = time.process_time()

    def timed_run(self: SweepRunner, specs: list) -> list:
        if "first_spec" not in marks:
            mark("first_spec")
        if tracer is not None:
            tracer.in_run += 1
        try:
            out = run(self, specs)
        finally:
            if tracer is not None:
                tracer.in_run -= 1
            mark("run_end")
        records.extend(out)
        return out

    SweepRunner.run = timed_run  # type: ignore[method-assign]
    code = repro.cli.main(argv)
    mark("end")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import outputs

    result = {
        "exit_code": code,
        "marks": marks,
        "cpu_marks": cpu_marks,
        "peak_rss_mib": peak_kib / 1024.0,
        "records": [outputs.record_output(r.to_dict()) for r in records],
        "trace": tracer.stats() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

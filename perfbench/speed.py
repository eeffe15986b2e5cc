"""How fast the benchmark's CPU runs Python, measured while the program runs.

On a shared virtual machine the speed of a CPU changes by tens of
percent from one second to the next, with what the other tenants do.
Neither the wall clock nor a process's CPU clock can tell a slower
program from a slower machine.  So the benchmark pins itself, and the
processes it starts, to one CPU, and while a measured process runs a
thread of the benchmark runs a fixed reference workload on the same CPU.
The scheduler interleaves the two every few milliseconds, so the probe's
rate (units of reference work per second of its own CPU time) samples
the speed the program saw.

A phase that took ``cpu_s`` of the program's CPU time while the probe
ran at ``rate`` is reported as ``cpu_s * rate / REFERENCE_RATE``
seconds: the time it would take on a CPU that runs the probe at
``REFERENCE_RATE``.  The reference work (small dicts, tuples and lists,
a sort with a key function, NumPy calls on small arrays) slows down with
the machine much as the program does.  Over 24-30 cold passes of
``sweep-batched`` and of ``ensemble-faults`` on a 2-CPU shared machine,
the program's CPU time per pass varied by 10-15% (coefficient of
variation) and the scaled time by 1.4-1.8%.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

#: probe units per CPU-second that count as one reference second; a round
#: figure near the probe's rate (2900-4000/s as its speed drifted) on the
#: 2-CPU machine the baseline was measured on
REFERENCE_RATE = 3000.0
#: units of reference work between two timeline samples (about 1-2 ms)
UNITS_PER_SAMPLE = 8
#: the probe rests this long after each sample, leaving the measured
#: process about two thirds of the CPU instead of half
PAUSE_S = 0.002


_LANES = np.arange(64, dtype=np.float64)


def reference_unit() -> None:
    """One unit of reference work; it touches nothing outside itself.

    About half of it is interpreter work on small containers, half is
    calls into NumPy on small arrays, like the program's own mix.
    """
    table = {}
    for i in range(300):
        table[(i, i % 13)] = [i * 0.5, {"a": i}]
    sorted(table.items(), key=lambda kv: kv[1][0], reverse=True)
    for i in range(15):
        lanes = _LANES * 1.5 + i
        float(lanes.max() - lanes.min())
        np.argsort(lanes)


class SpeedProbe:
    """A thread that runs reference work and keeps a timeline of its rate.

    Start it from the thread that starts the measured processes: it pins
    that thread first, and the probe thread and every process started
    after it inherit the same single CPU.
    """

    def __init__(self) -> None:
        # (monotonic time, units done, CPU time spent on them)
        self._timeline: list[tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._spin, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        while not self._timeline:
            time.sleep(0.001)
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _spin(self) -> None:
        timeline, stop = self._timeline, self._stop
        units, busy = 0, 0.0
        timeline.append((time.monotonic(), units, busy))
        while not stop.wait(PAUSE_S):
            start = time.thread_time()
            for _ in range(UNITS_PER_SAMPLE):
                reference_unit()
            units += UNITS_PER_SAMPLE
            busy += time.thread_time() - start
            timeline.append((time.monotonic(), units, busy))

    def forget_before(self, moment: float) -> None:
        """Drop samples older than ``moment`` (keeping one), to bound memory."""
        timeline = self._timeline
        cut = bisect.bisect_right(timeline, (moment,)) - 1
        if cut > 0:
            del timeline[:cut]

    def rate(self, start: float, end: float) -> float:
        """Probe units per probe CPU-second between two monotonic moments.

        The window widens to the samples on either side of it, so even a
        phase shorter than one sample has a rate.
        """
        timeline = list(self._timeline)
        times = [t for t, _, _ in timeline]
        i = max(bisect.bisect_right(times, start) - 1, 0)
        j = min(bisect.bisect_left(times, end), len(timeline) - 1)
        if j <= i:
            raise RuntimeError("the speed probe took no sample in the measured window")
        _, units0, cpu0 = timeline[i]
        _, units1, cpu1 = timeline[j]
        return (units1 - units0) / (cpu1 - cpu0)

    def scale(self, start: float, end: float) -> float:
        """Factor from program CPU seconds to reference seconds."""
        return self.rate(start, end) / REFERENCE_RATE

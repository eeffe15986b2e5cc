"""ASCII Gantt rendering of pipeline timelines.

Turns the engine's (worker, op, micro, start, end) timeline into the
kind of pipeline diagram papers draw: one row per worker, time bucketed
into columns, `F`/`B`/`W` cells for compute and `.` for bubbles.  Used
by examples and by humans debugging schedules; also provides bubble
accounting per worker directly from the rendered occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pipeline.engine import IterationResult


@dataclass
class GanttChart:
    grid: list[str]  # one string per worker
    makespan: float
    col_seconds: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        header = f"time -> (1 col = {self.col_seconds * 1e3:.3f} ms)"
        rows = [header]
        for i, row in enumerate(self.grid):
            rows.append(f"w{i:<2} |{row}|")
        return "\n".join(rows)


def render_gantt(result: IterationResult, width: int = 80) -> GanttChart:
    """Rasterise a recorded timeline into a fixed-width ASCII grid.

    Each op paints its [start, end) span with its kind letter; later
    ops overwrite earlier ones within a cell (cells are coarse).
    Requires the engine to have been constructed with
    ``record_timeline=True``.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if not result.timeline:
        raise ValueError(
            "empty timeline: run the engine with record_timeline=True"
        )
    makespan = result.makespan
    col = makespan / width if makespan > 0 else 1.0
    workers = result.num_workers
    grid = np.full((workers, width), ".", dtype="U1")
    for worker, kind, micro, t0, t1 in result.timeline:
        c0 = int(np.clip(t0 / col, 0, width - 1))
        c1 = int(np.clip(np.ceil(t1 / col), c0 + 1, width))
        grid[worker, c0:c1] = kind
    return GanttChart(["".join(r) for r in grid], makespan, col)


def bubble_summary(result: IterationResult) -> list[dict]:
    """Per-worker busy/idle table for reports."""
    rows = []
    idle = result.idle
    frac = result.idle_fraction()
    for i in range(result.num_workers):
        rows.append(
            {
                "worker": i,
                "busy_ms": float(result.busy[i]) * 1e3,
                "idle_ms": float(idle[i]) * 1e3,
                "idle_frac": float(frac[i]),
            }
        )
    return rows

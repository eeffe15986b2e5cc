"""Out-of-memory errors.

The OOM cells in Fig. 4 (a model that does not fit on 2 GPUs) surface
as :class:`PlacementOOMError`; the bytes behind the verdict come from
:class:`~repro.model.memory.StageMemoryModel`.
"""

from __future__ import annotations


class OutOfMemoryError(RuntimeError):
    """Raised when an assignment exceeds a GPU's memory budget."""


class PlacementOOMError(OutOfMemoryError):
    """A placement decision does not fit the placed devices' memory.

    Raised by the :class:`~repro.training.trainer.Trainer` when an
    initial placement, an ``after_repack`` shrink, or an
    ``after_regrow`` re-admission produces a stage whose resident bytes
    — per the :class:`~repro.model.memory.StageMemoryModel` — exceed
    its ranks' capacity.  Carries the full per-stage report list so
    callers (and ``status="oom"`` sweep records) can see exactly which
    stage burst and by how much.
    """

    def __init__(self, context: str, reports: list) -> None:
        self.context = context
        self.reports = list(reports)
        failing = [r for r in self.reports if not r.fits]
        gib = float(1024**3)
        detail = "; ".join(
            f"stage {r.stage} needs {r.total_bytes / gib:.2f} GiB "
            f"> {r.capacity_bytes / gib:.2f} GiB"
            + (f" on ranks {list(r.ranks)}" if r.ranks else "")
            for r in failing[:4]
        )
        if len(failing) > 4:
            detail += f"; +{len(failing) - 4} more"
        super().__init__(
            f"{context}: {len(failing)}/{len(self.reports)} stage(s) "
            f"over memory capacity ({detail})"
        )

    def __reduce__(self):
        # default exception pickling replays self.args (the formatted
        # message) into __init__, which expects (context, reports)
        return (type(self), (self.context, self.reports))

"""File I/O primitives: atomic JSON writes, bounded retry.

Every result-cache entry and every cross-host artifact of a sharded
sweep (plan, done markers, heartbeats, poison markers) goes through
:func:`atomic_write_text` (:func:`atomic_write_json` for a dict) —
written to a unique temp file, fsync'd, then ``os.replace``d into
place — so a reader never observes a torn file, only the old state or
the new one.

Networked filesystems hiccup: :func:`with_io_retry` re-runs an
``OSError``-raising operation per a
:class:`~repro.orchestrator.retry.RetryPolicy`, routing the
deterministic backoff through the fault-observable
:func:`repro.orchestrator.faults.sleep` exactly like the sweep
runner's pool retries.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.orchestrator import faults
from repro.orchestrator.retry import RetryPolicy

T = TypeVar("T")

#: distinguishes concurrent writers within one process
_TMP_COUNTER = itertools.count()


def atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write ``payload`` as JSON at ``path`` atomically (fsync'd)."""
    # json.dumps encodes in C; json.dump into a file always takes the
    # pure-Python encoder
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` at ``path`` atomically (fsync'd)."""
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}."
        f"{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        # a failed write/replace must not orphan the temp file; after a
        # successful replace the name is gone and this is a no-op
        tmp.unlink(missing_ok=True)


def read_json(path: Path) -> dict[str, Any] | None:
    """Parse a JSON file; None when missing, unparseable, or not a dict.

    Atomic writers mean an unreadable file is damage (or a foreign
    file), never an in-progress write — callers decide whether that is
    a skip or an error.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def with_io_retry(
    fn: Callable[[], T], retry: RetryPolicy, *, what: str
) -> T:
    """Run ``fn``, retrying ``OSError`` per ``retry`` with backoff.

    Shared-directory contention (NFS hiccups, brief EBUSY/ESTALE) is a
    transient fault exactly like a broken pool: re-run with the
    policy's deterministic exponential backoff, then give up and let
    the error carry ``what`` for context.
    """
    failures = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            failures += 1
            if failures >= retry.max_attempts:
                raise OSError(
                    f"{what} failed after {failures} attempt(s): {exc}"
                ) from exc
            faults.sleep(retry.delay_s(failures))

"""Assert two sweep JSON exports are byte-identical modulo wall time.

The in-process loop (``repro sweep --jobs 0`` or ``--jobs 1``) must
produce exactly the records the pooled and sharded paths produce — same
specs, statuses and metrics — differing only in the wall-clock fields
(``duration_s``, ``cached``) that depend on how the sweep was executed.
CI runs the same grid through both backends and gates on this script.

Usage::

    python scripts/compare_sweep_json.py sweep-pooled.json sweep-inline.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: record fields that legitimately differ between execution backends
WALL_TIME_FIELDS = ("duration_s", "cached")


def _normalise(record: dict) -> dict:
    out = {k: v for k, v in record.items() if k not in WALL_TIME_FIELDS}
    return out


def compare(a: dict, b: dict) -> list[str]:
    """Returns human-readable mismatch descriptions (empty = identical)."""
    problems: list[str] = []
    ra, rb = a.get("records", []), b.get("records", [])
    if len(ra) != len(rb):
        return [f"record counts differ: {len(ra)} vs {len(rb)}"]
    for i, (x, y) in enumerate(zip(ra, rb)):
        nx, ny = _normalise(x), _normalise(y)
        if nx == ny:
            continue
        keys = sorted(
            k for k in set(nx) | set(ny) if nx.get(k) != ny.get(k)
        )
        label = x.get("spec", {}).get("scenario", "?")
        problems.append(f"record {i} ({label}/{x.get('spec_hash')}): differs in {keys}")
        for k in keys[:3]:
            problems.append(f"    {k}: {nx.get(k)!r} != {ny.get(k)!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("left", help="sweep JSON export (e.g. pooled run)")
    ap.add_argument("right", help="sweep JSON export (e.g. --jobs 0 run)")
    args = ap.parse_args(argv)
    with open(args.left) as fh:
        left = json.load(fh)
    with open(args.right) as fh:
        right = json.load(fh)
    problems = compare(left, right)
    for line in problems:
        print(f"MISMATCH: {line}")
    if not problems:
        print(
            f"{args.left} == {args.right} "
            f"({len(left.get('records', []))} records, modulo wall-time fields)"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

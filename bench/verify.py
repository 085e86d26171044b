"""Output checks: the committed reference, range invariants, determinism.

Every problem found is one entry in the returned list; the benchmark reports
their number as output_mismatch and fails the run when it is not zero.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import ID, MC, RUNTIME, VALUE, Row

REL_TOL = 1e-7  # loosest frozen bound tolerance in tests/test_experiments.py


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def invariants(rows: list[Row]) -> list[str]:
    """Every number is finite and every bound lies inside its [lo, hi]."""
    bad = []
    for row in rows:
        for name, cell in row.cells.items():
            x = _number(cell.text)
            if x is None:
                if cell.kind in (VALUE, RUNTIME):
                    bad.append(f"{row.key}.{name}: not a number ({cell.text!r})")
                continue
            if not math.isfinite(x):
                bad.append(f"{row.key}.{name}: not finite ({cell.text})")
            elif cell.kind == VALUE and not cell.lo <= x <= cell.hi:
                bad.append(f"{row.key}.{name}: {x!r} outside [{cell.lo!r}, {cell.hi!r}]")
    return bad


def against_reference(rows: list[Row], reference: list[dict], exact_mc: bool) -> list[str]:
    """Compare with the reference; Monte Carlo cells only when exact_mc."""
    bad = []
    ref = {r["key"]: r["cells"] for r in reference}
    live = {r.key: r for r in rows}
    for key in sorted(ref.keys() - live.keys()):
        bad.append(f"{key}: missing row")
    for key in sorted(live.keys() - ref.keys()):
        bad.append(f"{key}: unexpected row")
    for key in sorted(ref.keys() & live.keys()):
        cells = live[key].cells
        want = ref[key]
        if set(cells) != set(want):
            bad.append(f"{key}: columns {sorted(cells)} != {sorted(want)}")
            continue
        for name, cell in cells.items():
            expected = want[name][1]
            if cell.kind == ID or (cell.kind == MC and exact_mc):
                if cell.text != expected:
                    bad.append(f"{key}.{name}: {cell.text} != {expected}")
            elif cell.kind == VALUE:
                got, exp = _number(cell.text), _number(expected)
                if got is None or exp is None or abs(got - exp) > REL_TOL * max(abs(exp), 1e-300):
                    bad.append(f"{key}.{name}: {cell.text} differs from {expected} by more than rel {REL_TOL}")
    return bad


def repeats(first: list[Row], again: list[Row]) -> list[str]:
    """A repeated batch at the same seed must give the same bytes."""
    bad = []
    a = {r.key: r.cells for r in first}
    b = {r.key: r.cells for r in again}
    if a.keys() != b.keys():
        bad.append(f"repeat changed the rows: {sorted(a.keys() ^ b.keys())}")
    for key in sorted(a.keys() & b.keys()):
        for name, cell in a[key].items():
            other = b[key].get(name)
            if cell.kind != RUNTIME and (other is None or other.text != cell.text):
                bad.append(f"{key}.{name}: repeat gave {other and other.text} after {cell.text}")
    return bad


def to_json(rows: list[Row]) -> list[dict]:
    """Rows as stored in the reference; wall-clock cells are left blank."""
    return [
        {"key": r.key, "cells": {n: [c.kind, "" if c.kind == RUNTIME else c.text] for n, c in r.cells.items()}}
        for r in rows
    ]


def load_reference(path: Path) -> dict[str, list[dict]]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))

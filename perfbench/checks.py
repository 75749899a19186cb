"""Output checks written independently of ``bcpp.model``.

Every record is re-evaluated from the bar numerators the benchmark itself
generated: the placement must name each chart once at a positive cell, no
cell may sum above the denominator, the occupied cells must number the
reported length, and that length may not fall below the benchmark's own
lower bound.  A proved optimum (``ref_kind = OPT``) may not exceed any
algorithm's length on its instance, nor fall below the bound.
"""

from __future__ import annotations

import dataclasses
import hashlib

from bcpp import harness

from .workloads import ChartData


def own_bound(data: ChartData) -> int:
    """max(ceil(area), bars above 1/2, 2): valid for every packing."""
    total = sum(a + b for a, b in data.bars)
    above_half = sum((2 * a > data.den) + (2 * b > data.den) for a, b in data.bars)
    return max(-(-total // data.den), above_half, 2)


def placement_problem(data: ChartData, placement: dict[int, int], length: int,
                      ) -> str | None:
    """Return why ``placement`` with claimed ``length`` is wrong, or None."""
    n = len(data.bars)
    if sorted(placement) != list(range(1, n + 1)):
        return "placement does not name charts 1..n exactly once"
    cells: dict[int, int] = {}
    for cid, (a, b) in enumerate(data.bars, start=1):
        pos = placement[cid]
        if pos < 1:
            return f"chart {cid} at non-positive cell {pos}"
        cells[pos] = cells.get(pos, 0) + a
        cells[pos + 1] = cells.get(pos + 1, 0) + b
    over = [c for c, total in cells.items() if total > data.den]
    if over:
        return f"cell {min(over)} holds more than {data.den}/{data.den}"
    if len(cells) != length:
        return f"reported length {length}, occupied cells {len(cells)}"
    if length < own_bound(data):
        return f"length {length} below the lower bound {own_bound(data)}"
    return None


def check_records(records: list[harness.RunRecord],
                  charts: dict[str, ChartData]) -> list[str]:
    """Problems found in ``records``; an empty list means all passed."""
    problems = []
    shortest: dict[str, int] = {}
    optimum: dict[str, int] = {}
    for rec in records:
        data = charts.get(rec.label)
        if data is None:
            problems.append(f"{rec.label}/{rec.algorithm}: unknown instance")
            continue
        why = placement_problem(data, rec.placement, rec.length)
        if why:
            problems.append(f"{rec.label}/{rec.algorithm}: {why}")
        shortest[rec.label] = min(rec.length, shortest.get(rec.label, rec.length))
        if rec.ref_kind == "OPT":
            optimum[rec.label] = rec.reference
    for label, opt in sorted(optimum.items()):
        if opt > shortest[label]:
            problems.append(f"{label}: proved optimum {opt} above a found "
                            f"length {shortest[label]}")
        if opt < own_bound(charts[label]):
            problems.append(f"{label}: proved optimum {opt} below the lower bound")
    return problems


def records_csv_untimed(records: list[harness.RunRecord]) -> str:
    """The records CSV with ``elapsed_ms`` blanked, as ``timing = off`` writes it."""
    return harness.format_records_csv(
        [dataclasses.replace(r, elapsed_ms=None) for r in records])


def digest(csv_texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in csv_texts:
        h.update(text.encode())
    return h.hexdigest()

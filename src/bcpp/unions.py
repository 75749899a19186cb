"""t-unions of bar charts: overlap feasibility and merging.

Two charts form a t-union when the last t bars of the left chart share their
cells with the first t bars of the right chart and every shared cell stays
within height 1.  Merging a feasible t-union yields one chart whose width is
the sum of the two widths minus t.
"""

from __future__ import annotations

from .model import BarChart


def union_feasible(left: BarChart, right: BarChart, t: int) -> bool:
    """True iff every overlapped cell sum stays within the strip height."""
    if left.den != right.den:
        raise ValueError("charts must share one denominator")
    if not 1 <= t <= min(left.width, right.width):
        raise ValueError(f"overlap t={t} out of range for widths "
                         f"{left.width}, {right.width}")
    base = left.width - t
    return all(left.bars[base + j] + right.bars[j] <= left.den for j in range(t))


def merge_union(left: BarChart, right: BarChart, t: int) -> BarChart:
    """Merge a feasible t-union into one chart.

    Bars in the overlap carry the height sums; the merged chart keeps both
    origin sets (right offsets shifted past the left chart) and takes the
    smallest origin id as its id.  When ``union_feasible`` says no, it raises
    ``ValueError`` naming the first overflowing cell.
    """
    feasible = union_feasible(left, right, t)  # raises on mixed D or bad t
    base = left.width - t
    overlap = tuple(left.bars[base + j] + right.bars[j] for j in range(t))
    if not feasible:
        j = next(j for j, total in enumerate(overlap) if total > left.den)
        raise ValueError(f"cell {base + j} of the union "
                         f"holds {overlap[j]}/{left.den} > 1")

    bars = left.bars[:base] + overlap + right.bars[t:]
    origins = left.origins + tuple((oid, off + base) for oid, off in right.origins)
    return BarChart(id=min(oid for oid, _ in origins), bars=bars, den=left.den,
                    origins=origins)

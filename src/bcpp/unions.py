"""t-unions of chart rows.

Two charts form a t-union when the last t bars of the left chart share their
cells with the first t bars of the right chart and every shared cell stays
within height 1.  The union is one chart, t bars narrower than the two side
by side.  Only t in {1, 2} is ever tried, and only on a pair the union graph
found feasible, so the merge reads a chart's first two and last two bars
and checks nothing.
"""

from __future__ import annotations

from .model import ChartRow


def merge_union(left: ChartRow, right: ChartRow, t: int) -> ChartRow:
    """The row of the t-union (t in {1, 2}) of two rows, two bars wide or wider.

    ``(b0, b1)[:width - 2] + (b2, b3)`` is a row's every bar up to width 4,
    and its first two and last two beyond, so the union's outer bars come from
    the outer chart or the overlap sums as the widths decide.  The id is the
    least, and the right origins move past the left chart's other bars.
    """
    lid, a0, a1, a2, a3, lw, lo = left
    rid, b0, b1, b2, b3, rw, ro = right
    head = ((a0, a1)[:lw - 2] + (a2, a3))[:-t]
    tail = ((b0, b1)[:rw - 2] + (b2, b3))[t:]
    bars = head + ((a2 + b0, a3 + b1) if t == 2 else (a3 + b0,)) + tail
    return (min(lid, rid), *bars[:2], *bars[-2:], lw + rw - t,
            lo + tuple((oid, off + lw - t) for oid, off in ro))

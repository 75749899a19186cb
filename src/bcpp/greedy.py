"""Greedy packing with lexicographic preordering (GA_LO).

Charts are sorted so that the height pairs (a, b) are lexicographically
non-increasing.  The first chart of the order is placed at cell 1; then,
round by round, every unplaced chart is (conceptually) probed for its
leftmost feasible first-bar cell and the chart reaching the smallest cell is
fixed there, ties broken by the smaller position in the order.  Placed
charts never move.

The cells of successive rounds never decrease: the cell c chosen in a round
is the minimum of every unplaced chart's leftmost feasible cell, and since
occupancy only grows, no chart fits left of c in any later round.  So the
rounds are one left-to-right sweep over cells: at cell c, the next chart
placed is the first unplaced chart in the order that fits at c, and when
none fits the sweep moves on to c + 1.  The first bars are non-increasing
along the order, so the charts whose first bar fits at c form a suffix of
it, found by one bisection; a forward scan over that suffix takes the first
unplaced chart whose second bar fits too.  The scan skips placed charts
through next-unplaced links, which ``model.find`` follows and halves, so
it tests only unplaced charts.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import Instance, Placement, Solved, find


def lex_order(instance: Instance) -> tuple[int, ...]:
    """Chart ids sorted by non-increasing (a, b), ties by ascending id: the
    ids are 1..n in slot order, and a reverse sort keeps ties in input order."""
    bars = list(zip(instance.a, instance.b)).__getitem__  # chart k + 1's (a, b)
    return tuple(k + 1 for k in sorted(range(instance.n), key=bars, reverse=True))


def ga_lo(instance: Instance) -> Solved:
    den, n, a, b = instance.den, instance.n, instance.a, instance.b
    order = lex_order(instance)
    neg_firsts = [-a[cid - 1] for cid in order]  # non-decreasing
    seconds = [b[cid - 1] for cid in order]
    # nxt leads from any position to the first unplaced one at or after it;
    # a placed position links to the next, and n stands for "none left"
    nxt = list(range(n + 1))

    # occ[c] = numerator sum at cell c; occ[0] unused.  After k placements
    # no cell beyond 2k is occupied, so the next chart fits at 2k + 1 at the
    # latest and the sweep reads no cell past 2n.
    occ = [0] * (2 * n + 2)
    placement: Placement = {}
    probes = 0  # unplaced charts tested
    cell = 1
    while len(placement) < n:
        room = den - occ[cell + 1]
        pos = find(nxt, bisect_left(neg_firsts, occ[cell] - den))  # first bars fit
        while pos < n:
            probes += 1
            if seconds[pos] <= room:
                break
            pos = find(nxt, pos + 1)
        else:
            cell += 1
            continue
        nxt[pos] = pos + 1
        placement[order[pos]] = cell
        occ[cell] -= neg_firsts[pos]
        occ[cell + 1] += seconds[pos]

    return Solved(placement=placement, length=sum(1 for h in occ if h),
                  probes=probes)

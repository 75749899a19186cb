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
unplaced chart whose second bar fits too.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import Instance, Placement, Solved


def lex_order(instance: Instance) -> tuple[int, ...]:
    """Chart ids sorted by non-increasing (a, b), ties by ascending id."""
    return tuple(ch.id for ch in sorted(
        instance.charts, key=lambda c: (-c.bars[0], -c.bars[1], c.id)))


def ga_lo(instance: Instance) -> Solved:
    den, n = instance.den, instance.n
    order = lex_order(instance)
    bars = {ch.id: ch.bars for ch in instance.charts}
    neg_firsts = [-bars[cid][0] for cid in order]  # non-decreasing
    seconds = [bars[cid][1] for cid in order]
    free = [True] * n

    # occ[c] = numerator sum at cell c; occ[0] unused.  After k placements
    # no cell beyond 2k is occupied, so the next chart fits at 2k + 1 at the
    # latest and the sweep reads no cell past 2n.
    occ = [0] * (2 * n + 2)
    placement: Placement = {}
    probes = 0
    cell = 1
    while len(placement) < n:
        room = den - occ[cell + 1]
        start = bisect_left(neg_firsts, occ[cell] - den)  # first bars fit from here
        for pos in range(start, n):
            if free[pos] and seconds[pos] <= room:
                break
        else:
            probes += n - start
            cell += 1
            continue
        probes += pos - start + 1
        free[pos] = False
        placement[order[pos]] = cell
        occ[cell] -= neg_firsts[pos]
        occ[cell + 1] += seconds[pos]

    return Solved(placement=placement, length=sum(1 for h in occ if h),
                  probes=probes)

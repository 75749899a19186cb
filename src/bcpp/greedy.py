"""Greedy packing with lexicographic preordering (GA_LO).

Charts are sorted so that the height pairs (a, b) are lexicographically
non-increasing.  The first chart of the order is placed at cell 1; then,
round by round, every unplaced chart is (conceptually) probed for its
leftmost feasible first-bar cell and the chart reaching the smallest cell is
fixed there, ties broken by the smaller position in the order.  Placed
charts never move.

The implementation keeps a lazy heap of (cached leftmost cell, order
position) entries.  Occupancy only ever grows, so a chart's leftmost
feasible cell is monotone over time and cached cells are lower bounds; an
entry popped from the heap is re-probed from its resume pointer and either
confirmed (then placed) or pushed back with the corrected cell.  This yields
exactly the argmin of the round-based description while keeping the total
number of feasibility probes O(n^2).
"""

from __future__ import annotations

import heapq

from .model import Instance, Placement, Solved


def lex_order(instance: Instance) -> tuple[int, ...]:
    """Chart ids sorted by non-increasing (a, b), ties by ascending id."""
    return tuple(ch.id for ch in sorted(
        instance.charts, key=lambda c: (-c.bars[0], -c.bars[1], c.id)))


def ga_lo(instance: Instance) -> Solved:
    den = instance.den
    order = lex_order(instance)
    bars = {ch.id: ch.bars for ch in instance.charts}

    # occ[c] = numerator sum at cell c; occ[0] unused.  After k placements
    # no cell beyond 2k is occupied, so the next chart fits at 2k + 1 at the
    # latest and no probe reads past cell 2n.
    occ = [0] * (2 * instance.n + 2)
    probes = 0

    def leftmost(cid: int, start: int) -> int:
        nonlocal probes
        a, b = bars[cid]
        c = start
        while True:
            probes += 1
            if occ[c] + a <= den and occ[c + 1] + b <= den:
                return c
            c += 1

    def place(cid: int, cell: int) -> None:
        a, b = bars[cid]
        occ[cell] += a
        occ[cell + 1] += b

    placement: Placement = {order[0]: 1}
    place(order[0], 1)

    resume = {cid: 1 for cid in order}
    heap = [(1, pos, cid) for pos, cid in enumerate(order[1:], start=2)]
    heapq.heapify(heap)

    while heap:
        cached, pos, cid = heapq.heappop(heap)
        cell = leftmost(cid, resume[cid])
        resume[cid] = cell
        if cell == cached:
            placement[cid] = cell
            place(cid, cell)
        else:
            heapq.heappush(heap, (cell, pos, cid))

    return Solved(placement=placement, length=sum(1 for h in occ if h),
                  probes=probes)

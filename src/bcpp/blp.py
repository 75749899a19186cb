"""Boolean linear program for minimal-length packing, plus exact solvers.

The model uses binaries x_{i,j} (first bar of chart i sits in cell j) and
y_j (cell j holds at least one bar) over a finite cell horizon J:

    minimize   sum_j y_j
    subject to sum_j x_{i,j} = 1                                 for every chart i
               sum_i a_i x_{i,j} + sum_k b_k x_{k,j-1} <= D y_j  for every cell j

where a_i/D and b_i/D are chart i's heights.  First-bar cells range over
1..J-1 so second bars never leave the horizon.
``export_lp`` renders solver-ready LP text; ``solve_exact`` is a small
branch-and-bound for desk-scale instances; ``oracle_opt`` is an independent
exhaustive optimizer used as ground truth in tests and keeps no code in
common with the branch-and-bound.
"""

from __future__ import annotations

import math
import time

from .greedy import ga_lo
from .model import Instance, Solved, compact, lower_bounds


def export_lp(instance: Instance, horizon: int | None = None) -> str:
    """Deterministic LP text for the model over ``horizon`` cells.

    The horizon defaults to the greedy packing length, which some optimal
    packing always fits into once compacted.  Every capacity row is scaled
    by the denominator, so each coefficient is an exact integer (a bar's
    numerator, and ``den`` on ``y_j``) and one unit of overflow violates its
    row by a whole unit, never by a tolerance.
    """
    if horizon is None:
        horizon = ga_lo(instance).length
    if horizon < lower_bounds(instance):
        raise ValueError(f"horizon {horizon} below the combined lower bound")
    cells = range(1, horizon + 1)
    first_cells = range(1, horizon)  # legal first-bar cells
    out = ["Minimize", " obj: " + " + ".join(f"y_{j}" for j in cells),
           "Subject To"]
    for cid in range(1, instance.n + 1):
        terms = " + ".join(f"x_{cid}_{j}" for j in first_cells)
        out.append(f" assign_{cid}: {terms} = 1")
    for j in cells:
        terms = []
        if j in first_cells:
            terms += [f"{h} x_{cid}_{j}" for cid, h in enumerate(instance.a, 1)]
        if j - 1 in first_cells:
            terms += [f"{h} x_{cid}_{j - 1}" for cid, h in enumerate(instance.b, 1)]
        out.append(f" cap_{j}: " + " + ".join(terms)
                   + f" - {instance.den} y_{j} <= 0")
    out.append("Binary")
    for cid in range(1, instance.n + 1):
        out.extend(f" x_{cid}_{j}" for j in first_cells)
    out.extend(f" y_{j}" for j in cells)
    out.append("End")
    return "\n".join(out) + "\n"


def solve_exact(instance: Instance, time_limit: float = 0.0,
                node_limit: int = 0) -> Solved:
    """Branch-and-bound over chart placements.

    Charts are branched largest first (non-increasing a + b, then a, then id:
    the largest fail soonest, as in Martello & Toth's MTP) in ascending cells,
    bounded by the incumbent, which the greedy solution seeds (a strictly
    better compacted packing never needs a cell beyond incumbent - 2).  A node
    is cut when the cells already occupied, plus the unplaced big bars that
    find no under-half cell among them, reach the incumbent.  The root bound,
    ``lower_bounds(instance)`` = max(L2, adjacency), holds at every
    node: the search returns with 0 nodes when the greedy length meets it, and
    once an incumbent meets it every node is cut.  A limit of 0 means none (a
    negative, NaN or infinite one raises ``ValueError``), and with no limits
    the result is optimal; when a limit expires the incumbent is returned with
    the root bound.  The result's ``length`` and ``placement`` are the
    incumbent, beside its ``lower_bound`` and ``node_count``.  The path is
    kept on an explicit stack, so any n is within recursion limits.
    """
    for name, limit in (("time_limit", time_limit), ("node_limit", node_limit)):
        if not 0 <= limit < math.inf:  # nor is a NaN
            raise ValueError(f"{name} must be at least 0 and finite, got {limit}")
    start = time.perf_counter()
    den, n = instance.den, instance.n
    root = lower_bounds(instance)

    greedy = ga_lo(instance)
    best_len = greedy.length
    best_placement = greedy.placement  # GA_LO leaves no gap to compact
    if best_len == root:
        return Solved(placement=best_placement, length=best_len,
                      lower_bound=best_len, node_count=0)

    ids = sorted(range(1, n + 1), reverse=True, key=lambda c: (  # ties keep id order
        instance.a[c - 1] + instance.b[c - 1], instance.a[c - 1]))
    # each chart's bars, and the most a cell may hold before each goes in
    rows = [(a, b, den - a, den - b)
            for a, b in ((instance.a[cid - 1], instance.b[cid - 1]) for cid in ids)]
    # identical charts, adjacent in ids, take non-decreasing positions
    same = [k > 0 and rows[k - 1] == rows[k] for k in range(n)]
    half = (den - 1) // 2  # a cell holding at most this is under half full
    big_suffix = [0] * (n + 1)  # bars above 1/2 among charts ids[k:]
    for k in range(n - 1, -1, -1):
        big_suffix[k] = big_suffix[k + 1] + sum(2 * h > den for h in rows[k][:2])
    # occupied + ceil((area - occupied*den) / den) is max(occupied, area_lb),
    # and area_lb <= root, which never moves: so root is tested once per incumbent
    cut_at = best_len  # best_len > root here; 0 cuts every node

    occ = [0] * (2 * n + 2)
    cell = [1] * n  # the cell chart k sits in, or the one it tries next
    # with charts ids[:k] placed: cells in use, and those under half full;
    # set on each place from depth k's, so unplacing only restores occ
    occupied = [0] * (n + 1)
    big_slots = [0] * (n + 1)

    k = nodes = 0
    while k >= 0:
        a, b, room_a, room_b = rows[k]
        pos = cell[k]
        last = best_len - 2
        while pos <= last:
            oa = occ[pos]
            if oa > room_a:
                pos += 1
                continue
            ob = occ[pos + 1]
            if ob > room_b:
                pos += 1
                continue
            nodes += 1
            if (node_limit and nodes >= node_limit
                    or time_limit and time.perf_counter() - start > time_limit):
                return Solved(placement=best_placement, length=best_len,
                              lower_bound=root, node_count=nodes)
            used = occupied[k] + (oa == 0) + (ob == 0)
            if k + 1 == n:  # a full packing: keep it if it is shorter
                if used < best_len:
                    best_len, last = used, used - 2
                    cut_at = best_len if root < best_len else 0
                    cell[k] = pos
                    best_placement = compact(instance, dict(zip(ids, cell)))
                pos += 1
                continue
            na, nb = oa + a, ob + b
            slots = (big_slots[k] + (na <= half) + (nb <= half)
                     - (0 < oa <= half) - (0 < ob <= half))
            rest = big_suffix[k + 1] - slots
            if used + (rest if rest > 0 else 0) >= cut_at:  # cut, before any write
                pos += 1
                continue
            occ[pos], occ[pos + 1] = na, nb
            occupied[k + 1], big_slots[k + 1], cell[k] = used, slots, pos
            k += 1
            cell[k] = pos if same[k] else 1
            break
        else:  # chart k tried every cell: back to k - 1
            k -= 1
            if k >= 0:
                pos = cell[k]
                occ[pos] -= rows[k][0]
                occ[pos + 1] -= rows[k][1]
                cell[k] = pos + 1
    return Solved(placement=best_placement, length=best_len,
                  lower_bound=best_len, node_count=nodes)


def oracle_opt(instance: Instance) -> int:
    """Exhaustive minimal packing length for tiny instances (n <= 10).

    Walks the strip cell by cell over all ways to choose which unplaced
    charts start in the current cell, carrying the second-bar load into the
    next cell; by the run-shifting argument this covers every placement up
    to translation.  Memoization only merges identical leftover states, so
    the optimization stays exhaustive.
    """
    n = instance.n
    if n > 10:
        raise ValueError(f"oracle refuses n={n} > 10 charts")
    den, a, b = instance.den, instance.a, instance.b

    size = 1 << n
    a_sum = [0] * size
    b_sum = [0] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        a_sum[mask] = a_sum[rest] + a[low]
        b_sum[mask] = b_sum[rest] + b[low]

    memo: dict[tuple[int, int], int] = {}

    def best(mask: int, carry: int) -> int:
        if mask == 0:
            return 1 if carry > 0 else 0
        key = (mask, carry)
        cached = memo.get(key)
        if cached is not None:
            return cached
        res = 2 * n  # every chart alone never needs more
        sub = mask
        while True:
            # the started charts' first bars must fit here beside the carry,
            # and their second bars must fit together in the next cell
            if ((sub or carry) and carry + a_sum[sub] <= den
                    and b_sum[sub] <= den):
                cand = 1 + best(mask & ~sub, b_sum[sub])
                if cand < res:
                    res = cand
            if sub == 0:
                break
            sub = (sub - 1) & mask
        memo[key] = res
        return res

    return best(size - 1, 0)

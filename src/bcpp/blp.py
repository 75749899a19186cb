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
from dataclasses import dataclass

from .greedy import ga_lo, lex_order
from .model import Instance, Placement, compact, lower_bounds


@dataclass(frozen=True)
class BlpModel:
    n: int
    horizon: int
    den: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def x_count(self) -> int:
        return self.n * (self.horizon - 1)

    @property
    def y_count(self) -> int:
        return self.horizon

    @property
    def constraint_count(self) -> int:
        return self.n + self.horizon


@dataclass(frozen=True)
class ExactResult:
    best_length: int
    lower_bound: int
    elapsed_ms: float
    node_count: int
    placement: Placement

    @property
    def status(self) -> str:
        """``optimal`` exactly when the incumbent meets the proven bound."""
        return "optimal" if self.best_length == self.lower_bound else "bounded"

    def report_line(self) -> str:
        return (f"{self.status} {self.best_length} {self.lower_bound} "
                f"{self.node_count} {self.elapsed_ms:.1f}")


def build_blp(instance: Instance, horizon: int | None = None) -> BlpModel:
    """Build the model; the horizon defaults to the greedy packing length,
    which some optimal packing always fits into once compacted."""
    if horizon is None:
        horizon = ga_lo(instance).length
    if horizon < 2:
        raise ValueError(f"horizon {horizon} < 2 cannot hold a chart")
    if horizon < lower_bounds(instance).combined:
        raise ValueError(f"horizon {horizon} below the combined lower bound")
    return BlpModel(n=instance.n, horizon=horizon, den=instance.den,
                    a=tuple(ch.bars[0] for ch in instance.charts),
                    b=tuple(ch.bars[1] for ch in instance.charts))


def export_lp(model: BlpModel) -> str:
    """Deterministic LP text for the model.

    Every capacity row is scaled by the denominator, so each coefficient is
    an exact integer (a bar's numerator, and ``den`` on ``y_j``) and one unit
    of overflow violates its row by a whole unit, never by a tolerance.
    """
    first_cells = range(1, model.horizon)  # legal first-bar cells
    out = ["Minimize"]
    out.append(" obj: " + " + ".join(f"y_{j}" for j in range(1, model.horizon + 1)))
    out.append("Subject To")
    for i in range(1, model.n + 1):
        terms = " + ".join(f"x_{i}_{j}" for j in first_cells)
        out.append(f" assign_{i}: {terms} = 1")
    for j in range(1, model.horizon + 1):
        terms = []
        if j in first_cells:
            terms += [f"{model.a[i - 1]} x_{i}_{j}" for i in range(1, model.n + 1)]
        if j - 1 in first_cells:
            terms += [f"{model.b[i - 1]} x_{i}_{j - 1}"
                      for i in range(1, model.n + 1)]
        out.append(f" cap_{j}: " + " + ".join(terms) + f" - {model.den} y_{j} <= 0")
    out.append("Binary")
    for i in range(1, model.n + 1):
        out.extend(f" x_{i}_{j}" for j in first_cells)
    out.extend(f" y_{j}" for j in range(1, model.horizon + 1))
    out.append("End")
    return "\n".join(out) + "\n"


def solve_exact(instance: Instance, time_limit: float = 0.0,
                node_limit: int = 0) -> ExactResult:
    """Branch-and-bound over chart placements.

    Charts are branched in greedy lexicographic order with ascending cells,
    bounded by the current incumbent (a strictly better compacted packing
    never needs a cell beyond incumbent - 2).  The greedy solution seeds the
    incumbent.  A node is cut when the cells already occupied, plus the room
    the unplaced area still needs beyond the free capacity of those cells,
    plus the unplaced big bars that cannot share any cell, reach the
    incumbent.  A limit of 0 means none (a negative, NaN or infinite one
    raises ``ValueError``), and with no limits the result is optimal; when a
    limit expires the incumbent is returned with the bound proven before the
    search.  The path is kept on an explicit stack, so any n is within
    recursion limits.
    """
    for name, limit in (("time_limit", time_limit), ("node_limit", node_limit)):
        if not 0 <= limit < math.inf:  # nor is a NaN
            raise ValueError(f"{name} must be at least 0 and finite, got {limit}")
    start = time.perf_counter()
    den = instance.den
    combined = lower_bounds(instance).combined

    greedy = ga_lo(instance)
    best_len = greedy.length
    best_placement = greedy.placement  # GA_LO leaves no gap to compact
    nodes = 0

    def result(lower: int) -> ExactResult:
        elapsed = (time.perf_counter() - start) * 1000.0
        return ExactResult(best_length=best_len,
                           lower_bound=lower, elapsed_ms=elapsed,
                           node_count=nodes, placement=best_placement)

    if best_len == combined:
        return result(best_len)

    order = [instance.chart(cid) for cid in lex_order(instance)]
    n = len(order)
    area = sum(sum(c.bars) for c in order)  # numerator area of all charts
    big_suffix = [0] * (n + 1)  # bars above 1/2 among charts order[k:]
    for k in range(n - 1, -1, -1):
        big_suffix[k] = big_suffix[k + 1] + sum(2 * h > den for h in order[k].bars)

    occ = [0] * (2 * n + 2)
    positions = [0] * n
    next_pos = [0] * n  # the cell chart k tries next
    # with charts order[:k] placed: cells in use, and those under half full;
    # set on each place from depth k's, so unplacing only restores occ
    occupied = [0] * (n + 1)
    big_slots = [0] * (n + 1)

    def opens(k: int) -> bool:
        # reach depth k: keep a full packing or cut the node, else go on
        nonlocal best_len, best_placement
        if k == n:
            if occupied[n] < best_len:
                best_len = occupied[n]
                best_placement = compact(
                    instance, {order[i].id: positions[i] for i in range(n)})
            return False
        # all area beyond the used cells = unplaced area beyond their free room
        area_need = area - occupied[k] * den
        need_cells = -(-area_need // den) if area_need > 0 else 0
        if occupied[k] + max(need_cells, big_suffix[k] - big_slots[k]) >= best_len:
            return False
        # identical charts take non-decreasing positions
        next_pos[k] = positions[k - 1] if k and order[k - 1].bars == order[k].bars else 1
        return True

    k = 0 if opens(0) else -1
    while k >= 0:
        a, b = order[k].bars
        pos = next_pos[k]
        while pos <= best_len - 2 and (occ[pos] + a > den or occ[pos + 1] + b > den):
            pos += 1
        if pos > best_len - 2:  # chart k tried every cell: back to k - 1
            k -= 1
            if k >= 0:
                a, b = order[k].bars
                occ[positions[k]] -= a
                occ[positions[k] + 1] -= b
                next_pos[k] = positions[k] + 1
            continue
        nodes += 1
        if (node_limit and nodes >= node_limit
                or time_limit and time.perf_counter() - start > time_limit):
            return result(combined)
        oa, ob = occ[pos], occ[pos + 1]
        occ[pos] = na = oa + a
        occ[pos + 1] = nb = ob + b
        occupied[k + 1] = occupied[k] + (oa == 0) + (ob == 0)
        big_slots[k + 1] = (big_slots[k] + (2 * na < den) + (2 * nb < den)
                            - (0 < 2 * oa < den) - (0 < 2 * ob < den))
        positions[k] = pos
        if opens(k + 1):
            k += 1
        else:  # a leaf or a cut: take chart k off, try its next cell
            occ[pos], occ[pos + 1] = oa, ob
            next_pos[k] = pos + 1
    return result(best_len)


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
    den = instance.den
    a = [ch.bars[0] for ch in instance.charts]
    b = [ch.bars[1] for ch in instance.charts]

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

"""Shared test helpers: tiny constructors and independent brute-force oracles.

Everything here is deliberately naive and kept free of the library's own
search/pruning code so tests compare two genuinely different routes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from bcpp import (ArcDigraph, BarChart, BppInstance, Instance, Matching, PathCover,
                  Placement, Solved, UnionEdge, WeightedGraph, bigpipe,
                  build_union_graph, evaluate_packing, lex_order,
                  max_cardinality_matching, max_weight_matching)
from bcpp.blossom import match_edges
from bcpp.model import ChartRow


def mk(cid: int, a: int, b: int, den: int = 10) -> BarChart:
    return BarChart(id=cid, bars=(a, b), den=den)


def inst(*bars: tuple[int, int], den: int = 10, **kwargs) -> Instance:
    return Instance(a=tuple(a for a, _ in bars), b=tuple(b for _, b in bars),
                    den=den, **kwargs)


def is_big(chart: BarChart) -> bool:
    """True when some bar is strictly higher than 1/2."""
    return 2 * max(chart.bars) > chart.den


def edge_lists(n: int, edges: list[tuple[int, int, int]]) -> tuple[list, ...]:
    """``blossom.match_edges``'s lists from ``edges``, ``(i, j, weight)`` ints;
    a loop, a repeated pair, an endpoint outside ``0..n-1`` or not an int, or a
    weight not the int 1 or 2 raises ``ValueError``."""
    endpoint, wt2, adj, heavy = [], [], [[] for _ in range(n)], [[] for _ in range(n)]
    first: dict[tuple[int, int], int] = {}  # the first edge on each pair
    for k, (i, j, w) in enumerate(edges):
        if type(w) is not int or w not in (1, 2):
            raise ValueError(f"edge {k}: weights must be 1 or 2, not {w!r}")
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"edge {k}: endpoints must be ints, not ({i!r}, {j!r})")
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {k}: ({i}, {j}) is a loop or leaves 0..{n - 1}")
        if (k0 := first.setdefault((min(i, j), max(i, j)), k)) != k:
            raise ValueError(f"edge {k}: ({i}, {j}) repeats edge {k0}'s pair")
        endpoint += (i, j)
        wt2.append(2 * w)
        for lists in (adj, heavy) if w == 2 else (adj,):
            lists[i].append(2 * k)
            lists[j].append(2 * k + 1)
    return endpoint, wt2, adj, heavy


def max_weight_edges(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """Indices, ascending, of the edges in a maximum-weight matching of ``edges``."""
    return match_edges(*edge_lists(n, edges))


def graph_from_pairs(vertices, pairs: list[tuple[int, int, int]]) -> WeightedGraph:
    """From ``(left, right, weight)`` over positions, checked by ``edge_lists``."""
    return WeightedGraph(tuple(vertices), *edge_lists(len(vertices), pairs))


def graph_pairs(g: WeightedGraph) -> list[tuple[int, int, int]]:
    """``g``'s edges as ``(left, right, weight)`` over positions, in order."""
    return [(*g.endpoint[2 * k:2 * k + 2], w >> 1) for k, w in enumerate(g.wt2)]


def total_weight(matching: Matching) -> int:
    return sum(e.weight for e in matching.edges)


def union_graph(vertices, edges: list[UnionEdge] | tuple[UnionEdge, ...],
                ) -> WeightedGraph:
    """A graph from hand-made edges: sorted, with ids mapped to positions,
    each pair listing its ``left`` chart first."""
    verts = tuple(sorted(vertices))
    index = {x: i for i, x in enumerate(verts)}
    return graph_from_pairs(verts, [(index[e.left], index[e.right], e.weight)
                                    for e in sorted(edges)])


def random_union_graph(rng: random.Random, max_vertices: int = 10) -> WeightedGraph:
    """A graph on 2 to ``max_vertices`` vertices 1..n: each pair is an edge
    with probability 1/2, of weight 1 or 2, its smaller vertex on the left."""
    n = rng.randint(2, max_vertices)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < 0.5:
                w = rng.choice([1, 2])
                edges.append(UnionEdge(u=u, v=v, weight=w, left=u, right=v))
    return union_graph(range(1, n + 1), edges)


def two_union_graph(rows: list[ChartRow], den: int) -> WeightedGraph:
    """The union graph's 2-union edges alone, the graph whose maximum
    matchings A2's greedy finds: ``build_union_graph``'s weight-2 pairs,
    kept in order, so every edge is heavy."""
    g = build_union_graph(rows, den)
    return graph_from_pairs(g.vertices, [p for p in graph_pairs(g) if p[2] == 2])


def reference_bipartite_matching(lefts: list[int],
                                 adj: dict[int, list[int]]) -> dict[int, int]:
    """Hopcroft-Karp over dicts keyed by id, as ``bigpipe`` once ran it: an
    independent check of the size of ``bigpipe``'s greedy chain matching.

    Each phase layers every left vertex it can reach, then searches depth
    first from each free root in ``lefts`` order; a dead end leaves ``dist``.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    while True:
        dist = {u: 0 for u in lefts if u not in match_l}
        queue = list(dist)
        reachable = False
        for u in queue:  # the queue grows while it is read
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    reachable = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable:
            return match_l
        for root in lefts:
            if root in match_l:
                continue
            path, its = [root], [iter(adj[root])]
            while path:
                u = path[-1]
                for v in its[-1]:
                    w = match_r.get(v)
                    if w is None or dist.get(w) == dist[u] + 1:
                        break
                else:  # dead end
                    del dist[u]
                    path.pop()
                    its.pop()
                    continue
                if w is None:  # each left takes its successor's mate, the last v
                    for u in reversed(path):
                        match_l[u], v = v, match_l.get(u)
                        match_r[match_l[u]] = u
                    break
                path.append(w)
                its.append(iter(adj[w]))


def random_charts(rng: random.Random, n: int, den: int) -> list[BarChart]:
    """Charts of widths 1 to 4 with shuffled, gapped ids, as unions leave them.

    Bars are often exactly ``den`` or at most ``den / 2``, and about one chart
    in six repeats the bars of an earlier one.
    """
    charts = []
    for k in range(n):
        if charts and rng.random() < 0.15:
            bars = rng.choice(charts).bars
        else:
            bars = tuple(rng.choice((den, rng.randint(1, den),
                                     rng.randint(1, max(1, den // 2))))
                         for _ in range(rng.randint(1, 4)))
        charts.append(BarChart(id=3 * k + 1, bars=bars, den=den))
    rng.shuffle(charts)
    return charts


def literal_opt(instance: Instance) -> int:
    """Minimum length by plain enumeration of all placements in 1..2n."""
    n = instance.n
    best = 2 * n
    for pos in product(range(1, 2 * n + 1), repeat=n):
        ev = evaluate_packing(instance, {i + 1: p for i, p in enumerate(pos)})
        if ev.feasible and ev.length < best:
            best = ev.length
    return best


def area_lb(instance: Instance) -> int:
    """The area bound: the total bar height, rounded up to whole cells."""
    return math.ceil(Fraction(sum(instance.a) + sum(instance.b), instance.den))


def big_lb(instance: Instance) -> int:
    """The count of bars above 1/2, no two of which share a cell."""
    return sum(2 * h > instance.den for h in instance.a + instance.b)


def literal_l2(instance: Instance) -> int:
    """Martello & Toth's L2 over the 2n bars, trying every K in 0..D/2 and
    classifying every bar afresh for each."""
    den = instance.den
    bars = [*instance.a, *instance.b]
    best = 0
    for k in range(den // 2 + 1):
        fill_one = [h for h in bars if h > den - k]
        own_bin = [h for h in bars if den - k >= h and 2 * h > den]
        shared = [h for h in bars if 2 * h <= den and h >= k]
        over = sum(shared) - sum(den - h for h in own_bin)
        best = max(best, len(fill_one) + len(own_bin)
                   + max(0, math.ceil(Fraction(over, den))))
    return best


def literal_adjacency(instance: Instance) -> int:
    """The adjacency bound from its argument, over an explicit bipartite
    graph: the bars above D/2, plus the BS charts (only the first bar above
    D/2) that a maximum matching leaves with no big bar in their next cell,
    or the SB charts (only the second) left with none in the cell before,
    whichever are more.  BS chart i's next cell may hold the first bar of a
    chart j whose first bar is big, b_i + a_j <= D, i itself included, or
    the second bar of an SB chart k that starts beside i, a_i + a_k <= D and
    b_i + b_k <= D; the SB side is the same over the charts reversed."""
    den = instance.den
    unmatched = 0
    for a, b in ((instance.a, instance.b), (instance.b, instance.a)):
        charts = list(zip(a, b))
        big_first = [j for j, (x, _) in enumerate(charts) if 2 * x > den]
        bs = [i for i in big_first if 2 * charts[i][1] <= den]
        sb = [k for k, (x, y) in enumerate(charts) if 2 * x <= den < 2 * y]
        adj = {i: [("start", j) for j in big_first if charts[i][1] + a[j] <= den]
               + [("partner", k) for k in sb
                  if charts[i][0] + a[k] <= den and charts[i][1] + b[k] <= den]
               for i in bs}
        unmatched = max(unmatched, len(bs) - len(reference_bipartite_matching(bs, adj)))
    return sum(2 * h > den for h in instance.a + instance.b) + unmatched


def naive_ga_lo(instance: Instance) -> dict[int, int]:
    """Round-based greedy reference: rescan every unplaced chart per round."""
    den = instance.den
    order = lex_order(instance)
    occ: dict[int, int] = {}

    def leftmost(cid: int) -> int:
        a, b = instance.a[cid - 1], instance.b[cid - 1]
        c = 1
        while occ.get(c, 0) + a > den or occ.get(c + 1, 0) + b > den:
            c += 1
        return c

    def place(cid: int, cell: int) -> None:
        a, b = instance.a[cid - 1], instance.b[cid - 1]
        occ[cell] = occ.get(cell, 0) + a
        occ[cell + 1] = occ.get(cell + 1, 0) + b

    placement = {order[0]: 1}
    place(order[0], 1)
    unplaced = list(order[1:])
    while unplaced:
        _, pos, cid = min((leftmost(cid), pos, cid)
                          for pos, cid in enumerate(unplaced))
        placement[cid] = leftmost(cid)
        place(cid, placement[cid])
        unplaced.remove(cid)
    return placement


def brute_force_matching(edges: list[tuple[int, int, int]]) -> tuple[int, int]:
    """(max total weight, max cardinality) over all matchings, by recursion."""
    best_weight = 0
    best_card = 0

    def rec(k: int, used: frozenset[int], weight: int, card: int) -> None:
        nonlocal best_weight, best_card
        best_weight = max(best_weight, weight)
        best_card = max(best_card, card)
        for j in range(k, len(edges)):
            u, v, w = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, weight + w, card + 1)

    rec(0, frozenset(), 0, 0)
    return best_weight, best_card


def brute_force_path_cover_arcs(vertices: tuple[int, ...],
                                arcs: tuple[tuple[int, int], ...]) -> int:
    """Maximum arc count over all path covers, via bitmask DP (n <= 12)."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj = [[False] * n for _ in range(n)]
    for u, v in arcs:
        adj[index[u]][index[v]] = True

    size = 1 << n
    path_end = [[False] * n for _ in range(size)]  # mask forms a path ending at i
    for i in range(n):
        path_end[1 << i][i] = True
    for mask in range(size):
        for last in range(n):
            if path_end[mask][last]:
                for nxt in range(n):
                    if not mask >> nxt & 1 and adj[last][nxt]:
                        path_end[mask | 1 << nxt][nxt] = True
    is_path = [any(path_end[mask]) for mask in range(size)]

    INF = n + 1
    min_paths = [INF] * size
    min_paths[0] = 0
    for mask in range(1, size):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and is_path[sub] and min_paths[mask ^ sub] + 1 < min_paths[mask]:
                min_paths[mask] = min_paths[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return n - min_paths[size - 1]


@dataclass(frozen=True)
class PairWeight:
    """Best overlap for an unordered chart pair: weight 2, 1 or 0."""

    weight: int
    left: int
    right: int
    t: int


def pair_weight(i: BarChart, j: BarChart) -> PairWeight:
    """Per-pair reference for ``build_union_graph``'s row classifier.

    Weight 2 if some orientation admits a 2-union, else 1 for a 1-union,
    else 0.  When both orientations work at the winning overlap, the chart
    with the lower id goes left, which keeps results reproducible.
    """
    lo, hi = (i, j) if i.id < j.id else (j, i)
    for t in (2, 1):
        if t > min(i.width, j.width):
            continue
        for left, right in ((lo, hi), (hi, lo)):
            if union_feasible(left, right, t):
                return PairWeight(weight=t, left=left.id, right=right.id, t=t)
    return PairWeight(weight=0, left=lo.id, right=hi.id, t=0)


def check_path_cover(g: ArcDigraph, cover: PathCover) -> None:
    """Raise AssertionError unless ``cover`` is a valid path cover of ``g``."""
    arcset = set(g.arcs)
    seen: list[int] = []
    for path in cover.paths:
        seen.extend(path)
        for u, v in zip(path, path[1:]):
            if (u, v) not in arcset:
                raise AssertionError(f"cover uses missing arc ({u}, {v})")
    if sorted(seen) != sorted(g.vertices):
        raise AssertionError("cover does not partition the vertex set")


@dataclass(frozen=True)
class Merged(BarChart):
    """A chart the reference merge made: ``origins`` pairs each original
    chart id in it with the offset of its first bar."""

    origins: tuple[tuple[int, int], ...]


def origins(chart: BarChart) -> tuple[tuple[int, int], ...]:
    """A merged chart's origins; a raw chart is its own origin at offset 0."""
    return chart.origins if isinstance(chart, Merged) else ((chart.id, 0),)


def union_feasible(left: BarChart, right: BarChart, t: int) -> bool:
    """True iff every overlapped cell sum stays within the strip height."""
    if left.den != right.den:
        raise ValueError("charts must share one denominator")
    if not 1 <= t <= min(left.width, right.width):
        raise ValueError(f"overlap t={t} out of range for widths "
                         f"{left.width}, {right.width}")
    base = left.width - t
    return all(left.bars[base + j] + right.bars[j] <= left.den for j in range(t))


def merge_charts(left: BarChart, right: BarChart, t: int) -> Merged:
    """The reference merge of a feasible t-union of charts of any width.

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
    merged = origins(left) + tuple((oid, off + base) for oid, off in origins(right))
    return Merged(id=min(oid for oid, _ in merged), bars=bars, den=left.den,
                  origins=merged)


def reference_layout(charts) -> Placement:
    """The reference layout: charts by ascending id, left to right, each
    origin at its offset."""
    placement: Placement = {}
    base = 1
    for ch in sorted(charts, key=lambda c: c.id):
        for oid, off in origins(ch):
            placement[oid] = base + off
        base += ch.width
    return placement


def format_bpp_instance(bpp: BppInstance) -> str:
    """A bin-packing instance as ``parse_bpp_instance`` reads it: the item
    count, the capacity, then one size a line."""
    lines = [str(len(bpp.sizes)), str(bpp.capacity)]
    lines += [str(s) for s in bpp.sizes]
    return "\n".join(lines) + "\n"


def format_bpp_solution(bins) -> str:
    """A bin-packing solution as ``parse_bpp`` reads it: the bin count, then
    each bin's item indices on one line."""
    lines = [str(len(bins))]
    lines += [" ".join(str(i) for i in items) for items in bins]
    return "\n".join(lines) + "\n"


def chained_witness(bins) -> Placement:
    """The chained construction's packing, from its definition: with bins
    ranked by item count, rank r holds |bin r| minus the charts of rank
    r - 1, numbered on from them, and each of its charts starts in cell
    r + 1."""
    placement: Placement = {}
    count = 0
    for rank, size in enumerate(sorted(map(len, bins))[:-1]):
        count = size - count
        first = len(placement) + 1
        placement.update(dict.fromkeys(range(first, first + count), rank + 1))
    return placement


def as_rows(charts) -> tuple[tuple[ChartRow, ...], int]:
    """Charts of any width, merged ones with their origins, as the rows the
    solvers read, in ascending id, and their shared denominator: the
    reference for ``Instance.rows`` and ``Instance.den``, and the maker of
    rows from loose charts, which no instance holds.  A width-1
    chart, which no instance forms, gets D + 1 for its missing second bar,
    so no 2-union test passes; the union graph and the 1-union digraph read
    it as that chart."""
    dens = {c.den for c in charts}
    if len(dens) > 1:
        raise ValueError("charts must share one denominator")
    den = dens.pop() if dens else 1
    rows = []
    for c in sorted(charts, key=lambda c: c.id):
        bars = c.bars if c.width > 1 else (c.bars[0], den + 1, c.bars[0])
        rows.append((c.id, bars[0], bars[1], bars[-2], bars[-1], c.width, origins(c)))
    return tuple(rows), den


def row_charts(rows, den: int) -> list[Merged]:
    """Rows back as charts; a bar between the first two and the last two,
    which no union reads, is D."""
    return [Merged(cid, (b0,) if width == 1 else
                   (b0, b1)[:width - 2] + (den,) * (width - 4) + (b2, b3), den, kept)
            for cid, b0, b1, b2, b3, width, kept in rows]


def merge_along(charts, matching: Matching) -> list[Merged]:
    """The reference merge of every matched pair, in ascending id."""
    by_id = {c.id: c for c in charts}
    for e in matching.edges:
        by_id[e.u] = merge_charts(by_id[e.left], by_id[e.right], e.weight)
        del by_id[e.v]
    return sorted(by_id.values(), key=lambda c: c.id)


def reference_mw(instance: Instance, max_rounds: int | None = None) -> Solved:
    """Mw as it once ran: each round's matching merged chart by chart by the
    reference merge, its rows made anew from the merged charts, and the last
    charts laid out by the reference layout and kept as rows."""
    charts: list[BarChart] = list(instance.charts)
    unions: list[Matching] = []
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        graph = build_union_graph(*as_rows(charts))
        rounds += 1
        if not graph.wt2:
            break
        unions.append(max_weight_matching(graph))
        charts = merge_along(charts, unions[-1])
    return Solved(placement=reference_layout(charts),
                  length=sum(c.width for c in charts),
                  rounds=rounds, unions=tuple(unions), rows=as_rows(charts)[0])


def reference_greedy_formation(charts) -> tuple[tuple[ChartRow, ...], list[tuple[int, int]]]:
    """A2's formation on two-bar charts, written plainly: each round the
    charts come by descending first bar, ties by id, and each one no pair
    holds takes the chart no pair holds that 2-unites with it and has the
    largest (second bar, id); the pairs merge by the reference merge, the
    smaller id left, until a round finds none.  It keeps every unmatched
    chart on offer, so it also checks that none is taken later.  Returns the
    formed rows and, per round, the greedy's pair count beside the
    cardinality blossom's on the round's 2-union graph."""
    sizes = []
    while True:
        by_id, paired = {c.id: c for c in charts}, set()
        for i in sorted(charts, key=lambda c: (-c.bars[0], c.id)):
            if i.id in paired:
                continue
            fits = [j for j in charts if j.id != i.id and j.id not in paired
                    and union_feasible(i, j, 2)]
            if fits:
                j = max(fits, key=lambda c: (c.bars[1], c.id))
                u, v = sorted((i.id, j.id))
                by_id[u] = merge_charts(by_id[u], by_id.pop(v), 2)
                paired |= {u, v}
        graph = two_union_graph(*as_rows(charts))
        sizes.append((len(paired) // 2, len(max_cardinality_matching(graph).edges)))
        if not paired:
            return as_rows(charts)[0], sizes
        charts = sorted(by_id.values(), key=lambda c: c.id)


def reference_big_pipeline(formed, den: int) -> Solved:
    """``solve_big_pipeline`` as it once ran: every cover path merged into
    one chart by ``merge_charts``, then the charts laid out by
    ``reference_layout``.  It looks ``bigpipe.path_cover`` up on each call,
    so a test that replaces the cover replaces it here too."""
    by_id = {c.id: c for c in row_charts(formed, den)}
    final = []
    for path in bigpipe.path_cover(bigpipe.build_arc_digraph(formed, den)).paths:
        chart = by_id[path[0]]
        for nxt in path[1:]:
            chart = merge_charts(chart, by_id[nxt], 1)
        final.append(chart)
    return Solved(placement=reference_layout(final),
                  length=sum(c.width for c in final))


def reference_certify(endpoint, wt2, mate, dualvar, blossomparent, blossomdual,
                      ring) -> None:
    """``blossom._certify`` as it once ran, each edge read by index: the
    matching and the duals checked against the optimality conditions, with
    the same messages."""
    def fail(what: str) -> None:
        raise ArithmeticError(f"blossom matching not optimal: {what}")

    around = []  # the blossoms around each vertex whose dual is not 0
    for v, e in enumerate(mate):
        if e != -1 and (endpoint[e] != v or mate[endpoint[e ^ 1]] != e ^ 1):
            fail(f"vertex {v} is not matched symmetrically")
        if e == -1 and dualvar[v] != 0:
            fail(f"single vertex {v} has dual {dualvar[v]}")
        around.append(set())
        while (v := blossomparent[v]) != -1:
            if blossomdual[v]:
                around[-1].add(v)
    if min(dualvar, default=0) < 0 or min(blossomdual.values(), default=0) < 0:
        fail("negative dual")
    for k, w2 in enumerate(wt2):
        i, j = endpoint[2 * k], endpoint[2 * k + 1]
        s = dualvar[i] + dualvar[j] - w2
        if s < 0 or mate[i] >> 1 == k:  # else the blossom duals, >= 0, keep s >= 0
            s += 2 * sum(blossomdual[b] for b in around[i] & around[j])
            if s < 0 or (s != 0 and mate[i] >> 1 == k):
                fail(f"edge {k} has slack {s}")
    for b, z in blossomdual.items():
        if z > 0 and (len(ring[b]) % 2 == 0
                      or any(mate[endpoint[e]] >> 1 != e >> 1
                             for e in ring[b][1::2])):
            fail(f"blossom {b} has dual {z} but is not full")

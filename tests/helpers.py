"""Shared test helpers: tiny constructors and independent brute-force oracles.

Everything here is deliberately naive and kept free of the library's own
search/pruning code so tests compare two genuinely different routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from bcpp import (ArcDigraph, BarChart, Instance, PathCover, Solved, UnionEdge,
                  WeightedGraph, assemble_placement, bigpipe, evaluate_packing,
                  lex_order, merge_union, union_feasible)


def mk(cid: int, a: int, b: int, den: int = 10) -> BarChart:
    return BarChart(id=cid, bars=(a, b), den=den)


def inst(*bars: tuple[int, int], den: int = 10, **kwargs) -> Instance:
    charts = tuple(mk(i + 1, a, b, den) for i, (a, b) in enumerate(bars))
    return Instance(charts=charts, den=den, **kwargs)


def union_graph(vertices, edges: list[UnionEdge] | tuple[UnionEdge, ...],
                ) -> WeightedGraph:
    """A graph from hand-made edges: sorted, with ids mapped to positions,
    each pair listing its ``left`` chart first."""
    verts = tuple(sorted(vertices))
    index = {x: i for i, x in enumerate(verts)}
    return WeightedGraph(verts, [(index[e.left], index[e.right], e.weight)
                                 for e in sorted(edges)])


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


def naive_ga_lo(instance: Instance) -> dict[int, int]:
    """Round-based greedy reference: rescan every unplaced chart per round."""
    den = instance.den
    order = lex_order(instance)
    bars = {c.id: c.bars for c in instance.charts}
    occ: dict[int, int] = {}

    def leftmost(cid: int) -> int:
        a, b = bars[cid]
        c = 1
        while occ.get(c, 0) + a > den or occ.get(c + 1, 0) + b > den:
            c += 1
        return c

    def place(cid: int, cell: int) -> None:
        a, b = bars[cid]
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


def reference_big_pipeline(formed) -> Solved:
    """``solve_big_pipeline`` as it once ran: every cover path merged into
    one chart by ``merge_union``, then the charts laid out by
    ``assemble_placement``.  It looks ``bigpipe.path_cover`` up on each call,
    so a test that replaces the cover replaces it here too."""
    by_id = {c.id: c for c in formed}
    final = []
    for path in bigpipe.path_cover(bigpipe.build_arc_digraph(formed)).paths:
        chart = by_id[path[0]]
        for nxt in path[1:]:
            chart = merge_union(chart, by_id[nxt], 1)
        final.append(chart)
    return Solved(placement=assemble_placement(final),
                  length=sum(c.width for c in final))

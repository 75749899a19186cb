"""Big-chart pipelines A1 and A2.

Both algorithms first turn the instance into big charts (at least one bar
above 1/2), then chain the formed charts through 1-unions: a digraph holds
an arc (i, j) whenever chart i's last bar and chart j's first bar fit into
one cell, a path cover of that digraph is selected, and every path is merged
left to right.  Each selected arc saves one strip cell.  An ``ArcDigraph``
holds, per position in its ascending chart ids, the ascending positions of
the chart's successors, the lists the path cover reads; its ``arcs`` view
of id pairs, for dumps and tests, is built on read.  The build takes the
charts by ascending cap ``den - last``: one ascending list grows by every
first bar the cap admits, and each chart gets a copy less its own position.

A1 forms big charts in a single scan with a one-slot buffer: small charts
are pairwise 2-unioned (always feasible, all four bars are at most 1/2)
until the merge turns big, so at most one small chart survives.  A2 instead
repeats exact maximum-cardinality matchings on the 2-union graph until no
pair admits a 2-union.  Both formations return the formed charts as one
tuple, and ``solve_big_pipeline`` chains any such tuple, so A1 and A2 differ
only in the formation their ``harness.SOLVERS`` entry calls.

The path cover comes from a Hopcroft-Karp maximum bipartite matching on the
out-copy / in-copy split of the digraph, which yields a maximum set of arcs
with all in- and out-degrees at most 1 (vertex-disjoint paths and cycles);
one walk per path or cycle follows the matched arcs, and every cycle is
opened by dropping its lexicographically smallest arc.  Each phase's
breadth-first layering stops once every left vertex has a layer and a free
right vertex has been seen; the depth-first search reads only the layers,
which no later arc could change, so the mates are those of a full layering.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .model import BarChart, Solved, assemble_placement
from .matching import (build_union_graph, chart_rows, max_cardinality_matching,
                       merge_matched)
from .unions import merge_union


@dataclass(frozen=True)
class ArcDigraph:
    vertices: tuple[int, ...]
    successors: list[list[int]]  # ascending positions in ``vertices``

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc as ids, in (u, v) order; built anew on each read."""
        ids = self.vertices
        return tuple((u, ids[j]) for u, heads in zip(ids, self.successors)
                     for j in heads)


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint directed paths (singletons allowed) covering all vertices."""

    paths: tuple[tuple[int, ...], ...]
    cycles_broken: int = 0

    @property
    def arc_count(self) -> int:
        return sum(len(p) - 1 for p in self.paths)


def form_big_scan(charts: list[BarChart] | tuple[BarChart, ...],
                  ) -> tuple[BarChart, ...]:
    """One pass in id order; merges buffered small charts until they turn big.

    Returns the big charts in scan order, then the small leftover if any.
    """
    formed: list[BarChart] = []
    buffer: BarChart | None = None
    for ch in sorted(charts, key=lambda c: c.id):
        if ch.is_big:
            formed.append(ch)
        elif buffer is None:
            buffer = ch
        else:
            merged = merge_union(buffer, ch, 2)
            if merged.is_big:
                formed.append(merged)
                buffer = None
            else:
                buffer = merged
    return tuple(formed) if buffer is None else (*formed, buffer)


def form_big_matchings(charts: list[BarChart] | tuple[BarChart, ...],
                       ) -> tuple[BarChart, ...]:
    """Merge 2-union pairs via exact max-cardinality matchings until none remain."""
    current = list(charts)
    while True:
        graph = build_union_graph(current, two_unions_only=True)
        if not graph.pairs:
            return tuple(current)
        matching = max_cardinality_matching(graph)
        current = merge_matched(current, matching)


def build_arc_digraph(charts: list[BarChart] | tuple[BarChart, ...]) -> ArcDigraph:
    """Arc (i, j) iff the 1-union with i on the left is feasible: i's heads
    are the charts whose first bar fits its cap ``den - last``, less i."""
    rows, den = chart_rows(charts)
    n = len(rows)
    by_first = sorted(range(n), key=lambda i: rows[i][1])
    successors: list[list[int]] = [[]] * n
    heads, k = [], 0  # the positions whose first bar fits the cap, ascending
    for i in sorted(range(n), key=lambda i: -rows[i][4]):  # ascending cap
        cap = den - rows[i][4]
        while k < n and rows[by_first[k]][1] <= cap:
            insort(heads, by_first[k])
            k += 1
        successors[i] = own = heads.copy()
        if rows[i][1] <= cap:
            own.remove(i)
    return ArcDigraph(tuple(row[0] for row in rows), successors)


def dump_digraph(g: ArcDigraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.arcs)


def _max_bipartite_matching(adj: list[list[int]]) -> list[int]:
    """Hopcroft-Karp maximum matching on a bipartite graph over positions.

    ``adj[u]`` lists left vertex u's right neighbors in ascending order; the
    result maps each left vertex to its mate, -1 when it has none.  Each
    phase layers the left vertices breadth-first from the free ones, then
    searches depth first from each free root in position order, taking a
    free right vertex at any depth; a dead end (``dist`` -2) stays out for
    the rest of the phase.  The scan order is fixed, so the mates are
    deterministic.  The layering stops once every left vertex has a layer
    and a free right vertex has been seen: no later arc can change either,
    and the search reads nothing else of it.
    """
    n = len(adj)
    match_l, match_r = [-1] * n, [-1] * n
    while True:
        dist = [0 if m < 0 else -1 for m in match_l]
        queue = [u for u in range(n) if match_l[u] < 0]
        reachable = False
        for u in queue:  # the queue grows while it is read
            layer = dist[u] + 1
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    reachable = True
                elif dist[w] < 0:
                    dist[w] = layer
                    queue.append(w)
            if reachable and len(queue) == n:
                break
        if not reachable:
            return match_l
        for root in range(n):
            if match_l[root] >= 0:
                continue
            path, its = [root], [iter(adj[root])]
            while path:
                u = path[-1]
                layer = dist[u] + 1
                for v in its[-1]:
                    w = match_r[v]
                    if w < 0 or dist[w] == layer:
                        break
                else:  # dead end
                    dist[u] = -2
                    path.pop()
                    its.pop()
                    continue
                if w < 0:  # each left takes its successor's mate, the last v
                    for u in reversed(path):
                        match_l[u], v = v, match_l[u]
                        match_r[match_l[u]] = u
                    break
                path.append(w)
                its.append(iter(adj[w]))


def path_cover(g: ArcDigraph) -> PathCover:
    """Approximate maximum path cover: max cycle-plus-path cover, cycles opened.

    The selected arc count is the bipartite matching size minus the number of
    broken cycles, hence never below (cycle cover arcs) - (cycles).
    """
    n = len(g.vertices)
    succ = _max_bipartite_matching(g.successors)
    has_pred = set(succ)

    paths: list[tuple[int, ...]] = []
    seen: set[int] = set()
    cycles_broken = 0
    for start in [v for v in range(n) if v not in has_pred] + list(range(n)):
        if start in seen:
            continue
        walk = [start]
        while succ[walk[-1]] >= 0 and succ[walk[-1]] != start:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        if start in has_pred:
            # a cycle, entered at its smallest vertex (sorted starts), whose
            # out-arc is the cycle's lexicographically smallest: drop it
            walk = walk[1:] + walk[:1]
            cycles_broken += 1
        paths.append(tuple(g.vertices[v] for v in walk))

    paths.sort(key=lambda p: p[0])
    return PathCover(paths=tuple(paths), cycles_broken=cycles_broken)


def solve_big_pipeline(formed: list[BarChart] | tuple[BarChart, ...],
                       dump=None) -> Solved:
    """Chain the formed charts through the 1-union digraph's path cover.

    When ``dump`` is given, the arc list is passed to it as
    ``("digraph", text)``.
    """
    digraph = build_arc_digraph(formed)
    if dump is not None:
        dump("digraph", dump_digraph(digraph))
    cover = path_cover(digraph)

    by_id = {c.id: c for c in formed}
    final = []
    for path in cover.paths:
        chart = by_id[path[0]]
        for nxt in path[1:]:
            chart = merge_union(chart, by_id[nxt], 1)
        final.append(chart)

    return Solved(placement=assemble_placement(final),
                  length=sum(c.width for c in final))

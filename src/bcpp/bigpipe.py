"""Big-chart pipelines A1 and A2.

Both algorithms first turn the instance into big charts (at least one bar
above 1/2), then chain the formed charts through 1-unions: a digraph holds
an arc (i, j) whenever chart i's last bar and chart j's first bar fit into
one cell, a path cover of that digraph is selected, and every path is merged
left to right.  Each selected arc saves one strip cell.  An ``ArcDigraph``
maps each chart id to its successors in ascending id order, the lists the
path cover reads; its ``arcs`` view, for dumps and tests, is built on read.

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
opened by dropping its lexicographically smallest arc.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .model import BarChart, Solved, assemble_placement
from .matching import (build_union_graph, chart_rows, max_cardinality_matching,
                       merge_matched)
from .unions import merge_union


@dataclass(frozen=True)
class ArcDigraph:
    vertices: tuple[int, ...]
    successors: dict[int, list[int]]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc, in (u, v) order; built anew on each read."""
        return tuple((u, v) for u in self.vertices for v in self.successors[u])


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
    are the charts whose first bar fits ``den`` minus its last, less i."""
    rows, den = chart_rows(charts)
    by_first = sorted(rows, key=lambda row: row[1])
    firsts, ids = [row[1] for row in by_first], [row[0] for row in by_first]
    successors = {}
    for u, first, _, _, last in rows:
        successors[u] = heads = sorted(ids[:bisect_right(firsts, den - last)])
        if first <= den - last:
            heads.remove(u)
    return ArcDigraph(tuple(row[0] for row in rows), successors)


def dump_digraph(g: ArcDigraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.arcs)


def _max_bipartite_matching(lefts: list[int],
                            adj: dict[int, list[int]]) -> dict[int, int]:
    """Hopcroft-Karp maximum matching on a bipartite graph.

    ``adj`` maps left vertices to sorted right neighbors.  Each phase layers
    the left vertices breadth-first from the free ones, then searches depth
    first from each free root in ``lefts`` order, taking a free right vertex
    at any depth; a dead end stays out for the rest of the phase.  The scan
    order is fixed, so the left-to-right mate map is deterministic.
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


def path_cover(g: ArcDigraph) -> PathCover:
    """Approximate maximum path cover: max cycle-plus-path cover, cycles opened.

    The selected arc count is the bipartite matching size minus the number of
    broken cycles, hence never below (cycle cover arcs) - (cycles).
    """
    verts = list(g.vertices)
    succ = _max_bipartite_matching(verts, g.successors)
    pred = {v: u for u, v in succ.items()}

    paths: list[tuple[int, ...]] = []
    seen: set[int] = set()
    cycles_broken = 0
    for start in [v for v in verts if v not in pred] + verts:
        if start in seen:
            continue
        walk = [start]
        while walk[-1] in succ and succ[walk[-1]] != start:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        if start in pred:
            # a cycle, entered at its smallest vertex (sorted starts), whose
            # out-arc is the cycle's lexicographically smallest: drop it
            walk = walk[1:] + walk[:1]
            cycles_broken += 1
        paths.append(tuple(walk))

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

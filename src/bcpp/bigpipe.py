"""Big-chart pipelines A1 and A2.

Both algorithms first turn the instance into big charts (at least one bar
above 1/2), then chain the formed charts through 1-unions: a digraph holds
an arc (i, j) whenever chart i's last bar and chart j's first bar fit into
one cell, a path cover of that digraph is selected, and every path is merged
left to right.  Each selected arc saves one strip cell.

A1 forms big charts in a single scan with a one-slot buffer: small charts
are pairwise 2-unioned (always feasible, all four bars are at most 1/2)
until the merge turns big, so at most one small chart survives.  A2 instead
repeats exact maximum-cardinality matchings on the 2-union graph until no
pair admits a 2-union.  Both formations return the formed charts as one
tuple, and ``solve_big_pipeline`` chains any such tuple, so A1 and A2 differ
only in the formation their ``harness.SOLVERS`` entry calls.

The path cover comes from a maximum bipartite matching on the out-copy /
in-copy split of the digraph, which yields a maximum set of arcs with all
in- and out-degrees at most 1 (vertex-disjoint paths and cycles); every
cycle is then opened by dropping its lexicographically smallest arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import BarChart, Solved, assemble_placement
from .matching import (build_union_graph, chart_rows, max_cardinality_matching,
                       merge_matched)
from .unions import merge_union


@dataclass(frozen=True)
class ArcDigraph:
    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]


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
        if not graph.edges:
            return tuple(current)
        matching = max_cardinality_matching(graph)
        current = merge_matched(current, matching)


def build_arc_digraph(charts: list[BarChart] | tuple[BarChart, ...]) -> ArcDigraph:
    """Arc (i, j) iff the 1-union with i on the left is feasible."""
    rows, den = chart_rows(charts)
    firsts = [(row[0], row[1]) for row in rows]
    arcs = []
    for u, _, _, _, last in rows:
        cap = den - last
        arcs += [(u, v) for v, first in firsts if first <= cap and v != u]
    return ArcDigraph(vertices=tuple(v for v, _ in firsts), arcs=tuple(arcs))


def dump_digraph(g: ArcDigraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(g.arcs))


def _max_bipartite_matching(lefts: list[int],
                            adj: dict[int, list[int]]) -> dict[int, int]:
    """Hopcroft-Karp style maximum matching on a bipartite graph.

    ``adj`` maps left vertices to sorted right neighbors; the scan order is
    fixed, so the returned left-to-right mate map is deterministic.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def bfs() -> tuple[dict[int, int], bool]:
        dist: dict[int, int] = {}
        queue: deque[int] = deque()
        for u in lefts:
            if u not in match_l:
                dist[u] = 0
                queue.append(u)
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    reachable_free = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist, reachable_free

    def dfs(root: int, dist: dict[int, int]) -> bool:
        stack: list[tuple[int, int]] = [(root, 0)]
        chain: list[tuple[int, int]] = []
        while stack:
            u, idx = stack.pop()
            advanced = False
            while idx < len(adj[u]):
                v = adj[u][idx]
                idx += 1
                w = match_r.get(v)
                if w is None:
                    match_l[u] = v
                    match_r[v] = u
                    for pu, pv in chain:
                        match_l[pu] = pv
                        match_r[pv] = pu
                    return True
                if dist.get(w) == dist.get(u, -2) + 1:
                    stack.append((u, idx))
                    chain.append((u, v))
                    stack.append((w, 0))
                    advanced = True
                    break
            if not advanced:
                dist.pop(u, None)  # dead end this phase
                if chain:
                    chain.pop()
        return False

    while True:
        dist, reachable = bfs()
        if not reachable:
            return match_l
        for u in lefts:
            if u not in match_l:
                dfs(u, dist)


def path_cover(g: ArcDigraph) -> PathCover:
    """Approximate maximum path cover: max cycle-plus-path cover, cycles opened.

    The selected arc count is the bipartite matching size minus the number of
    broken cycles, hence never below (cycle cover arcs) - (cycles).
    """
    verts = sorted(g.vertices)
    adj: dict[int, list[int]] = {u: [] for u in verts}
    for u, v in sorted(g.arcs):
        adj[u].append(v)

    succ = _max_bipartite_matching(verts, adj)
    pred = {v: u for u, v in succ.items()}

    paths: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in verts:
        if start in seen or start in pred:
            continue
        path = [start]
        seen.add(start)
        while path[-1] in succ:
            nxt = succ[path[-1]]
            path.append(nxt)
            seen.add(nxt)
        paths.append(tuple(path))

    cycles_broken = 0
    for v in verts:
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        while succ[cycle[-1]] != v:
            nxt = succ[cycle[-1]]
            cycle.append(nxt)
            seen.add(nxt)
        # drop the arc (tail, head) that is lexicographically smallest
        k = len(cycle)
        drop = min(range(k), key=lambda i: (cycle[i], cycle[(i + 1) % k]))
        head = (drop + 1) % k
        paths.append(tuple(cycle[head:] + cycle[:head]))
        cycles_broken += 1

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

"""Big-chart pipelines A1 and A2.

Both algorithms first turn the instance into big charts (at least one bar
above 1/2), then chain the formed charts through 1-unions: a digraph holds
an arc (i, j) whenever chart i's last bar and chart j's first bar fit into
one cell, a path cover of that digraph is selected, and every path is merged
left to right.  Each selected arc saves one strip cell.

The digraph is a chain graph: sorted by first bar, chart i's heads are a
prefix less i, the charts whose first bar fits its cap ``den - last``, and
the prefixes nest.  An ``ArcDigraph`` holds ``order``, the positions by
first bar, ties by position, and each position's ``reach``, the length of
the prefix its cap admits; its ``arcs`` view is built on read.

A1 forms big charts in a single scan with a one-slot buffer: small charts
are pairwise 2-unioned (always feasible, all four bars are at most 1/2)
until the merge turns big, so at most one small chart survives.  A2 instead
repeats exact maximum-cardinality matchings on the 2-union graph until no
pair admits a 2-union.  Both formations return the formed charts as one
tuple, and ``solve_big_pipeline`` chains any such tuple, so A1 and A2 differ
only in the formation their ``harness.SOLVERS`` entry calls.

The path cover comes from a maximum matching of tails to heads (the
out-copy / in-copy split of the digraph): vertex-disjoint paths and cycles,
one walk each, every cycle opened by dropping its lexicographically smallest
arc.  Nested prefixes need no augmenting paths (Glover, "Maximum matching in
a convex bipartite graph", 1967).  The tails come by ascending reach, and
each takes the free head with the largest first bar in its prefix but its
own, passing over one that would close a cycle while a smaller one is free.
Any free head will do: the last tail left unmatched and the tails before it
reach only heads matched among them (``_chain_matching`` gives the exchange
argument).  The cover is thus a function of the bars, ties broken by position.
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
    vertices: tuple[int, ...]  # chart ids, ascending; positions index them
    order: tuple[int, ...]  # positions by ascending first bar, ties by position
    reach: tuple[int, ...]  # per position: how many of ``order`` its cap admits

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc as ids, in (u, v) order; built anew on each read."""
        ids = self.vertices
        by_first = [ids[j] for j in self.order]
        return tuple((u, v) for u, r in zip(ids, self.reach)
                     for v in sorted(by_first[:r]) if v != u)


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
    order = sorted(range(len(rows)), key=lambda i: rows[i][1])
    firsts = [rows[i][1] for i in order]
    return ArcDigraph(tuple(row[0] for row in rows), tuple(order),
                      tuple(bisect_right(firsts, den - row[4]) for row in rows))


def dump_digraph(g: ArcDigraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.arcs)


def _chain_matching(g: ArcDigraph) -> list[int]:
    """Maximum matching of tails to heads over positions: each tail's mate or
    -1.  Tail i may take any head of ``order[:reach[i]]`` but itself.

    The tails come by ascending reach, ties by position.  Each takes the free
    head with the largest first bar in its prefix, found through links to
    the next free head below, but passes over its own head, and over the
    start of its own path, which would close a cycle, while a smaller head
    is free.  A tail left only its own head swaps with the last matched tail
    if that tail's prefix holds it.  Why this is maximum: let j be the last
    tail left unmatched and S the tails taken up to j, whose prefixes lie in
    j's.  Every head S can take is matched within S, for j found none free
    but its own, which no other prefix in S holds: not the last matched
    tail's, the largest matched one, nor an unmatched one's, whose tail
    would have taken it.  So every matching leaves at least as many tails
    of S unmatched as this one leaves in all, whichever free heads it took.
    """
    order, reach, n = g.order, g.reach, len(g.vertices)
    # link[k + 1] leads to the last free head at or before order[k]; 0: none
    link = list(range(n + 1))

    def find(k: int) -> int:
        while link[k] != k:  # path halving, as in GA_LO's sweep
            link[k] = k = link[link[k]]
        return k

    start, end = list(range(n)), list(range(n))  # path ends' starts, starts' ends
    mate, last = [-1] * n, -1
    for i in sorted(range(n), key=reach.__getitem__):
        k = find(reach[i])
        passed = k if k and order[k - 1] == start[i] else 0  # own, or a cycle
        if passed:
            k = find(k - 1) or (0 if start[i] == i else k)
        if k:
            mate[i] = h = order[k - 1]
            start[end[h]], end[start[i]] = start[i], end[h]
        elif passed and last >= 0 and passed <= reach[last]:  # swap
            k = passed
            mate[i], mate[last] = mate[last], i
        else:
            continue
        link[k] = k - 1
        last = i
    return mate


def path_cover(g: ArcDigraph) -> PathCover:
    """Approximate maximum path cover: max cycle-plus-path cover, cycles opened.

    The selected arc count is the bipartite matching size minus the number of
    broken cycles, hence never below (cycle cover arcs) - (cycles).
    """
    n = len(g.vertices)
    succ = _chain_matching(g)
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

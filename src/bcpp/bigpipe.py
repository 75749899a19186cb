"""Big-chart pipelines A1 and A2.

Both algorithms first turn the instance into big charts (at least one bar
above 1/2), then chain the formed charts through 1-unions: a digraph holds
an arc (i, j) whenever chart i's last bar and chart j's first bar fit into
one cell, a path cover of that digraph is selected, and every path is laid
out left to right, one cell shared per arc.  Each arc saves one strip cell.

The digraph is a chain graph: sorted by first bar, chart i's heads are a
prefix less i, the charts whose first bar fits its cap ``den - last``, and
the prefixes nest.  An ``ArcDigraph`` holds ``order``, the positions by
first bar, ties by position, and each position's ``reach``, the length of
the prefix its cap admits; its ``arcs`` view is built on read.

Both formations read and return ``ChartRow``s in ascending id, as
``matching.chart_rows`` makes them.  A1 forms big charts in a single scan
with a one-slot buffer: small charts are pairwise 2-unioned (always
feasible, all four bars are at most 1/2) until the merge turns big, so at
most one small chart survives.  A2 merges the pairs of maximum 2-union
matchings until no pair unites.  On big two-bar charts the graph is
bipartite and one greedy matching ends it: merged pairs have both bars
above 1/2, and free charts cannot 2-unite.  Otherwise the exact blossom
runs, round after round, and ``merge_matched`` merges the rows.  A 2-union
of two-bar charts is two bars wide, holds the bar sums and keeps every
origin at offset 0, so every formed row is two bars wide, which
``solve_big_pipeline`` chains: A1 and A2 differ only in the formation their
``harness.SOLVERS`` entry calls.

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

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .model import ChartRow, Placement, Solved
from .matching import build_union_graph, max_cardinality_matching, merge_matched


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


def form_big_scan(rows: list[ChartRow], den: int) -> tuple[ChartRow, ...]:
    """One pass in id order; sums buffered small charts' bars until a sum
    passes D/2, as ``is_big`` decides.  The buffer and the new chart are both
    small, so each sum is at most D without an overflow test.  The buffer keeps
    its least id's slot, so the formed charts come in ascending id, the
    leftover buffer the only small one.  A row not two bars wide raises
    ``ValueError``."""
    formed: list[ChartRow] = []
    slot = -1  # the buffer's index; -1: none
    for row in rows:
        cid, a, b, _, _, width, origins = row
        if width != 2:
            raise ValueError(f"chart {cid}: A1 forms two-bar charts")
        small = 2 * a <= den and 2 * b <= den
        if small and slot >= 0:
            kept, c, d, _, _, _, before = formed[slot]
            a, b = a + c, b + d
            formed[slot] = (kept, a, b, a, b, 2, before + origins)
            if 2 * a > den or 2 * b > den:
                slot = -1
        else:
            if small:
                slot = len(formed)
            formed.append(row)
    return tuple(formed)


def _dominance_matching(rows: list[ChartRow], den: int) -> list[tuple[int, int]]:
    """Maximum matching of the 2-union graph of big two-bar charts, as id
    pairs (u, v) with u < v, given their rows.

    Charts (a_i, b_i), (a_j, b_j) 2-unite iff a_i + a_j <= D and b_i + b_j
    <= D, so each edge joins an F chart (a > D/2 >= b) to an S chart
    (b > D/2 >= a).  The F charts come by ascending D - a_i, ties by id; each
    lists, by (b_j, id), the S charts with a_j <= D - a_i, and takes the
    free one with the largest b_j <= D - b_i.  It is maximum: let a maximum
    matching M agree with the greedy before F chart i, which takes j.  Later
    F charts admit every listed S chart in a, and a listed chart that fits i
    has a b no larger than j's, so it fits wherever j fits.  If M gives i
    another chart j' and j to a later k, k takes j'; if M leaves j free, i
    takes j; if M leaves i free, i takes j from its mate, or M was not
    maximum.  If the greedy leaves i free, no free chart fits i, so M leaves
    it free too.  So a maximum matching agrees with the greedy on one more
    chart, and by induction on all.
    """
    firsts = sorted((den - a, i, den - b) for i, a, b, *_ in rows if 2 * b <= den < 2 * a)
    seconds = sorted((a, b, j) for j, a, b, *_ in rows if 2 * a <= den < 2 * b)
    listed: list[tuple[int, int]] = []  # (b, id) of the admitted S charts still free
    pairs, k = [], 0
    for cap_a, i, cap_b in firsts:
        while k < len(seconds) and seconds[k][0] <= cap_a:
            insort(listed, seconds[k][1:])
            k += 1
        p = bisect_left(listed, (cap_b + 1,))
        if p:
            j = listed.pop(p - 1)[1]
            pairs.append((min(i, j), max(i, j)))
    return pairs


def form_big_matchings(rows: list[ChartRow], den: int) -> tuple[ChartRow, ...]:
    """Merge the pairs of maximum 2-union matchings until no pair remains; on
    big two-bar charts one greedy round sums each pair under the smaller id."""
    if all(w == 2 and 2 * max(a, b) > den for _, a, b, _, _, w, _ in rows):
        formed = {row[0]: row for row in rows}
        for u, v in _dominance_matching(rows, den):
            _, a, b, _, _, _, left = formed[u]
            _, c, d, _, _, _, right = formed.pop(v)
            formed[u] = (u, a + c, b + d, a + c, b + d, 2, left + right)
        return tuple(formed.values())
    graph = build_union_graph(rows, den, two_unions_only=True)
    while graph.wt2:
        rows = merge_matched(rows, max_cardinality_matching(graph))
        graph = build_union_graph(rows, den, two_unions_only=True)
    return tuple(rows)


def build_arc_digraph(formed: list[ChartRow] | tuple[ChartRow, ...],
                      den: int) -> ArcDigraph:
    """Arc (i, j) iff the 1-union with i on the left is feasible: i's heads
    are the charts whose first bar fits its cap ``den - last``, less i;
    ``formed`` comes in ascending id."""
    firsts = [f[1] for f in formed]
    order = sorted(range(len(formed)), key=firsts.__getitem__)
    firsts.sort()
    return ArcDigraph(tuple(f[0] for f in formed), tuple(order),
                      tuple(bisect_right(firsts, den - f[4]) for f in formed))


def dump_digraph(g: ArcDigraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.arcs)


def _chain_matching(g: ArcDigraph) -> tuple[list[int], list[int]]:
    """Maximum matching of tails to heads over positions: each tail's mate or
    -1, and each path end's start, kept as it was when that end took a head.
    Tail i may take any head of ``order[:reach[i]]`` but itself.

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
    return mate, start


def path_cover(g: ArcDigraph) -> PathCover:
    """Approximate maximum path cover: max cycle-plus-path cover, cycles opened.

    The selected arc count is the bipartite matching size minus the number of
    broken cycles, hence never below (cycle cover arcs) - (cycles).
    """
    succ, start = _chain_matching(g)
    paths: list[tuple[int, ...]] = []
    cycles_broken = 0
    for v, head in enumerate(succ):
        if head >= 0 and head != start[v]:
            continue  # neither a path's end nor a tail that took its own start
        walk = [start[v]]
        while walk[-1] != v:
            walk.append(succ[walk[-1]])
        if head >= 0:  # a cycle: drop its lexicographically smallest arc
            k = walk.index(min(walk)) + 1
            walk = walk[k:] + walk[:k]
            cycles_broken += 1
        paths.append(tuple(g.vertices[x] for x in walk))

    paths.sort(key=lambda p: p[0])
    return PathCover(paths=tuple(paths), cycles_broken=cycles_broken)


def solve_big_pipeline(formed: list[ChartRow] | tuple[ChartRow, ...], den: int,
                       dump=None) -> Solved:
    """Lay the formed rows out along the 1-union digraph's path cover: paths
    by least chart id, each arc's two charts sharing a cell.  An overfull cell
    raises ``ValueError`` naming it.  When ``dump`` is given, the arc list is
    passed to it as ``("digraph", text)``.
    """
    digraph = build_arc_digraph(formed, den)
    if dump is not None:
        dump("digraph", dump_digraph(digraph))
    cover = path_cover(digraph)

    by_id = {f[0]: f for f in formed}
    placement: Placement = {}
    end = 0  # the last strip cell used
    for path in sorted(cover.paths, key=min):  # a merged chart's id is its least
        top, end = 0, end + 1  # the height in cell ``end`` the next chart shares
        for cid in path:
            _, first, _, _, last, width, origins = by_id[cid]
            top += first
            if top > den:
                raise ValueError(f"strip cell {end} holds {top}/{den} > 1")
            for oid, off in origins:
                placement[oid] = end + off
            top, end = last, end + width - 1
    if (len(placement) != sum(len(f[6]) for f in formed)
            or sum(map(len, cover.paths)) != len(formed)):
        raise ValueError("the path cover must place every original chart once")
    return Solved(placement=placement, length=end)

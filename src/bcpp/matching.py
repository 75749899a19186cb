"""Union graphs, exact matchings, and the matching-driven packers M1w / Mw.

Vertices are chart ids; an edge carries the best overlap (weight 2 or 1) a
pair admits together with the orientation that realizes it.  Matchings are
computed exactly by ``blossom.max_weight_edges``, Edmonds' primal-dual
blossom algorithm ported from networkx, which checks its dual optimality
certificate on every call.  A ``WeightedGraph`` holds its edges in the
blossom's own form: ``pairs[k] = (left, right, weight)`` over positions in
the ascending ``vertices``, the left chart first, listed in (i, j) order
of the pair's positions i < j, so equal-weight ties resolve the same way
on every run.  A ``UnionEdge`` is made only for a matched edge, or when
``edges``, the view that dumps and tests read, is asked for.

Pair classification reads only the first two and the last two bars of each
chart.  A t-union overlaps the last t bars of the left chart with the first
t bars of the right chart, and only t <= 2 is ever tried, so no other bar
can decide a pair.  Each chart becomes one flat row ``(id, bars[0], bars[1],
bars[-2], bars[-1])`` and each pair costs a few exact integer comparisons
against ``den - bar`` capacities; ``pair_weight`` in ``tests/helpers.py``
is the per-pair definition the rows reproduce.  A 2-union graph over many
charts, as A2's formation rounds build, first drops every row that no other
row can meet in a 2-union, found from two sorted staircases, so the pair
loop walks only rows that may have an edge and lists the same pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

from .blossom import max_weight_edges
from .model import BarChart, Instance, Solved, assemble_placement
from .unions import merge_union


class UnionEdge(NamedTuple):
    """Edge (u, v) with u < v; ``left``/``right`` orient the stored t-union,
    t = ``weight``."""

    u: int
    v: int
    weight: int
    left: int
    right: int


@dataclass(frozen=True)
class WeightedGraph:
    vertices: tuple[int, ...]
    pairs: list[tuple[int, int, int]]

    def edge(self, k: int) -> UnionEdge:
        i, j, w = self.pairs[k]
        left, right = self.vertices[i], self.vertices[j]
        return UnionEdge(min(left, right), max(left, right), w, left, right)

    @property
    def edges(self) -> tuple[UnionEdge, ...]:
        """Every edge, in ``pairs`` order; built anew on each read."""
        return tuple(map(self.edge, range(len(self.pairs))))


@dataclass(frozen=True)
class Matching:
    edges: tuple[UnionEdge, ...]

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)


# (id, bars[0], bars[1], bars[-2], bars[-1]) of one chart
ChartRow = tuple[int, int, int, int, int]


def chart_rows(charts: list[BarChart] | tuple[BarChart, ...],
               ) -> tuple[list[ChartRow], int]:
    """Charts in id order as flat rows, plus their shared denominator.

    A width-1 chart has no second bar: its ``bars[1]`` and ``bars[-2]``
    slots hold ``den + 1``, so every 2-union test involving it fails.
    """
    dens = {c.den for c in charts}
    if len(dens) > 1:
        raise ValueError("charts must share one denominator")
    den = dens.pop() if dens else 1
    rows = []
    for c in sorted(charts, key=lambda c: c.id):
        bars = c.bars
        if len(bars) > 1:
            rows.append((c.id, bars[0], bars[1], bars[-2], bars[-1]))
        else:
            rows.append((c.id, bars[0], den + 1, den + 1, bars[0]))
    return rows, den


# from this many rows on, A2's 2-union builds first drop the rows that cannot
# 2-unite; below it the sorts cost more than the pair tests they save
STAIRCASE_MIN_ROWS = 64


def _staircase(points: list[tuple[int, int]]) -> Callable[[int, int], bool]:
    """A test of whether some point (x, y) has x <= a and y <= b, read off
    the points sorted by x and the least y over each prefix of that order."""
    points.sort()
    xs = [x for x, _ in points]
    least = list(accumulate((y for _, y in points), min))

    def under(a: int, b: int) -> bool:
        k = bisect_right(xs, a)
        return k > 0 and least[k - 1] <= b
    return under


def build_union_graph(charts: list[BarChart] | tuple[BarChart, ...],
                      two_unions_only: bool = False) -> WeightedGraph:
    """Graph over the given charts with one edge per pair that can unite.

    Edges match the tests' ``pair_weight`` on every pair, in (u, v) order.
    With ``two_unions_only`` only the weight-2 edges are built, as A2's
    formation rounds need.
    """
    rows, den = chart_rows(charts)
    ranked = [(i, *row[1:]) for i, row in enumerate(rows)]  # positions, not ids
    if two_unions_only and len(ranked) >= STAIRCASE_MIN_ROWS:
        # a left chart needs a row whose first two bars fit its last two, a
        # right chart one whose last two bars fit its first two; a row that
        # fits itself is kept too, and the loop never pairs it with itself
        firsts = _staircase([(r[1], r[2]) for r in ranked])
        lasts = _staircase([(r[3], r[4]) for r in ranked])
        ranked = [r for r in ranked if firsts(den - r[3], den - r[4])
                  or lasts(den - r[1], den - r[2])]
    pairs: list[tuple[int, int, int]] = []
    add = pairs.append
    for a, (i, f0, f1, l2, l1) in enumerate(ranked):
        cap_f0, cap_f1, cap_l2, cap_l1 = den - f0, den - f1, den - l2, den - l1
        for j, g0, g1, m2, m1 in ranked[a + 1:]:
            if g0 <= cap_l2 and g1 <= cap_l1:      # 2-union, i left
                add((i, j, 2))
            elif m2 <= cap_f0 and m1 <= cap_f1:    # 2-union, j left
                add((j, i, 2))
            elif two_unions_only:
                continue
            elif g0 <= cap_l1:                     # 1-union, i left
                add((i, j, 1))
            elif m1 <= cap_f0:                     # 1-union, j left
                add((j, i, 1))
    return WeightedGraph(tuple(r[0] for r in rows), pairs)


def max_weight_matching(g: WeightedGraph) -> Matching:
    """Exact maximum-weight matching (not merely maximal)."""
    return Matching(tuple(map(g.edge, max_weight_edges(len(g.vertices), g.pairs))))


def max_cardinality_matching(g: WeightedGraph) -> Matching:
    """Exact maximum-cardinality matching; total_weight still sums edge weights."""
    ones = [(left, right, 1) for left, right, _ in g.pairs]
    return Matching(tuple(map(g.edge, max_weight_edges(len(g.vertices), ones))))


def dump_graph(g: WeightedGraph) -> str:
    """Edge list text, one 'u v weight' line per edge."""
    return "".join(f"{e.u} {e.v} {e.weight}\n" for e in g.edges)


def merge_matched(charts: list[BarChart] | tuple[BarChart, ...],
                  matching: Matching) -> list[BarChart]:
    """Merge every matched pair along its stored orientation and overlap;
    the result is in id order."""
    by_id = {c.id: c for c in charts}
    for e in matching.edges:
        by_id[e.u] = merge_union(by_id[e.left], by_id[e.right], e.weight)
        del by_id[e.v]
    return sorted(by_id.values(), key=lambda c: c.id)


def solve_mw(instance: Instance, max_rounds: int | None = None,
             dump=None) -> Solved:
    """Iterate maximum-weight matchings, merging pairs, until no pair unites.

    M1w is ``max_rounds=1``: one matching on the raw charts.  ``rounds``
    counts built graphs including a final edgeless one, and ``unions`` the
    matchings of the rounds before it.  When ``dump`` is given, each round's
    graph dump is passed to it as ``("round<k>", text)``.
    """
    charts: list[BarChart] = list(instance.charts)
    unions: list[Matching] = []
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        graph = build_union_graph(charts)
        rounds += 1
        if dump is not None:
            dump(f"round{rounds}", dump_graph(graph))
        if not graph.pairs:
            break
        unions.append(max_weight_matching(graph))
        charts = merge_matched(charts, unions[-1])
    return Solved(placement=assemble_placement(charts),
                  length=sum(c.width for c in charts),
                  rounds=rounds, unions=tuple(unions))

"""Union graphs, exact matchings, and the matching-driven packers M1w / Mw,
their only users: A2 finds its 2-union matchings greedily and builds no graph.

Vertices are chart ids; an edge carries the best overlap (weight 2 or 1) a
pair admits together with the orientation that realizes it.  A
``WeightedGraph`` is the input of ``blossom.match_edges``, the certified
exact matcher, as the pair scan writes it: edge k runs from the left chart's
position ``endpoint[2k]`` in the ascending ``vertices`` to ``endpoint[2k + 1]``
at doubled weight ``wt2[k]``; ``adj[i]`` lists the oriented edges ``p`` out
of i (to ``endpoint[p ^ 1]``), ``heavy[i]`` those of weight 2, in (i, j)
order of positions i < j, so ties resolve the same way on every run.  A
``UnionEdge`` is made only for a matched edge, or for the ``edges`` view.

Pair classification reads only the first two and the last two bars of each
chart.  A t-union overlaps the last t bars of the left chart with the first
t bars of the right chart, and only t <= 2 is ever tried, so no other bar
can decide a pair.  Round 1 reads ``Instance.rows``, the raw charts as
``ChartRow``s; each pair costs a few exact integer comparisons against
``den - bar`` capacities, and each round merges the matched rows by
``merge_union``, so Mw never rebuilds a chart.  ``pair_weight`` in
``tests/helpers.py`` is the per-pair definition the rows reproduce, and its
reference merge the charts they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .blossom import match_edges
from .model import ChartRow, Instance, Solved, assemble_placement
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
    endpoint: list[int]
    wt2: list[int]
    adj: list[list[int]]
    heavy: list[list[int]]

    def edge(self, k: int) -> UnionEdge:
        a, b = (self.vertices[x] for x in self.endpoint[2 * k:2 * k + 2])
        return UnionEdge(min(a, b), max(a, b), self.wt2[k] >> 1, a, b)

    @property
    def edges(self) -> tuple[UnionEdge, ...]:
        """Every edge, in edge-list order; built anew on each read."""
        return tuple(map(self.edge, range(len(self.wt2))))


@dataclass(frozen=True)
class Matching:
    edges: tuple[UnionEdge, ...]


def build_union_graph(rows: list[ChartRow], den: int) -> WeightedGraph:
    """Graph over rows in ascending id with one edge per pair that can unite,
    the graph of M1w's and Mw's rounds; its edges match the tests'
    ``pair_weight`` on every pair, in (u, v) order."""
    # p = 2k for the next edge k; each row's own lists are looked up once
    p, endpoint, wt2, adj, heavy = 0, [], [], [[] for _ in rows], [[] for _ in rows]
    ranked = [(i, *row[1:5]) for i, row in enumerate(rows)]  # positions, not ids
    for i, f0, f1, l2, l1 in ranked:
        cap_f0, cap_f1, cap_l2, cap_l1 = den - f0, den - f1, den - l2, den - l1
        adj_i, heavy_i = adj[i], heavy[i]
        for j, g0, g1, m2, m1 in ranked[i + 1:]:
            if g0 <= cap_l2 and g1 <= cap_l1:      # 2-union, i left
                endpoint += i, j
                wt2.append(4)
                adj_i.append(p)
                adj[j].append(p + 1)
                heavy_i.append(p)
                heavy[j].append(p + 1)
            elif m2 <= cap_f0 and m1 <= cap_f1:    # 2-union, j left
                endpoint += j, i
                wt2.append(4)
                adj_i.append(p + 1)
                adj[j].append(p)
                heavy_i.append(p + 1)
                heavy[j].append(p)
            elif g0 <= cap_l1:                     # 1-union, i left
                endpoint += i, j
                wt2.append(2)
                adj_i.append(p)
                adj[j].append(p + 1)
            elif m1 <= cap_f0:                     # 1-union, j left
                endpoint += j, i
                wt2.append(2)
                adj_i.append(p + 1)
                adj[j].append(p)
            else:                                  # no union
                continue
            p += 2
    return WeightedGraph(tuple(r[0] for r in rows), endpoint, wt2, adj, heavy)


def max_weight_matching(g: WeightedGraph) -> Matching:
    """Exact maximum-weight matching (not merely maximal)."""
    return Matching(tuple(map(g.edge, match_edges(g.endpoint, g.wt2, g.adj, g.heavy))))


def max_cardinality_matching(g: WeightedGraph) -> Matching:
    """Exact maximum-cardinality matching; its edges keep their union weights.
    No solver calls it: the tests check A2's greedy by it, perfbench traces it."""
    ones = [2] * len(g.wt2)  # every weight 1, doubled, so every edge is heavy
    return Matching(tuple(map(g.edge, match_edges(g.endpoint, ones, g.adj, g.adj))))


def dump_graph(g: WeightedGraph) -> str:
    """Edge list text, one 'u v weight' line per edge."""
    return "".join(f"{e.u} {e.v} {e.weight}\n" for e in g.edges)


def merge_matched(rows: list[ChartRow], matching: Matching) -> list[ChartRow]:
    """Merge every matched pair of rows in ascending id along its stored
    orientation and overlap; a union keeps its least id's slot, so the result
    is in id order too."""
    by_id = {row[0]: row for row in rows}
    for e in matching.edges:
        by_id[e.u] = merge_union(by_id[e.left], by_id[e.right], e.weight)
        del by_id[e.v]
    return list(by_id.values())


def solve_mw(instance: Instance, max_rounds: int | None = None,
             dump=None, start: Solved | None = None) -> Solved:
    """Iterate maximum-weight matchings, merging pairs, until no pair unites.

    M1w is ``max_rounds=1``: one matching on the raw charts.  ``rounds``
    counts built graphs including a final edgeless one, ``unions`` the
    matchings of the rounds before it, and ``rows`` are the rows the last
    round left.  ``start``, an earlier solve of the same instance (M1w's
    blank ``rounds`` reads 1), makes it go on from there, equal to a solve
    from scratch in every field; rows not holding charts 1..n once raise
    ``ValueError``, but a start from another instance with those ids is not
    caught (a suite's audit still rejects its packing).  When ``dump`` is
    given, each graph the call builds is passed to it as ``("round<k>", text)``.
    """
    if start is None:
        rows, unions, rounds = instance.rows, [], 0
    else:
        rows, unions = start.rows, list(start.unions)
        rounds = 1 if start.rounds is None else start.rounds
        ids = [oid for row in rows for oid, _ in row[6]]
        if len(ids) != instance.n or set(ids) != set(range(1, instance.n + 1)):
            raise ValueError("start must hold the instance's charts 1..n once each")
    # every round that built an edge merged, so an edgeless one leaves
    # rounds above len(unions) and ends the solve
    while rounds == len(unions) and (max_rounds is None or rounds < max_rounds):
        graph = build_union_graph(rows, instance.den)
        rounds += 1
        if dump is not None:
            dump(f"round{rounds}", dump_graph(graph))
        if graph.wt2:
            unions.append(max_weight_matching(graph))
            rows = merge_matched(rows, unions[-1])
    return Solved(*assemble_placement([row[:1] for row in rows], rows, instance.den),
                  rounds=rounds, unions=tuple(unions), rows=tuple(rows))

"""The blossom port against networkx, which it must match mate for mate.

networkx is imported only here: it is the reference the port was taken
from, and the mates must equal its mates on the same graph, so that
M1w, Mw and A2 keep their answers.  ``brute_force_matching`` in
test_matching and C4 stays the independent check of exactness.
"""

import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import bcpp
from bcpp import (UnionEdge, WeightedGraph, build_union_graph, gen_random,
                  max_cardinality_matching, max_weight_matching)
from bcpp import blossom


def nx_pairs(g: WeightedGraph, cardinality: bool) -> set[frozenset[int]]:
    """Mates networkx gives on the graph the matching layer used to build."""
    nxg = nx.Graph()
    nxg.add_nodes_from(sorted(g.vertices))
    nxg.add_weighted_edges_from((e.u, e.v, 1 if cardinality else e.weight)
                                for e in sorted(g.edges))
    return {frozenset(p) for p in nx.max_weight_matching(nxg)}


def our_pairs(g: WeightedGraph, cardinality: bool) -> set[frozenset[int]]:
    solve = max_cardinality_matching if cardinality else max_weight_matching
    return {frozenset((e.u, e.v)) for e in solve(g).edges}


def random_graph(rng: random.Random, n: int,
                 density: float | None = None) -> WeightedGraph:
    ids = sorted(rng.sample(range(1, 3 * n + 2), n))  # gapped, as unions leave
    if density is None:
        density = rng.random()
    edges = []
    for a, u in enumerate(ids):
        for v in ids[a + 1:]:
            if rng.random() < density:
                w = rng.choice((1, 2))
                edges.append(UnionEdge(u, v, w, u, v))
    return WeightedGraph(vertices=tuple(ids), edges=tuple(edges))


def test_mates_equal_networkx_on_random_graphs():
    rng = random.Random(61)
    graphs = [random_graph(rng, rng.randint(0, 16)) for _ in range(2000)]
    # and a few dense ones, where blossoms nest deeper
    graphs += [random_graph(rng, n, density=0.7) for n in (20, 30, 45, 60)]
    for trial, g in enumerate(graphs):
        for cardinality in (False, True):
            assert our_pairs(g, cardinality) == nx_pairs(g, cardinality), (
                trial, cardinality, g)


def test_mates_equal_networkx_on_union_graphs():
    for family, seed in [("arbitrary", 1), ("arbitrary", 2), ("arbitrary", 3),
                         ("big", 1), ("big", 2)]:
        g = build_union_graph(gen_random(200, seed, family, 10**6).charts)
        for cardinality in (False, True):
            assert our_pairs(g, cardinality) == nx_pairs(g, cardinality)


@pytest.mark.parametrize("g", [
    WeightedGraph(vertices=(), edges=()),
    WeightedGraph(vertices=(4,), edges=()),
    WeightedGraph(vertices=(1, 5, 9), edges=()),
    WeightedGraph(vertices=(1, 2, 3, 7), edges=(UnionEdge(2, 3, 2, 3, 2),)),
], ids=["empty", "one-vertex", "edgeless", "isolated-vertices"])
def test_degenerate_graphs(g):
    for cardinality in (False, True):
        assert our_pairs(g, cardinality) == nx_pairs(g, cardinality)
    assert max_weight_matching(g).total_weight == sum(e.weight for e in g.edges)


def test_certificate_runs_on_every_call(monkeypatch):
    calls = []
    certify = blossom._certify
    monkeypatch.setattr(blossom, "_certify",
                        lambda *state: calls.append(1) or certify(*state))
    rng = random.Random(62)
    graphs = [random_graph(rng, rng.randint(0, 12)) for _ in range(20)]
    for g in graphs:
        max_weight_matching(g)
        max_cardinality_matching(g)
    assert len(calls) == 2 * len(graphs)


def test_certificate_rejects_a_wrong_matching(monkeypatch):
    # path 0-1-2 with weights 1, 2: the heavy edge alone is optimal; hand
    # the certificate the light outer edge instead
    edges = [(0, 1, 1), (1, 2, 2)]
    assert blossom.max_weight_edges(3, edges) == [1]
    certify = blossom._certify

    def swap_mates(endpoint, wt2, mate, *rest):
        mate[:] = [0, 1, -1]  # each vertex's matched edge, oriented out
        certify(endpoint, wt2, mate, *rest)

    monkeypatch.setattr(blossom, "_certify", swap_mates)
    with pytest.raises(ArithmeticError, match="not optimal"):
        blossom.max_weight_edges(3, edges)


# hand-built certificate states, one per condition: (endpoint, wt2, mate,
# dualvar, blossomparent, blossomdual, ring) and the message expected
ONE_EDGE = ([0, 1], [2])
TRIANGLE = ([0, 1, 1, 2, 2, 0], [2, 2, 2])


@pytest.mark.parametrize("state, message", [
    (ONE_EDGE + ([0, -1], [1, 1], [-1, -1], {}, {}),
     "vertex 0 is not matched symmetrically"),
    (ONE_EDGE + ([0, 1], [-1, 3], [-1, -1], {}, {}), "negative dual"),
    (ONE_EDGE + ([0, 1], [1, 2], [-1, -1], {}, {}), "edge 0 has slack 1"),
    # a blossom over the triangle with a positive dual but no matched edge
    (TRIANGLE + ([-1, -1, -1], [0, 0, 0], [3, 3, 3, -1], {3: 1}, {3: [0, 2, 4]}),
     "blossom 3 has dual 1 but is not full"),
])
def test_certificate_rejects_each_broken_condition(state, message):
    with pytest.raises(ArithmeticError, match=f"not optimal: {message}$"):
        blossom._certify(*state)


@pytest.mark.parametrize("weight", [0, 3, -1])
def test_weights_other_than_one_and_two_are_rejected(weight):
    with pytest.raises(ValueError, match="weights must be 1 or 2"):
        blossom.max_weight_edges(3, [(0, 1, 1), (1, 2, weight)])


def test_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(bcpp.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import bcpp; "
            "print('networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"

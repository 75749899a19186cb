"""The blossom port against networkx, which it must match mate for mate.

networkx is imported only here: it is the reference the port was taken
from, and the mates must equal its mates on the same graph, so that
M1w and Mw keep their answers.  ``brute_force_matching`` in
test_matching and C4 stays the independent check of exactness.
"""

import functools
import hashlib
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import bcpp
from bcpp import (UnionEdge, WeightedGraph, build_union_graph,
                  gen_random, max_cardinality_matching, max_weight_matching)
from bcpp import blossom
from helpers import two_union_graph, union_graph


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
    return union_graph(ids, edges)


def test_mates_equal_networkx_on_random_graphs():
    rng = random.Random(61)
    graphs = [random_graph(rng, rng.randint(0, 16)) for _ in range(2000)]
    # and a few dense ones, where blossoms nest deeper
    graphs += [random_graph(rng, n, density=0.7) for n in (20, 30, 45, 60)]
    for trial, g in enumerate(graphs):
        for cardinality in (False, True):
            assert our_pairs(g, cardinality) == nx_pairs(g, cardinality), (
                trial, cardinality, g)


# Graphs on which a stage forms blossoms over tight edges and then needs a
# delta, so the tight pass is undone and the stage rerun tracked: found by
# counting undone blossoms on random graphs.  Those marked "then augments"
# rerun a stage that finds its augmenting path after the delta.
UNDONE_STAGES = [
    (4, [(0, 2, 1), (0, 3, 1), (2, 3, 1)]),  # vertex 1 isolated
    (4, [(0, 1, 2), (0, 2, 2), (1, 2, 2)]),
    (6, [(0, 2, 1), (0, 3, 1), (0, 5, 1), (1, 2, 1), (1, 3, 1), (2, 5, 1)]),
    (6, [(0, 2, 2), (0, 5, 2), (2, 3, 2), (2, 4, 2), (3, 4, 2), (4, 5, 2)]),
    # then augments
    (4, [(0, 1, 2), (0, 3, 2), (1, 2, 1), (1, 3, 2)]),
    (6, [(0, 2, 2), (0, 4, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 2),
         (4, 5, 1)]),
    # two undone stages, the first then augments
    (8, [(0, 2, 2), (0, 7, 1), (1, 3, 1), (1, 4, 1), (1, 5, 2), (1, 6, 2),
         (2, 4, 1), (2, 7, 2), (3, 4, 1), (3, 5, 1), (5, 6, 2)]),
    # three blossoms undone in one stage
    (8, [(0, 1, 1), (0, 3, 1), (0, 6, 1), (0, 7, 1), (1, 6, 1), (1, 7, 1),
         (2, 4, 2), (2, 7, 2), (3, 4, 2), (3, 6, 1), (3, 7, 1), (4, 5, 1),
         (4, 6, 2), (6, 7, 2)]),
    # a rerun that kept the undone blossom would match other edges
    (4, [(0, 1, 2), (0, 2, 2), (0, 3, 1), (1, 2, 2), (2, 3, 1)]),
    (4, [(0, 1, 2), (0, 2, 1), (0, 3, 2), (1, 3, 2), (2, 3, 1)]),
    # after the rerun's first type-3 delta edge 1-3 turns tight too, and
    # only a zero type-3 delta finds it: the least-slack edges must still be
    # tracked after a stage's first delta
    (4, [(2, 0, 2), (0, 3, 1), (1, 3, 1), (2, 3, 2)]),
]


@pytest.mark.parametrize("n, edges", UNDONE_STAGES)
def test_mates_equal_networkx_where_a_stage_is_rerun(n, edges):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_weighted_edges_from(edges)
    ours = {frozenset(edges[k][:2]) for k in blossom.max_weight_edges(n, edges)}
    assert ours == {frozenset(p) for p in nx.max_weight_matching(nxg)}


# sha256 of the edge indices the port chose before its stages first scanned
# tight edges only, past the sizes networkx is compared at above; and of those
# on the 2-union graph A2's greedy is checked against (every weight 1), where
# 260 of the 500 vertices have no edge, chosen before the stages ever left
# such vertices out
@pytest.mark.parametrize("family, n, cardinality, build, digest", [
    ("arbitrary", 400, False, build_union_graph, "c9c56649562322b19c88681138ac0a269a562aa0766121eb6148498ba01b7060"),
    ("arbitrary", 400, True, build_union_graph, "06f484684513be3e18fe7b63e3ea949f63854303fd4f54a707df9274eeb8e07a"),
    ("big", 500, False, build_union_graph, "9f7405b43e2f75a3e894299dd2b54aad112c35e579eae28db8a244c7a427142b"),
    ("big", 500, True, build_union_graph, "2ab8932fba7ac3490b7743f5b93ee476aaed067e636a2bfcc5458580d8b7ee3e"),
    ("big", 500, True, two_union_graph, "c8b816aaa063154924190917438ba89b743e3a5a7ffad91def5122e2ea2e768d"),
], ids=["arbitrary-400", "arbitrary-400-cardinality", "big-500", "big-500-cardinality",
        "big-500-two-unions"])
def test_mates_pinned_at_scale(family, n, cardinality, build, digest):
    instance = gen_random(n, 1, family, 10**6)
    g = build(instance.rows, instance.den)
    index = {x: i for i, x in enumerate(sorted(g.vertices))}
    edges = [(index[e.u], index[e.v], 1 if cardinality else e.weight)
             for e in sorted(g.edges)]
    chosen = blossom.max_weight_edges(len(index), edges)
    assert hashlib.sha256(repr(chosen).encode()).hexdigest() == digest


def assert_endpoint_order_is_free(n, edges, rng):
    """The chosen edge indices do not depend on which endpoint each edge
    lists first: ascending, as given, all swapped, or a random half swapped."""
    def swap(i, j, w, flip):
        return (j, i, w) if flip else (i, j, w)

    for weights in (None, 1):  # as given, then cardinality
        given = [(i, j, weights or w) for i, j, w in edges]
        chosen = blossom.max_weight_edges(n, given)
        for flips in ([i > j for i, j, _ in given], [True] * len(given),
                      [rng.random() < 0.5 for _ in given]):
            oriented = [swap(*e, flip) for e, flip in zip(given, flips)]
            assert blossom.max_weight_edges(n, oriented) == chosen


@pytest.mark.parametrize("family, n", [("arbitrary", 400), ("big", 500)])
def test_chosen_edges_ignore_endpoint_order_at_scale(family, n):
    instance = gen_random(n, 1, family, 10**6)
    g = build_union_graph(instance.rows, instance.den)
    assert_endpoint_order_is_free(len(g.vertices), g.pairs, random.Random(n))


def test_chosen_edges_ignore_endpoint_order_on_random_graphs():
    rng = random.Random(63)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 16))
        assert_endpoint_order_is_free(len(g.vertices), g.pairs, rng)


def test_mates_equal_networkx_on_union_graphs():
    # the last two keep only the 2-union edges, the graphs A2's greedy is
    # checked against, where about half the vertices have no edge
    full, two = build_union_graph, two_union_graph
    for family, seed, build in [
            ("arbitrary", 1, full), ("arbitrary", 2, full), ("arbitrary", 3, full),
            ("big", 1, full), ("big", 2, full), ("big", 1, two), ("big", 2, two)]:
        instance = gen_random(200, seed, family, 10**6)
        g = build(instance.rows, instance.den)
        for cardinality in (False, True):
            assert our_pairs(g, cardinality) == nx_pairs(g, cardinality)


def test_edgeless_vertices_leave_the_chosen_edges_alone():
    rng = random.Random(64)
    for _ in range(1000):
        n = rng.randint(0, 14)
        edges = [(i, j, rng.choice((1, 2))) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        rng.shuffle(edges)
        # the same graph with six edgeless vertices slotted in anywhere
        spread = sorted(rng.sample(range(n + 6), n))
        wider = [(spread[i], spread[j], w) for i, j, w in edges]
        for weights in (None, 1):
            given = [(i, j, weights or w) for i, j, w in edges]
            widened = [(i, j, weights or w) for i, j, w in wider]
            assert (blossom.max_weight_edges(n + 6, widened)
                    == blossom.max_weight_edges(n, given)), (n, edges, spread)


@pytest.mark.parametrize("g", [
    union_graph((), ()),
    union_graph((4,), ()),
    union_graph((1, 5, 9), ()),
    union_graph((1, 2, 3, 7), (UnionEdge(2, 3, 2, 3, 2),)),
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
# the triangle as blossom 3 with dual 1 and edge 1-2 matched: each edge's
# vertex slack is -2, which the blossom dual makes up
FULL_TRIANGLE = TRIANGLE + ([-1, 2, 3], [0, 0, 0], [3, 3, 3, -1], {3: 1},
                            {3: [0, 2, 4]})
# that triangle as blossom 5, plus matched edge 3-4 and edge 2-3 of weight 2,
# whose vertex slack 0 + 1 - 4 no blossom shares
TRIANGLE_AND_EDGE = ([0, 1, 1, 2, 2, 0, 3, 4, 2, 3], [2, 2, 2, 2, 4],
                     [-1, 2, 3, 6, 7], [0, 0, 0, 1, 1], [5, 5, 5, -1, -1, -1],
                     {5: 1}, {5: [0, 2, 4]})


@pytest.mark.parametrize("state, message", [
    (ONE_EDGE + ([0, -1], [1, 1], [-1, -1], {}, {}),
     "vertex 0 is not matched symmetrically"),
    (ONE_EDGE + ([0, 1], [-1, 3], [-1, -1], {}, {}), "negative dual"),
    (ONE_EDGE + ([0, 1], [1, 2], [-1, -1], {}, {}), "edge 0 has slack 1"),
    # a blossom over the triangle with a positive dual but no matched edge
    (TRIANGLE + ([-1, -1, -1], [0, 0, 0], [3, 3, 3, -1], {3: 1}, {3: [0, 2, 4]}),
     "blossom 3 has dual 1 but is not full"),
    (TRIANGLE_AND_EDGE, "edge 4 has slack -3"),
])
def test_certificate_rejects_each_broken_condition(state, message):
    with pytest.raises(ArithmeticError, match=f"not optimal: {message}$"):
        blossom._certify(*state)


def test_certificate_counts_the_dual_of_a_shared_blossom():
    blossom._certify(*FULL_TRIANGLE)


@pytest.mark.parametrize("weight", [0, 3, -1])
def test_weights_other_than_one_and_two_are_rejected(weight):
    with pytest.raises(ValueError, match="weights must be 1 or 2"):
        blossom.max_weight_edges(3, [(0, 1, 1), (1, 2, weight)])


@pytest.mark.parametrize("edges", [
    [(0, 1, 1), (-1, 0, 2)], [(0, 1, 1), (1, 3, 1)], [(0, 1, 1), (1, 1, 2)],
], ids=["negative-endpoint", "endpoint-past-n", "loop"])
def test_loops_and_endpoints_out_of_range_are_rejected(edges):
    with pytest.raises(ValueError, match=r"^edge 1: .* is a loop or leaves 0\.\.2$"):
        blossom.max_weight_edges(3, edges)


@functools.cache
def loaded_by_import():
    """The modules that ``import bcpp`` loads in a fresh interpreter, run once."""
    src = os.path.dirname(os.path.dirname(bcpp.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import bcpp; "
            "print(*sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_import_does_not_load_networkx():
    assert "networkx" not in loaded_by_import()


def test_import_does_not_load_scipy():
    # HiGHS, through scipy, checks the exported model in test_blp only
    assert "scipy" not in loaded_by_import()

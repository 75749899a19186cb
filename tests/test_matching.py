import hashlib
import random

import pytest

from bcpp import (BarChart, UnionEdge, WeightedGraph, assemble_placement,
                  build_union_graph, dump_graph, evaluate_packing,
                  format_placement, ga_lo, gen_random, max_cardinality_matching,
                  max_weight_matching, oracle_opt, solve_mw)
from bcpp import blossom
from bcpp.matching import merge_matched
from helpers import (as_rows, brute_force_matching, inst, merge_along,
                     merge_charts, pair_weight, random_charts, two_union_graph,
                     union_graph)


def edge(u, v, w):
    return UnionEdge(u=u, v=v, weight=w, left=u, right=v)


def graph(n_vertices, edges):
    return union_graph(range(1, n_vertices + 1), edges)


def test_triangle_takes_the_heavy_edge():
    g = graph(3, [edge(1, 2, 2), edge(2, 3, 1), edge(3, 1, 1)])
    m = max_weight_matching(g)
    assert m.total_weight == 2
    assert [(e.u, e.v) for e in m.edges] == [(1, 2)]


def test_path_takes_both_end_edges():
    g = graph(4, [edge(1, 2, 2), edge(2, 3, 1), edge(3, 4, 2)])
    m = max_weight_matching(g)
    assert m.total_weight == 4
    assert [(e.u, e.v) for e in m.edges] == [(1, 2), (3, 4)]


def test_star_cardinality():
    g = graph(4, [edge(1, 2, 1), edge(1, 3, 1), edge(1, 4, 1)])
    assert len(max_cardinality_matching(g).edges) == 1


def test_cycle_cardinality():
    g = graph(4, [edge(1, 2, 1), edge(2, 3, 1), edge(3, 4, 1), edge(4, 1, 1)])
    assert len(max_cardinality_matching(g).edges) == 2


def _random_graph(rng, max_vertices=10):
    n = rng.randint(2, max_vertices)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < 0.5:
                edges.append(edge(u, v, rng.choice([1, 2])))
    return graph(n, edges)


def test_matchings_equal_brute_force_on_random_graphs():
    rng = random.Random(21)
    for _ in range(120):
        g = _random_graph(rng)
        plain = [(e.u, e.v, e.weight) for e in g.edges]
        best_weight, best_card = brute_force_matching(plain)
        assert max_weight_matching(g).total_weight == best_weight
        assert len(max_cardinality_matching(g).edges) == best_card


def test_matching_is_vertex_disjoint():
    rng = random.Random(22)
    for _ in range(50):
        g = _random_graph(rng)
        for m in (max_weight_matching(g), max_cardinality_matching(g)):
            seen = [x for e in m.edges for x in (e.u, e.v)]
            assert len(seen) == len(set(seen))


def test_matching_deterministic_for_canonical_input():
    rng = random.Random(23)
    for _ in range(20):
        g = _random_graph(rng)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        g2 = union_graph(g.vertices, shuffled)
        assert max_weight_matching(g) == max_weight_matching(g2)


def test_union_graph_single_heavy_pair():
    instance = inst((40, 45), (50, 50), (90, 90), den=100)
    g = build_union_graph(instance.rows, instance.den)
    assert [(e.u, e.v, e.weight) for e in g.edges] == [(1, 2, 2)]


def test_union_graph_edgeless_when_everything_collides():
    instance = inst((9, 9), (8, 8), (9, 8))
    g = build_union_graph(instance.rows, instance.den)
    assert g.edges == ()


def test_union_graph_mixed_weights():
    instance = inst((3, 4), (5, 5), (6, 8))
    g = build_union_graph(instance.rows, instance.den)
    assert [(e.u, e.v, e.weight) for e in g.edges] == [(1, 2, 2), (1, 3, 1)]


def a2_round_two_sample(n: int) -> list[BarChart]:
    """150 charts as one maximum 2-union matching leaves them, pooled from
    big, arbitrary and big_nonincreasing instances of size n and given fresh
    ids: no family 2-unites within itself after that round, so few pairs
    2-unite."""
    pool = []
    for family in ("big", "arbitrary", "big_nonincreasing"):
        instance = gen_random(n, 7, family, 10**6)
        g = two_union_graph(instance.rows, instance.den)
        pool += merge_along(instance.charts, max_cardinality_matching(g))
    picked = random.Random(n).sample(pool, 150)
    return [BarChart(id=3 * k + 2, bars=c.bars, den=c.den) for k, c in enumerate(picked)]


def test_union_graph_matches_pair_weight_on_every_pair():
    rng = random.Random(24)
    inputs = []
    for _ in range(150):
        den = rng.choice([2, 10, 20, 100])
        inputs.append(random_charts(rng, rng.randint(0, 16), den))
    # larger graphs at small and large D, and charts after one 2-union matching
    for n in (63, 64, 150):
        for den in (3, 4, 100):
            inputs.append(random_charts(random.Random(n * den), n, den))
    inputs += [a2_round_two_sample(n) for n in (200, 500)]
    for charts in inputs:
        ordered = sorted(charts, key=lambda c: c.id)
        expected = []
        for a, i in enumerate(ordered):
            for j in ordered[a + 1:]:
                pw = pair_weight(i, j)
                if pw.weight:
                    expected.append((i.id, j.id, pw.weight, pw.left, pw.right))
        g = build_union_graph(*as_rows(charts))
        assert g.vertices == tuple(c.id for c in ordered)
        assert [(e.u, e.v, e.weight, e.left, e.right) for e in g.edges] == expected


@pytest.mark.parametrize("family", ["arbitrary", "big", "big_nonincreasing"])
def test_blossom_input_is_the_sorted_indexed_edge_list(family):
    # the reference list: every uniting pair by pair_weight as a UnionEdge,
    # sorted, its ids mapped to positions; the graph holds the lists the
    # blossom builds from it, and each matcher chooses what the blossom
    # chooses on it, with w = 1 for cardinality
    for n in (5, 50, 200):
        instance = gen_random(n, 7, family, 10**6)
        charts = instance.charts
        for build, least in ((build_union_graph, 1), (two_union_graph, 2)):
            expected = sorted(
                UnionEdge(i.id, j.id, pw.weight, pw.left, pw.right)
                for a, i in enumerate(charts) for j in charts[a + 1:]
                for pw in [pair_weight(i, j)] if pw.weight >= least)
            index = {c.id: k for k, c in enumerate(charts)}
            reference = [(index[e.left], index[e.right], e.weight) for e in expected]
            g = build(instance.rows, instance.den)
            assert g.edges == tuple(expected)
            assert g.pairs == reference
            assert (g.endpoint, g.wt2, g.adj, g.heavy) == blossom.edge_lists(n, reference)
            for solve, cardinality in ((max_weight_matching, False),
                                       (max_cardinality_matching, True)):
                given = [(i, j, 1 if cardinality else w) for i, j, w in reference]
                chosen = blossom.max_weight_edges(n, given)
                assert solve(g).edges == tuple(expected[k] for k in chosen)


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1, 1), (1, 1, 2)], r"^edge 1: \(1, 1\) is a loop or leaves 0\.\.2$"),
    ([(0, 1, 1), (1, 3, 1)], r"^edge 1: \(1, 3\) is a loop or leaves 0\.\.2$"),
    ([(0, 1, 1), (-1, 0, 2)], r"^edge 1: \(-1, 0\) is a loop or leaves 0\.\.2$"),
    ([(0, 1, 1), (1, 2, 3)], r"^edge 1: weights must be 1 or 2, not 3$"),
], ids=["loop", "endpoint-past-n", "negative-endpoint", "weight-3"])
def test_a_bad_hand_made_graph_is_rejected_when_built(pairs, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph.from_pairs((4, 7, 9), pairs)


def test_merge_matched_merges_each_matched_pair_and_keeps_the_rest():
    # the rows of the reference merge; no union leaves a chart one bar wide
    rng = random.Random(25)
    merges = 0
    for _ in range(150):
        charts = [c for c in random_charts(rng, rng.randint(0, 16),
                                           rng.choice([2, 10, 20, 100])) if c.width > 1]
        by_id = {c.id: c for c in charts}
        rows, den = as_rows(charts)
        m = max_weight_matching(build_union_graph(rows, den))
        merged = [merge_charts(by_id[e.left], by_id[e.right], e.weight)
                  for e in m.edges]
        matched = {x for e in m.edges for x in (e.u, e.v)}
        untouched = [c for c in charts if c.id not in matched]
        assert merge_matched(list(rows), m) == list(as_rows(merged + untouched)[0])
        assert [c.id for c in merged] == [e.u for e in m.edges]
        merges += len(merged)
    assert merges > 100


def test_dump_graph_format():
    instance = inst((3, 4), (5, 5), (6, 8))
    g = build_union_graph(instance.rows, instance.den)
    assert dump_graph(g) == "1 2 2\n1 3 1\n"


def test_m1w_merges_heavy_pair():
    instance = inst((3, 4), (5, 5), (6, 8))
    res = solve_mw(instance, max_rounds=1)
    assert res.length == 4
    ev = evaluate_packing(instance, res.placement)
    assert ev.feasible and ev.length == 4
    assert oracle_opt(instance) == 4


def test_m1w_edgeless_instance():
    instance = inst((9, 9), (8, 8), (9, 8))
    assert solve_mw(instance, max_rounds=1).length == 2 * instance.n


def test_m1w_full_stack():
    assert solve_mw(inst((5, 5), (5, 5)), max_rounds=1).length == 2


def test_m1w_is_mw_first_round():
    # the placements M1w gave as a solver of its own, pinned before it
    # became solve_mw(max_rounds=1)
    pinned = "b9001988dae38c0fbb27f181b883fc544f8efaa38f946b6a696ba930b1ce6bb2"
    rng = random.Random(33)
    text = []
    for trial in range(80):
        n = rng.randint(1, 14)
        instance = gen_random(n, 500 + trial, rng.choice(["arbitrary", "big"]), 20)
        m1w = solve_mw(instance, max_rounds=1)
        assert m1w.rounds == 1
        mw = solve_mw(instance)
        assert m1w.unions == mw.unions[:1]
        # going on from round 1 gives Mw in every field, its rows included,
        # and so does going on from any prefix of Mw's rounds, or all of them
        assert solve_mw(instance, start=m1w) == mw
        for k in range(mw.rounds + 2):
            assert solve_mw(instance, start=solve_mw(instance, max_rounds=k)) == mw
        rows, den = instance.rows, instance.den
        matched = max_weight_matching(build_union_graph(rows, den))
        assert m1w.unions == ((matched,) if matched.edges else ())
        merged = merge_matched(rows, matched)
        one_round = assemble_placement([r[:1] for r in merged], merged, den)
        assert (m1w.placement, m1w.length) == one_round
        text.append(format_placement(m1w.placement))
    assert hashlib.sha256("".join(text).encode()).hexdigest() == pinned


@pytest.mark.parametrize("start", [
    solve_mw(gen_random(5, 2, "arbitrary", 10), max_rounds=1),  # charts 1-5 of 8
    ga_lo(gen_random(8, 1, "arbitrary", 10))], ids=["fewer charts", "no rows"])
def test_mw_refuses_a_start_that_does_not_hold_charts_1_to_n(start):
    with pytest.raises(ValueError, match="charts 1..n once each"):
        solve_mw(gen_random(8, 1, "arbitrary", 10), start=start)


def test_mw_stops_when_edgeless():
    instance = inst((3, 4), (5, 5), (6, 8))
    res = solve_mw(instance)
    assert res.length == 4
    assert res.rounds == 2
    assert [[(e.left, e.right, e.weight) for e in m.edges]
            for m in res.unions] == [[(1, 2, 2)]]


def test_mw_two_rounds_of_pairing():
    instance = inst((4, 4), (4, 4), (4, 4), (4, 4))
    res = solve_mw(instance)
    assert res.length == 4
    assert res.rounds == 2
    assert oracle_opt(instance) == 4


def test_mw_single_round_on_blocked_instance():
    instance = inst((9, 9), (8, 8))
    res = solve_mw(instance)
    assert res.length == 4
    assert res.rounds == 1
    assert res.unions == ()


def test_mw_never_worse_than_m1w():
    rng = random.Random(31)
    for trial in range(120):
        n = rng.randint(2, 9)
        instance = gen_random(n, trial, rng.choice(["arbitrary", "big"]), 20)
        assert (solve_mw(instance).length
                <= solve_mw(instance, max_rounds=1).length)


def test_cell_saving_accounting():
    rng = random.Random(32)
    for trial in range(60):
        n = rng.randint(2, 9)
        instance = gen_random(n, 900 + trial, "arbitrary", 20)
        res = solve_mw(instance)
        saved = sum(m.total_weight for m in res.unions)
        assert res.length == 2 * n - saved
        assert len(res.unions) == res.rounds - 1
        ev = evaluate_packing(instance, res.placement)
        assert ev.feasible and ev.length == res.length


def test_mw_graph_sink_receives_rounds():
    dumps = {}
    res = solve_mw(inst((4, 4), (4, 4), (4, 4), (4, 4)),
                   dump=lambda name, text: dumps.__setitem__(name, text))
    assert sorted(dumps) == ["round1", "round2"]
    assert dumps[f"round{res.rounds}"] == ""  # final graph is edgeless

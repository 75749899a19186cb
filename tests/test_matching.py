import hashlib
import random

import pytest

from bcpp import (BarChart, UnionEdge, assemble_placement,
                  build_union_graph, dump_graph, evaluate_packing,
                  format_placement, gen_random, max_cardinality_matching,
                  max_weight_matching, merge_union, oracle_opt, solve_mw)
from bcpp import matching
from bcpp.matching import merge_matched
from helpers import (brute_force_matching, inst, pair_weight, random_charts,
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
    g = build_union_graph(inst((40, 45), (50, 50), (90, 90), den=100).charts)
    assert [(e.u, e.v, e.weight) for e in g.edges] == [(1, 2, 2)]


def test_union_graph_edgeless_when_everything_collides():
    g = build_union_graph(inst((9, 9), (8, 8), (9, 8)).charts)
    assert g.edges == ()


def test_union_graph_mixed_weights():
    g = build_union_graph(inst((3, 4), (5, 5), (6, 8)).charts)
    assert [(e.u, e.v, e.weight) for e in g.edges] == [(1, 2, 2), (1, 3, 1)]


def a2_round_two_sample(n: int) -> list[BarChart]:
    """150 of A2's round-2 charts, pooled from big, arbitrary and
    big_nonincreasing instances of size n and given fresh ids: no family
    2-unites within itself after round 1, so some rows pass the staircase
    and most do not."""
    pool = []
    for family in ("big", "arbitrary", "big_nonincreasing"):
        charts = gen_random(n, 7, family, 10**6).charts
        g = build_union_graph(charts, two_unions_only=True)
        pool += merge_matched(charts, max_cardinality_matching(g))
    picked = random.Random(n).sample(pool, 150)
    return [BarChart(id=3 * k + 2, bars=c.bars, den=c.den) for k, c in enumerate(picked)]


def test_union_graph_matches_pair_weight_on_every_pair():
    rng = random.Random(24)
    inputs = []
    for _ in range(150):
        den = rng.choice([2, 10, 20, 100])
        inputs.append(random_charts(rng, rng.randint(0, 16), den))
    # just below, at and past the row count from which 2-union graphs drop
    # the rows that cannot 2-unite, and A2's round-2 charts
    for n in (matching.STAIRCASE_MIN_ROWS - 1, matching.STAIRCASE_MIN_ROWS, 150):
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
        g = build_union_graph(charts)
        assert g.vertices == tuple(c.id for c in ordered)
        assert [(e.u, e.v, e.weight, e.left, e.right) for e in g.edges] == expected
        two = build_union_graph(charts, two_unions_only=True)
        assert two.vertices == g.vertices
        assert two.edges == tuple(e for e in g.edges if e.weight == 2)


@pytest.mark.parametrize("family", ["arbitrary", "big", "big_nonincreasing"])
def test_blossom_input_is_the_sorted_indexed_edge_list(family, monkeypatch):
    # the reference list: every uniting pair by pair_weight as a UnionEdge,
    # sorted, its ids mapped to positions, and w = 1 for cardinality
    handed = []

    def spy(n, edges):
        handed.append((edges, max_weight_edges(n, edges)))
        return handed[-1][1]

    max_weight_edges = matching.max_weight_edges
    monkeypatch.setattr(matching, "max_weight_edges", spy)
    for n in (5, 50, 200):
        charts = gen_random(n, 7, family, 10**6).charts
        for two_unions_only in (False, True):
            expected = sorted(
                UnionEdge(i.id, j.id, pw.weight, pw.left, pw.right)
                for a, i in enumerate(charts) for j in charts[a + 1:]
                for pw in [pair_weight(i, j)]
                if pw.weight == 2 or pw.weight and not two_unions_only)
            index = {c.id: k for k, c in enumerate(charts)}
            g = build_union_graph(charts, two_unions_only=two_unions_only)
            assert g.edges == tuple(expected)
            for solve, cardinality in ((max_weight_matching, False),
                                       (max_cardinality_matching, True)):
                handed.clear()
                matched = solve(g).edges
                [(edges, chosen)] = handed
                assert edges == [(index[e.left], index[e.right],
                                  1 if cardinality else e.weight)
                                 for e in expected]
                assert matched == tuple(expected[k] for k in chosen)


def test_merge_matched_merges_each_matched_pair_and_keeps_the_rest():
    rng = random.Random(25)
    merges = 0
    for _ in range(150):
        charts = random_charts(rng, rng.randint(0, 16), rng.choice([2, 10, 20, 100]))
        by_id = {c.id: c for c in charts}
        m = max_weight_matching(build_union_graph(charts))
        merged = [merge_union(by_id[e.left], by_id[e.right], e.weight)
                  for e in m.edges]
        matched = {x for e in m.edges for x in (e.u, e.v)}
        untouched = [c for c in charts if c.id not in matched]
        assert merge_matched(charts, m) == sorted(
            merged + untouched, key=lambda c: c.id)
        assert [c.id for c in merged] == [e.u for e in m.edges]
        merges += len(merged)
    assert merges > 100


def test_union_graph_rejects_mixed_denominators():
    charts = [BarChart(id=1, bars=(9, 9), den=10),
              BarChart(id=2, bars=(50, 50), den=100)]
    for two_unions_only in (False, True):
        with pytest.raises(ValueError, match="share one denominator"):
            build_union_graph(charts, two_unions_only=two_unions_only)


def test_dump_graph_format():
    g = build_union_graph(inst((3, 4), (5, 5), (6, 8)).charts)
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
        assert m1w.unions == solve_mw(instance).unions[:1]
        matched = max_weight_matching(build_union_graph(instance.charts))
        assert m1w.unions == ((matched,) if matched.edges else ())
        one_round = assemble_placement(merge_matched(instance.charts, matched))
        assert m1w.placement == one_round
        text.append(format_placement(m1w.placement))
    assert hashlib.sha256("".join(text).encode()).hexdigest() == pinned


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

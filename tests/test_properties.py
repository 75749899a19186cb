"""Property sweep over generated instances.

Instances have a denominator D from 2 to 100 and 1 to 8 charts; bars equal
to D and repeated charts are drawn often.  The union rows are also checked
on loose charts of widths 1 to 4, as unions leave them, A2's greedy
formation on ``gen_random`` charts of every family, up to 40 at D <= 10,
and the rows M1w, Mw and A2 merge against the reference merge on
``gen_random`` charts, up to 60.  Hypothesis runs derandomized, so every
run checks the same examples.
"""

from copy import deepcopy
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcpp import (SOLVERS, BarChart, WeightedGraph, build_arc_digraph,
                  build_union_graph, compact, evaluate_packing,
                  form_big_matchings, form_big_scan, ga_lo, gen_random,
                  lower_bounds, max_cardinality_matching, max_weight_matching,
                  oracle_opt, solve_big_pipeline, solve_exact, solve_mw)
from bcpp import blossom
from bcpp.bigpipe import _chain_matching, _dominance_matching
from bcpp.matching import merge_matched
from helpers import (as_rows, brute_force_matching, inst, merge_along, merge_charts,
                     naive_ga_lo, pair_weight, reference_big_pipeline,
                     reference_bipartite_matching, reference_greedy_formation,
                     reference_mw, row_charts, two_union_graph, union_feasible)

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def instances(draw, big: bool = False):
    """An instance whose charts repeat a few drawn kinds; with ``big`` every
    chart has a bar above D/2."""
    den = draw(st.integers(2, 100))
    bar = st.one_of(st.just(den), st.integers(1, den))
    chart = st.tuples(bar, bar)
    if big:
        high = st.integers(den // 2 + 1, den)
        chart = st.one_of(st.tuples(high, bar), st.tuples(bar, high))
    kinds = draw(st.lists(chart, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=8))
    return inst(*(kinds[p] for p in picks), den=den)


@st.composite
def chart_lists(draw):
    """0 to 8 charts of widths 1 to 4 with gapped ids in any order, drawn
    like ``helpers.random_charts``: bars often D or at most D/2."""
    den = draw(st.integers(2, 100))
    bar = st.one_of(st.just(den), st.integers(1, den), st.integers(1, max(1, den // 2)))
    bars = draw(st.lists(st.lists(bar, min_size=1, max_size=4), max_size=8))
    charts = [BarChart(id=3 * k + 1, bars=tuple(b), den=den) for k, b in enumerate(bars)]
    return draw(st.permutations(charts))


@SWEEP
@given(instances())
def test_every_solver_packs_feasibly_at_or_above_every_bound(instance):
    opt = oracle_opt(instance)
    bounds = lower_bounds(instance)
    exact = solve_exact(instance)
    assert (exact.status, exact.length) == ("optimal", opt)
    results = {"EXACT": (exact.length, exact.placement)}
    for name, solve in SOLVERS.items():
        solved = solve(instance)
        results[name] = (solved.length, solved.placement)
    for name, (length, placement) in results.items():
        check = evaluate_packing(instance, placement)
        assert check.feasible and check.length == length, name
        assert length >= max(opt, bounds.area_lb, bounds.big_lb,
                             bounds.combined), name
        packed = compact(instance, placement)
        after = evaluate_packing(instance, packed)
        assert after.feasible and after.length == length, name
        assert sorted(after.occupancy) == list(range(1, length + 1)), name


@SWEEP
@given(instances(big=True))
def test_mw_is_within_three_halves_on_big_charts(instance):
    assert all(ch.is_big for ch in instance.charts)
    assert 2 * SOLVERS["Mw"](instance).length <= 3 * oracle_opt(instance)


@SWEEP
@given(instances())
def test_ga_lo_equals_the_round_based_reference(instance):
    reference = naive_ga_lo(instance)
    # the same cells, fixed in the same rounds
    assert list(ga_lo(instance).placement.items()) == list(reference.items())
    # the sweep rests on this: the rounds fix charts at non-decreasing cells
    cells = list(reference.values())
    assert cells == sorted(cells)


@SWEEP
@given(st.data())
def test_ga_lo_is_a_function_of_the_chart_multiset(data):
    # relabeling the charts moves no bar kind to another cell, so the stable
    # sort's tie rule (ascending id) never shows in GA_LO's packing
    def packed(instance):
        res = ga_lo(instance)
        return res.length, sorted((instance.charts[cid - 1].bars, cell)
                                  for cid, cell in res.placement.items())

    instance = data.draw(instances())
    bars = data.draw(st.permutations([ch.bars for ch in instance.charts]))
    assert packed(inst(*bars, den=instance.den)) == packed(instance)


@SWEEP
@given(instances())
def test_ga_lo_leaves_no_gap_to_compact(instance):
    # the sweep never leaves an empty cell while charts remain
    placement = ga_lo(instance).placement
    assert compact(instance, placement) == placement


@SWEEP
@given(chart_lists())
def test_union_rows_match_their_definitions_at_every_width(charts):
    ordered = sorted(charts, key=lambda c: c.id)
    edges = [(i.id, j.id, pw.weight, pw.left, pw.right)
             for a, i in enumerate(ordered) for j in ordered[a + 1:]
             for pw in [pair_weight(i, j)] if pw.weight]
    assert [tuple(e) for e in build_union_graph(*as_rows(charts)).edges] == edges
    arcs = [(i.id, j.id) for i in ordered for j in ordered
            if i.id != j.id and union_feasible(i, j, 1)]
    assert list(build_arc_digraph(*as_rows(charts)).arcs) == arcs


@SWEEP
@given(st.one_of(st.builds(lambda instance, form: row_charts(
                               form(instance.rows, instance.den), instance.den),
                           st.one_of(instances(), instances(big=True)),
                           st.sampled_from([lambda rows, den: rows,
                                            form_big_scan, form_big_matchings])),
                 chart_lists()))
@example(inst((7, 2), (4, 1), (4, 5), den=7).charts)  # needs the swap
def test_chain_matching_is_maximum_and_feasible(charts):
    # the greedy matching of the 1-union digraph has Hopcroft-Karp's size on
    # raw charts, on both formations and on loose charts as unions leave
    # them, and every pair it matches is a feasible 1-union taking each head
    # once
    by_id = {c.id: c for c in charts}
    g = build_arc_digraph(*as_rows(charts))
    pairs = [(g.vertices[i], g.vertices[j])
             for i, j in enumerate(_chain_matching(g)[0]) if j >= 0]
    assert len({v for _, v in pairs}) == len(pairs)
    assert all(u != v and union_feasible(by_id[u], by_id[v], 1) for u, v in pairs)
    heads = {u: [] for u in g.vertices}
    for u, v in g.arcs:
        heads[u].append(v)
    assert len(pairs) == len(reference_bipartite_matching(list(g.vertices), heads))


@SWEEP
@given(st.one_of(instances(), instances(big=True)),
       st.sampled_from([form_big_scan, form_big_matchings]))
def test_pipeline_lays_out_what_merging_every_path_would(instance, form):
    # A1's and A2's layout of the cover paths equals merging each path by
    # 1-unions and concatenating the merged charts by id
    formed = form(instance.rows, instance.den)
    solved = solve_big_pipeline(formed, instance.den)
    reference = reference_big_pipeline(formed, instance.den)
    assert (solved.placement, solved.length) == (reference.placement, reference.length)


@SWEEP
@given(st.one_of(instances(), st.builds(gen_random, st.integers(1, 60),
                                        st.integers(1, 10**6),
                                        st.sampled_from(["arbitrary", "big",
                                                         "big_nonincreasing"]),
                                        st.sampled_from([4, 10, 100, 10**6]))))
@example(inst((1, 1), (1, 1), (2, 6), (4, 1), den=6))  # round 2 2-unites widths 3 and 2
def test_merged_rows_follow_the_reference_merge(instance):
    # M1w and Mw merge rows, never charts: each round's graph, matching and
    # merge, and the layout, equal merging the charts by the reference merge
    # along each matching and laying them out.  A2's rounds equal the plain
    # greedy merged by the reference merge, and each round matches as many
    # pairs as the cardinality blossom.  The instance's rows are the
    # reference rows, made once on the first read
    rows, charts = instance.rows, instance.charts
    assert rows == as_rows(charts)[0]
    assert solve_mw(instance, max_rounds=1) == reference_mw(instance, max_rounds=1)
    reference = reference_mw(instance)
    assert solve_mw(instance) == reference
    assert instance.rows is rows
    for matching in reference.unions:
        rows, charts = merge_matched(rows, matching), merge_along(charts, matching)
        assert rows == list(as_rows(charts)[0])
    formed, sizes = reference_greedy_formation(instance.charts)
    assert form_big_matchings(instance.rows, instance.den) == formed
    assert all(greedy == blossom for greedy, blossom in sizes)


@SWEEP
@given(st.one_of(instances(), instances(big=True),
                 st.builds(gen_random, st.integers(2, 40), st.integers(1, 10**6),
                           st.sampled_from(["arbitrary", "big", "big_nonincreasing"]),
                           st.sampled_from([4, 6, 10]))),
       st.sampled_from([form_big_scan, form_big_matchings]))
def test_formed_tuples_are_their_origins_merged(instance, form):
    # each formed row is what merging its origins in id order by 2-unions
    # gives: the least origin id, two bars, the bar sums and every offset 0
    by_id = {c.id: c for c in instance.charts}
    formed = form(instance.rows, instance.den)
    assert [f[0] for f in formed] == sorted(f[0] for f in formed)
    assert sorted(oid for *_, origins in formed for oid, _ in origins) == list(by_id)
    for *row, width, origins in formed:
        parts = [by_id[oid] for oid in sorted(oid for oid, _ in origins)]
        merged = reduce(lambda left, right: merge_charts(left, right, 2), parts)
        assert (*row, width, tuple(sorted(origins))) == as_rows([merged])[0][0]
        assert width == 2 and all(off == 0 for _, off in origins)
        assert merged.bars == tuple(map(sum, zip(*(c.bars for c in parts))))
    if form is form_big_scan:
        # a small formed chart is the buffer left at the end, which holds
        # every small chart after its least id
        small = [f for f in formed if 2 * max(f[1], f[2]) <= instance.den]
        assert len(small) <= 1
        for cid, *_, origins in small:
            later = {c.id for c in instance.charts if c.id > cid and not c.is_big}
            assert later <= {oid for oid, _ in origins}


def _relabeled(data, instance):
    bars = data.draw(st.permutations([ch.bars for ch in instance.charts]))
    return inst(*bars, den=instance.den)


@SWEEP
@given(st.data())
def test_m1w_length_is_a_function_of_the_chart_multiset(data):
    instance = data.draw(instances())
    relabeled = _relabeled(data, instance)
    assert SOLVERS["M1w"](relabeled).length == SOLVERS["M1w"](instance).length


@SWEEP
@given(instances(), st.randoms(use_true_random=False))
def test_m1w_length_is_the_width_less_the_matching_weight(instance, rnd):
    # one round merges each matched pair, saving its weight in cells, so the
    # length is fixed by the weight, whatever order the edges are listed in
    g = build_union_graph(instance.rows, instance.den)
    shuffled = WeightedGraph.from_pairs(g.vertices, rnd.sample(g.pairs, len(g.pairs)))
    width = sum(ch.width for ch in instance.charts)
    length = SOLVERS["M1w"](instance).length
    assert length == width - max_weight_matching(g).total_weight
    assert length == width - max_weight_matching(shuffled).total_weight


@SWEEP
@given(st.data())
def test_mw_is_no_longer_than_m1w_in_every_order(data):
    instance = data.draw(instances())
    for case in (instance, _relabeled(data, instance)):
        assert SOLVERS["Mw"](case).length <= SOLVERS["M1w"](case).length


@SWEEP
@given(st.one_of(instances(), instances(big=True),
                 st.builds(gen_random, st.integers(2, 40), st.integers(1, 10**6),
                           st.sampled_from(["arbitrary", "big", "big_nonincreasing"]),
                           st.sampled_from([2, 3, 4, 5, 6, 7, 8, 10]))))
@example(inst((9, 1), (8, 4), (1, 6), (1, 9), den=10))  # the smallest fitting b is one short
@example(inst((3, 3), (3, 2), den=6))  # unless it leaves the list, chart 1 takes itself
def test_dominance_matching_is_maximum_and_ends_the_formation(instance):
    # on two-bar charts the greedy matches as many pairs as the blossom, each
    # a feasible 2-union with the smaller id first and each chart once; on
    # big input its one-big-bar restriction makes the same pairs, and no two
    # formed charts 2-unite
    charts = instance.charts
    by_id = {c.id: c for c in charts}
    rows = instance.rows, instance.den
    pairs = _dominance_matching(*rows)
    graph = two_union_graph(*rows)
    assert len(pairs) == len(max_cardinality_matching(graph).edges)
    assert len({c for pair in pairs for c in pair}) == 2 * len(pairs)
    assert all(u < v and union_feasible(by_id[u], by_id[v], 2) for u, v in pairs)
    formed = form_big_matchings(*rows)
    if all(c.is_big for c in charts):
        assert _dominance_matching(*rows, big=True) == pairs
        assert len(formed) == len(charts) - len(pairs)
    assert two_union_graph(formed, instance.den).pairs == []


@SWEEP
@given(st.one_of(instances(), instances(big=True)))
def test_the_scan_writes_what_the_blossom_builds_from_the_pairs(instance):
    # the pair scan writes the blossom's lists itself; they must be those the
    # validating builder makes from the edge list, so the matchers choose
    # what max_weight_edges chooses, and matching reads the graph only
    g = build_union_graph(instance.rows, instance.den)
    n, pairs = len(g.vertices), g.pairs
    assert (g.endpoint, g.wt2, g.adj, g.heavy) == blossom.edge_lists(n, pairs)
    before = deepcopy(g)
    for solve, cardinality in ((max_weight_matching, False),
                               (max_cardinality_matching, True)):
        listed = [(i, j, 1 if cardinality else w) for i, j, w in pairs]
        chosen = blossom.max_weight_edges(n, listed)
        assert solve(g).edges == tuple(map(g.edge, chosen))
        assert solve(g) == solve(g)
    assert g == before


@SWEEP
@given(instances())
def test_matchings_on_union_graphs_equal_brute_force(instance):
    g = build_union_graph(instance.rows, instance.den)
    best_weight, best_card = brute_force_matching(
        [(e.u, e.v, e.weight) for e in g.edges])
    assert max_weight_matching(g).total_weight == best_weight
    assert len(max_cardinality_matching(g).edges) == best_card


@SWEEP
@given(instances(), st.data())
def test_a_node_limit_stops_the_same_search_early(instance, data):
    # the limited search is a prefix of the unlimited one: it counts the same
    # nodes up to the limit, its incumbent never worsens as the limit grows,
    # and it claims only the combined bound unless it ran to the end
    full = solve_exact(instance)
    combined = lower_bounds(instance).combined
    low = data.draw(st.integers(1, full.node_count + 1))  # limits on both sides of it
    high = data.draw(st.integers(low + 1, full.node_count + 2))
    lengths = []
    for limit in (low, high):
        r = solve_exact(instance, node_limit=limit)
        assert r.node_count == min(limit, full.node_count)
        if limit <= full.node_count:
            assert r.lower_bound == combined
        else:
            assert r == full
        lengths.append(r.length)
    assert lengths[0] >= lengths[1] >= full.length

"""Property sweep over generated instances.

Instances have a denominator D from 2 to 100 and 1 to 8 charts; bars equal
to D and repeated charts are drawn often.  The union rows are also checked
on loose charts of widths 1 to 4, as unions leave them.  Hypothesis runs
derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bcpp import (SOLVERS, BarChart, build_arc_digraph, build_union_graph, compact,
                  evaluate_packing, ga_lo, lower_bounds, max_cardinality_matching,
                  max_weight_matching, oracle_opt, solve_exact, union_feasible)
from helpers import brute_force_matching, inst, naive_ga_lo, pair_weight

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
    assert [tuple(e) for e in build_union_graph(charts).edges] == edges
    arcs = [(i.id, j.id) for i in ordered for j in ordered
            if i.id != j.id and union_feasible(i, j, 1)]
    assert list(build_arc_digraph(charts).arcs) == arcs


@SWEEP
@given(instances())
def test_matchings_on_union_graphs_equal_brute_force(instance):
    g = build_union_graph(instance.charts)
    best_weight, best_card = brute_force_matching(
        [(e.u, e.v, e.weight) for e in g.edges])
    assert max_weight_matching(g).total_weight == best_weight
    assert len(max_cardinality_matching(g).edges) == best_card

import hashlib
import random

import pytest

from bcpp import (BarChart, PathCover, build_arc_digraph, chart_rows,
                  evaluate_packing, form_big_matchings, form_big_scan, gen_random,
                  lower_bounds, oracle_opt, path_cover, solve_big_pipeline)
from bcpp import bigpipe, matching, unions
from bcpp.bigpipe import dump_digraph
from bcpp.harness import SOLVERS
from helpers import (as_rows, brute_force_matching, brute_force_path_cover_arcs,
                     check_path_cover, inst, mk, random_charts, row_charts,
                     union_feasible)


def test_scan_merges_smalls_into_big():
    # the merged chart keeps the slot of its least id
    res = row_charts(form_big_scan(*chart_rows(inst((3, 2), (6, 7), (4, 3)).charts)), 10)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((7, 5), [1, 3]), ((6, 7), [2])]
    assert all(c.is_big for c in res)


def test_scan_keeps_all_big_input():
    charts = inst((9, 9), (8, 8)).charts
    res = form_big_scan(*chart_rows(charts))
    assert res == as_rows(charts)[0]
    assert all(c.is_big for c in row_charts(res, 10))


def test_scan_keeps_growing_buffer_until_big():
    res = row_charts(form_big_scan(*chart_rows(inst((2, 2), (1, 1), (3, 3)).charts)), 10)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((6, 6), [1, 2, 3])]
    assert all(c.is_big for c in res)


def test_scan_leftover_small():
    # the leftover keeps the slot of its least id, before the later big chart
    res = row_charts(form_big_scan(*chart_rows(inst((2, 2), (6, 6)).charts)), 10)
    assert [c.bars for c in res[1:]] == [(6, 6)]
    assert not res[0].is_big and res[0].bars == (2, 2)


def test_scan_refuses_a_chart_not_two_bars_wide():
    for bars in ((4,), (4, 4, 4)):
        with pytest.raises(ValueError, match="chart 2: A1 forms two-bar charts"):
            form_big_scan(*as_rows([mk(1, 3, 3), BarChart(2, bars, 10)]))


def test_scan_emits_at_most_one_small():
    rng = random.Random(41)
    for trial in range(80):
        instance = gen_random(rng.randint(1, 12), trial, "arbitrary", 20)
        res = row_charts(form_big_scan(*chart_rows(instance.charts)), 20)
        assert sum(not c.is_big for c in res) <= 1
        total = sum(len(c.origins) for c in res)
        assert total == instance.n


def test_matchings_formation_keeps_a_small():
    rows = chart_rows(inst((4, 4), (4, 4), (4, 4)).charts)
    out = row_charts(form_big_matchings(*rows), 10)
    assert sorted(c.bars for c in out) == [(4, 4), (8, 8)]


def test_matchings_formation_all_big_fixed_point():
    charts = inst((9, 9), (8, 8)).charts
    assert form_big_matchings(*chart_rows(charts)) == as_rows(charts)[0]


def test_matchings_formation_boundary_pair():
    out = row_charts(form_big_matchings(*chart_rows(inst((5, 5), (5, 5)).charts)), 10)
    assert [c.bars for c in out] == [(10, 10)]


def test_matchings_formation_idempotent():
    rng = random.Random(42)
    for trial in range(40):
        instance = gen_random(rng.randint(1, 10), trial, "arbitrary", 20)
        once = form_big_matchings(*chart_rows(instance.charts))
        assert form_big_matchings(list(once), 20) == once


def test_arc_digraph_examples():
    assert build_arc_digraph(*as_rows(inst((6, 7), (7, 5)).charts)).arcs == ()
    assert build_arc_digraph(*as_rows(inst((9, 2), (7, 6)).charts)).arcs == ((1, 2),)
    g = build_arc_digraph(*as_rows(inst((9, 2), (7, 6), (8, 3)).charts))
    assert g.arcs == ((1, 2), (1, 3), (3, 2))
    assert dump_digraph(g) == "1 2\n1 3\n3 2\n"


def test_arc_digraph_matches_definition():
    rng = random.Random(45)
    for _ in range(150):
        den = rng.choice([2, 10, 20, 100])
        charts = random_charts(rng, rng.randint(0, 16), den)
        ids = sorted(c.id for c in charts)
        by_id = {c.id: c for c in charts}
        expected = tuple((i, j) for i in ids for j in ids
                         if i != j and by_id[i].bars[-1] + by_id[j].bars[0] <= den)
        g = build_arc_digraph(*as_rows(charts))
        assert g.vertices == tuple(ids)
        assert g.arcs == expected


def _brute_force_arcs(charts):
    ids = sorted(c.id for c in charts)
    by_id = {c.id: c for c in charts}
    return tuple((u, v) for u in ids for v in ids
                 if v != u and union_feasible(by_id[u], by_id[v], 1))


@pytest.mark.parametrize("charts", [
    # repeated first bars, on both sides of the cap
    [mk(1, 3, 7), mk(2, 3, 4), mk(3, 3, 8), mk(4, 8, 2), mk(5, 8, 3)],
    # each chart's own first bar fits its cap, yet it has no arc to itself
    [mk(1, 2, 3), mk(2, 1, 1), mk(3, 4, 6)],
    # first == den - last, exactly full cells
    [mk(1, 4, 6), mk(2, 6, 4), mk(3, 5, 5), mk(4, 10, 10)],
    [],
], ids=["repeated-firsts", "self-fit", "exactly-full", "empty"])
def test_arc_digraph_successors_equal_brute_force(charts):
    g = build_arc_digraph(*as_rows(charts))
    assert g.vertices == tuple(sorted(c.id for c in charts))
    assert g.arcs == _brute_force_arcs(charts)


def test_arc_digraph_successors_equal_brute_force_on_formed_charts():
    for family in ("arbitrary", "big", "big_nonincreasing"):
        for n in (5, 50, 200):
            rows = chart_rows(gen_random(n, 7, family, 10**6).charts)
            for formed in (rows[0], form_big_scan(*rows), form_big_matchings(*rows)):
                assert (build_arc_digraph(formed, 10**6).arcs
                        == _brute_force_arcs(row_charts(formed, 10**6)))


def test_arc_digraph_rejects_mixed_denominators():
    # 50/100 + 9/10 > 1, although the numerators sum to 59 <= 100
    charts = [BarChart(id=1, bars=(9, 9), den=10),
              BarChart(id=2, bars=(50, 50), den=100)]
    # the digraph and the formations take D as data, so the makers of their
    # rows refuse them
    for make in (chart_rows, as_rows):
        with pytest.raises(ValueError, match="share one denominator"):
            make(charts)


def test_path_cover_chain():
    g = build_arc_digraph(*as_rows(inst((9, 2), (7, 6), (8, 3)).charts))
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.paths == ((1, 3, 2),)
    assert cover.arc_count == 2


def test_path_cover_breaks_cycle():
    # three charts that 1-unite every way round: a perfect matching is a
    # 3-cycle, and opening it keeps two arcs
    g = build_arc_digraph(*as_rows(inst((2, 2), (3, 3), (4, 4)).charts))
    assert len(g.arcs) == 6
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.arc_count == 2
    assert cover.cycles_broken == 1


def test_path_cover_passes_over_a_head_that_closes_a_cycle():
    # tail 1 takes head 3 first; tail 3's largest free head is then 1, whose
    # arc would close 1 -> 3 -> 1, so it takes head 2 and keeps both arcs
    g = build_arc_digraph(*as_rows(inst((6, 6), (5, 8), (1, 1), den=8).charts))
    assert g.arcs == ((1, 3), (3, 1), (3, 2))
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.paths == ((1, 3, 2),)
    assert cover.cycles_broken == 0


def test_path_cover_out_degree_limits_fan():
    g = build_arc_digraph(*as_rows(inst((9, 1), (8, 9), (8, 9)).charts))
    assert g.arcs == ((1, 2), (1, 3))
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.arc_count == 1


def test_path_cover_edgeless():
    g = build_arc_digraph(*as_rows(inst((6, 7), (7, 5)).charts))
    assert g.arcs == ()
    cover = path_cover(g)
    assert cover.paths == ((1,), (2,))
    assert cover.arc_count == 0


def test_path_cover_against_brute_force():
    # charts at small D, whose 1-union digraphs are dense and varied
    rng = random.Random(43)
    broken = 0
    for trial in range(120):
        charts = random_charts(rng, rng.randint(2, 8), rng.choice([2, 3, 4, 6, 10]))
        g = build_arc_digraph(*as_rows(charts))
        verts, arcs = g.vertices, g.arcs
        cover = path_cover(g)
        check_path_cover(g, cover)
        assert cover.arc_count <= brute_force_path_cover_arcs(verts, arcs)
        # the split-graph matching is a maximum cycle-plus-path cover, so the
        # cover keeps at least (cycle cover arcs) - (number of cycles); since
        # arc_count is exactly (matching size) - (cycles), this also pins the
        # matcher to brute-force maximality
        n = max(verts)
        split_edges = [(u, n + v, 1) for u, v in arcs]
        cycle_cover_arcs, _ = brute_force_matching(split_edges)
        assert cover.arc_count >= cycle_cover_arcs - cover.cycles_broken
        broken += cover.cycles_broken
    assert broken > 20  # the cycle branch runs


def test_path_cover_is_pinned():
    # covers of the greedy chain-graph matching: the same mates must give
    # the same paths and broken cycles
    pinned = "cb7209151fbee369cd784a6b7a539c140fb5b956dd6af22f1a85e6030fe13139"
    rng = random.Random(46)
    covers, broken = [], 0
    for _ in range(300):
        charts = random_charts(rng, rng.randint(1, 12), rng.choice([2, 3, 5, 10, 100]))
        cover = path_cover(build_arc_digraph(*as_rows(charts)))
        covers.append((cover.paths, cover.cycles_broken))
        broken += cover.cycles_broken
    assert broken > 30  # the cycle branch runs
    for family, n in (("arbitrary", 60), ("big", 80)):
        for seed in range(1, 21):
            charts = gen_random(n, seed, family).charts
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(*chart_rows(charts)), 10**6))
                covers.append((cover.paths, cover.cycles_broken))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == pinned


def test_path_cover_is_pinned_at_benchmark_scale():
    # covers of the greedy chain-graph matching on the benchmark's big-n500
    # and arbitrary-n200
    pinned = "087ec39d8da7790fa063dcaf84b680713684cbba3ee4606d3ca4b61f21c5d284"
    covers = []
    for family, n in (("big", 500), ("arbitrary", 200)):
        for seed in (1, 2, 3):
            charts = gen_random(n, seed, family, 10**6).charts
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(*chart_rows(charts)), 10**6))
                covers.append((cover.paths, cover.cycles_broken))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == pinned


def test_pipeline_all_big_chain():
    instance = inst((9, 2), (7, 6), (8, 3))
    for variant in ("A1", "A2"):
        res = SOLVERS[variant](instance)
        assert res.length == 4
        ev = evaluate_packing(instance, res.placement)
        assert ev.feasible and ev.length == 4
    assert oracle_opt(instance) == 4


def test_pipeline_a2_merges_boundary_pair():
    rows = chart_rows(inst((5, 5), (5, 5)).charts)
    res = solve_big_pipeline(form_big_matchings(*rows), 10)
    assert res.length == 2


def test_pipeline_rejects_an_overfull_arc(monkeypatch):
    # a cover arc whose shared cell holds 7/10 + 7/10 fails at strip cell 2
    monkeypatch.setattr(bigpipe, "path_cover", lambda g: PathCover(((1, 2),)))
    with pytest.raises(ValueError, match="strip cell 2 holds 14/10"):
        solve_big_pipeline(*as_rows(inst((6, 7), (7, 5)).charts))


def test_a1_and_a2_on_two_bar_input_merge_no_chart(monkeypatch):
    # A1's scan and A2's all-big round add bars; merge_union serves only the
    # blossom rounds, so A2 on input with a small chart is left out
    cases = [(gen_random(n, seed, family, den), variant)
             for n, den in ((12, 20), (80, 10**6)) for seed in (1, 2, 3)
             for family, variant in (("arbitrary", "A1"), ("big", "A1"), ("big", "A2"))]
    expected = [SOLVERS[variant](instance) for instance, variant in cases]
    form = {"A1": form_big_scan, "A2": form_big_matchings}
    assert {v for instance, v in cases
            if len(form[v](*chart_rows(instance.charts))) < instance.n} == {
        "A1", "A2"}  # both formations merge

    def refuse(*args, **kwargs):
        raise AssertionError("merge_union called")
    for module in (bigpipe, matching, unions):
        monkeypatch.setattr(module, "merge_union", refuse, raising=False)
    for (instance, variant), res in zip(cases, expected):
        assert SOLVERS[variant](instance) == res
        assert evaluate_packing(instance, res.placement).feasible


def test_pipeline_blocked_digraph_sums_widths():
    instance = inst((6, 7), (7, 5))
    for variant in ("A1", "A2"):
        assert SOLVERS[variant](instance).length == 4


def test_pipeline_accounting_identity():
    rng = random.Random(44)
    for trial in range(80):
        n = rng.randint(1, 12)
        family = rng.choice(["arbitrary", "big"])
        instance = gen_random(n, trial, family, 20)
        rows = chart_rows(instance.charts)
        formed = {"A1": form_big_scan(*rows), "A2": form_big_matchings(*rows)}
        for variant in ("A1", "A2"):
            res = SOLVERS[variant](instance)
            formation_unions = instance.n - len(formed[variant])
            cover = path_cover(build_arc_digraph(formed[variant], 20))
            expect = 2 * instance.n - 2 * formation_unions - cover.arc_count
            assert res.length == expect
            ev = evaluate_packing(instance, res.placement)
            assert ev.feasible and ev.length == res.length
            assert res.length >= lower_bounds(instance).combined

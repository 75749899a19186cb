import hashlib
import random
import time

import pytest

from bcpp import (BarChart, PathCover, build_arc_digraph,
                  evaluate_packing, form_big_matchings, form_big_scan, gen_random,
                  lower_bounds, oracle_opt, path_cover, solve_big_pipeline)
from bcpp import bigpipe, matching, unions
from bcpp.bigpipe import dump_digraph
from bcpp.harness import SOLVERS
from helpers import (as_rows, brute_force_matching, brute_force_path_cover_arcs,
                     check_path_cover, inst, is_big, mk, random_charts,
                     row_charts, union_feasible)


def test_scan_merges_smalls_into_big():
    # the merged chart keeps the slot of its least id
    instance = inst((3, 2), (6, 7), (4, 3))
    res = row_charts(form_big_scan(instance), 10)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((7, 5), [1, 3]), ((6, 7), [2])]
    assert all(is_big(c) for c in res)


def test_scan_keeps_all_big_input():
    instance = inst((9, 9), (8, 8))
    res = form_big_scan(instance)
    assert res == instance.rows
    assert all(is_big(c) for c in row_charts(res, 10))


def test_scan_keeps_growing_buffer_until_big():
    instance = inst((2, 2), (1, 1), (3, 3))
    res = row_charts(form_big_scan(instance), 10)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((6, 6), [1, 2, 3])]
    assert all(is_big(c) for c in res)


def test_scan_leftover_small():
    # the leftover keeps the slot of its least id, before the later big chart
    instance = inst((2, 2), (6, 6))
    res = row_charts(form_big_scan(instance), 10)
    assert [c.bars for c in res[1:]] == [(6, 6)]
    assert not is_big(res[0]) and res[0].bars == (2, 2)


def test_scan_emits_at_most_one_small():
    rng = random.Random(41)
    for trial in range(80):
        instance = gen_random(rng.randint(1, 12), trial, "arbitrary", 20)
        res = row_charts(form_big_scan(instance), 20)
        assert sum(not is_big(c) for c in res) <= 1
        total = sum(len(c.origins) for c in res)
        assert total == instance.n


def test_matchings_formation_keeps_a_small():
    instance = inst((4, 4), (4, 4), (4, 4))
    out = row_charts(form_big_matchings(instance), 10)
    assert sorted(c.bars for c in out) == [(4, 4), (8, 8)]


def test_matchings_formation_all_big_fixed_point():
    instance = inst((9, 9), (8, 8))
    assert form_big_matchings(instance) == instance.rows


def test_matchings_formation_boundary_pair():
    instance = inst((5, 5), (5, 5))
    out = row_charts(form_big_matchings(instance), 10)
    assert [c.bars for c in out] == [(10, 10)]


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
            instance = gen_random(n, 7, family, 10**6)
            for formed in (instance.rows, form_big_scan(instance),
                           form_big_matchings(instance)):
                assert (build_arc_digraph(formed, 10**6).arcs
                        == _brute_force_arcs(row_charts(formed, 10**6)))


def test_as_rows_refuses_mixed_denominators():
    # 50/100 + 9/10 > 1, although the numerators sum to 59 <= 100
    charts = [BarChart(id=1, bars=(9, 9), den=10),
              BarChart(id=2, bars=(50, 50), den=100)]
    # the digraph takes D as data, so the reference maker of its rows
    # refuses them, as Instance does (test_chart_validation)
    with pytest.raises(ValueError, match="share one denominator"):
        as_rows(charts)


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
    pinned = "d905cfd89162b6d13e848fe03b5353d009f17b5f0bcd168d9a34ac6e568fab6d"
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
            instance = gen_random(n, seed, family)
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(instance), 10**6))
                covers.append((cover.paths, cover.cycles_broken))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == pinned


def test_path_cover_is_pinned_at_benchmark_scale():
    # covers of the greedy chain-graph matching on the benchmark's big-n500
    # and arbitrary-n200
    pinned = "b8efa89057323a5a8d14fa8e05b390229bb8604575b3201fb745e8e1cd51fc0e"
    covers = []
    for family, n in (("big", 500), ("arbitrary", 200)):
        for seed in (1, 2, 3):
            instance = gen_random(n, seed, family, 10**6)
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(instance), 10**6))
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
    instance = inst((5, 5), (5, 5))
    res = solve_big_pipeline(form_big_matchings(instance), 10)
    assert res.length == 2


def test_pipeline_rejects_an_overfull_arc(monkeypatch):
    # a cover arc whose shared cell holds 7/10 + 7/10 fails at strip cell 2
    monkeypatch.setattr(bigpipe, "path_cover", lambda g: PathCover(((1, 2),)))
    with pytest.raises(ValueError, match="strip cell 2 holds 14/10"):
        solve_big_pipeline(*as_rows(inst((6, 7), (7, 5)).charts))


@pytest.mark.parametrize("paths", [((1, 2),), ((2,), (1, 2, 3))],
                         ids=["a path dropped", "a chart listed twice"])
def test_pipeline_rejects_a_cover_that_does_not_place_each_chart_once(
        monkeypatch, paths):
    # charts 1-2-3 chain by 1-unions, so only the count check can object
    monkeypatch.setattr(bigpipe, "path_cover", lambda g: PathCover(paths))
    with pytest.raises(ValueError, match="place every original chart once"):
        solve_big_pipeline(*as_rows(inst((6, 2), (7, 2), (8, 2)).charts))


def test_a1_and_a2_on_two_bar_input_merge_no_chart(monkeypatch):
    # A1's scan and A2's greedy rounds add bars; merge_union serves only Mw
    cases = [(gen_random(n, seed, family, den), variant)
             for n, den in ((12, 20), (80, 10**6)) for seed in (1, 2, 3)
             for family in ("arbitrary", "big") for variant in ("A1", "A2")]
    expected = [SOLVERS[variant](instance) for instance, variant in cases]
    form = {"A1": form_big_scan, "A2": form_big_matchings}
    assert {v for instance, v in cases
            if len(form[v](instance)) < instance.n} == {
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
        formed = {"A1": form_big_scan(instance), "A2": form_big_matchings(instance)}
        for variant in ("A1", "A2"):
            res = SOLVERS[variant](instance)
            formation_unions = instance.n - len(formed[variant])
            cover = path_cover(build_arc_digraph(formed[variant], 20))
            expect = 2 * instance.n - 2 * formation_unions - cover.arc_count
            assert res.length == expect
            ev = evaluate_packing(instance, res.placement)
            assert ev.feasible and ev.length == res.length
            assert res.length >= lower_bounds(instance)


def test_a2_at_twenty_thousand_charts_stays_in_its_time_budget():
    # A2 on arbitrary n = 2 * 10**4 takes 0.12-0.14 s on a 2-core machine,
    # each formation round one sort and one sweep; formed by the cardinality
    # blossom on the O(n^2) 2-union graph, it took minutes
    instance = gen_random(20_000, 1, "arbitrary", 10**6)
    assert len(instance.rows) == instance.n
    start = time.perf_counter()
    res = SOLVERS["A2"](instance)
    assert time.perf_counter() - start < 1.5
    ev = evaluate_packing(instance, res.placement)
    assert ev.feasible and ev.length == res.length
    assert res.length >= lower_bounds(instance)

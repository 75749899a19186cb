import hashlib
import random

import pytest

from bcpp import (BarChart, build_arc_digraph, evaluate_packing,
                  form_big_matchings, form_big_scan, gen_random, lower_bounds,
                  oracle_opt, path_cover, solve_big_pipeline)
from bcpp.bigpipe import _max_bipartite_matching, dump_digraph
from bcpp.unions import union_feasible
from bcpp.harness import SOLVERS
from helpers import (arc_digraph, brute_force_matching,
                     brute_force_path_cover_arcs, check_path_cover, inst, mk,
                     random_charts, reference_bipartite_matching)


def test_scan_merges_smalls_into_big():
    res = form_big_scan(inst((3, 2), (6, 7), (4, 3)).charts)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((6, 7), [2]), ((7, 5), [1, 3])]
    assert all(c.is_big for c in res)


def test_scan_keeps_all_big_input():
    charts = inst((9, 9), (8, 8)).charts
    res = form_big_scan(charts)
    assert res == charts
    assert all(c.is_big for c in res)


def test_scan_keeps_growing_buffer_until_big():
    res = form_big_scan(inst((2, 2), (1, 1), (3, 3)).charts)
    assert [(c.bars, [oid for oid, _ in c.origins]) for c in res] == [
        ((6, 6), [1, 2, 3])]
    assert all(c.is_big for c in res)


def test_scan_leftover_small():
    res = form_big_scan(inst((2, 2), (6, 6)).charts)
    assert [c.bars for c in res[:-1]] == [(6, 6)]
    assert not res[-1].is_big and res[-1].bars == (2, 2)


def test_scan_emits_at_most_one_small():
    rng = random.Random(41)
    for trial in range(80):
        instance = gen_random(rng.randint(1, 12), trial, "arbitrary", 20)
        res = form_big_scan(instance.charts)
        assert all(c.is_big for c in res[:-1])  # a small chart only comes last
        total = sum(len(c.origins) for c in res)
        assert total == instance.n


def test_matchings_formation_keeps_a_small():
    out = form_big_matchings(inst((4, 4), (4, 4), (4, 4)).charts)
    assert sorted(c.bars for c in out) == [(4, 4), (8, 8)]


def test_matchings_formation_all_big_fixed_point():
    charts = inst((9, 9), (8, 8)).charts
    assert form_big_matchings(charts) == charts


def test_matchings_formation_boundary_pair():
    out = form_big_matchings(inst((5, 5), (5, 5)).charts)
    assert [c.bars for c in out] == [(10, 10)]


def test_matchings_formation_idempotent():
    rng = random.Random(42)
    for trial in range(40):
        instance = gen_random(rng.randint(1, 10), trial, "arbitrary", 20)
        once = form_big_matchings(instance.charts)
        assert form_big_matchings(once) == once


def test_arc_digraph_examples():
    assert build_arc_digraph(inst((6, 7), (7, 5)).charts).arcs == ()
    assert build_arc_digraph(inst((9, 2), (7, 6)).charts).arcs == ((1, 2),)
    g = build_arc_digraph(inst((9, 2), (7, 6), (8, 3)).charts)
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
        g = build_arc_digraph(charts)
        assert g.vertices == tuple(ids)
        assert g.arcs == expected


def _id_successors(g):
    """``g.successors`` mapped to ids, once each positional list is checked
    to be strictly ascending and to leave out its own position."""
    assert len(g.successors) == len(g.vertices)
    for i, heads in enumerate(g.successors):
        assert all(a < b for a, b in zip(heads, heads[1:]))
        assert i not in heads
    return {u: [g.vertices[j] for j in heads]
            for u, heads in zip(g.vertices, g.successors)}


def _brute_force_successors(charts):
    ids = sorted(c.id for c in charts)
    by_id = {c.id: c for c in charts}
    return {u: [v for v in ids if v != u and union_feasible(by_id[u], by_id[v], 1)]
            for u in ids}


@pytest.mark.parametrize("charts", [
    # repeated first bars, on both sides of the cap
    [mk(1, 3, 7), mk(2, 3, 4), mk(3, 3, 8), mk(4, 8, 2), mk(5, 8, 3)],
    # each chart's own first bar fits its cap, yet it has no arc to itself
    [mk(1, 2, 3), mk(2, 1, 1), mk(3, 4, 6)],
    # first == den - last, exactly full cells
    [mk(1, 4, 6), mk(2, 6, 4), mk(3, 5, 5), mk(4, 10, 10)],
    # width-1 charts, whose first bar is their last
    [BarChart(id=2, bars=(4,), den=10), BarChart(id=7, bars=(6,), den=10),
     BarChart(id=5, bars=(7,), den=10), mk(9, 3, 3)],
    [],
], ids=["repeated-firsts", "self-fit", "exactly-full", "width-1", "empty"])
def test_arc_digraph_successors_equal_brute_force(charts):
    g = build_arc_digraph(charts)
    assert g.vertices == tuple(sorted(c.id for c in charts))
    assert _id_successors(g) == _brute_force_successors(charts)


def test_arc_digraph_successors_equal_brute_force_on_formed_charts():
    for family in ("arbitrary", "big", "big_nonincreasing"):
        for n in (5, 50, 200):
            charts = gen_random(n, 7, family, 10**6).charts
            for formed in (charts, form_big_scan(charts), form_big_matchings(charts)):
                g = build_arc_digraph(formed)
                assert _id_successors(g) == _brute_force_successors(formed)


def test_arc_digraph_rejects_mixed_denominators():
    # 50/100 + 9/10 > 1, although the numerators sum to 59 <= 100
    charts = [BarChart(id=1, bars=(9, 9), den=10),
              BarChart(id=2, bars=(50, 50), den=100)]
    with pytest.raises(ValueError, match="share one denominator"):
        build_arc_digraph(charts)


def test_path_cover_chain():
    g = build_arc_digraph(inst((9, 2), (7, 6), (8, 3)).charts)
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.paths == ((1, 3, 2),)
    assert cover.arc_count == 2


def test_path_cover_breaks_cycle():
    g = arc_digraph((1, 2, 3), ((1, 2), (2, 3), (3, 1)))
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.arc_count == 2
    assert cover.cycles_broken == 1


def test_path_cover_out_degree_limits_fan():
    g = arc_digraph((1, 2, 3), ((1, 2), (1, 3)))
    cover = path_cover(g)
    check_path_cover(g, cover)
    assert cover.arc_count == 1


def test_path_cover_edgeless():
    g = arc_digraph((1, 2), ())
    cover = path_cover(g)
    assert cover.paths == ((1,), (2,))
    assert cover.arc_count == 0


def test_path_cover_against_brute_force():
    rng = random.Random(43)
    for trial in range(120):
        n = rng.randint(2, 8)
        density = 0.35 if trial % 2 else 0.7
        verts = tuple(range(1, n + 1))
        arcs = tuple(sorted((u, v) for u in verts for v in verts
                            if u != v and rng.random() < density))
        g = arc_digraph(verts, arcs)
        cover = path_cover(g)
        check_path_cover(g, cover)
        assert cover.arc_count <= brute_force_path_cover_arcs(verts, arcs)
        # the split-graph matching is a maximum cycle-plus-path cover, so the
        # cover keeps at least (cycle cover arcs) - (number of cycles); since
        # arc_count is exactly (matching size) - (cycles), this also pins the
        # bipartite matcher to brute-force maximality
        split_edges = [(u, n + v, 1) for u, v in arcs]
        cycle_cover_arcs, _ = brute_force_matching(split_edges)
        assert cover.arc_count >= cycle_cover_arcs - cover.cycles_broken


def test_path_cover_is_pinned():
    # covers taken before the matcher and the walk were rewritten as plain
    # loops: the same mates must give the same paths and broken cycles
    pinned = "384e38d78361fbe358849eaa2d5f43507da2fd32f020b4a863f8f063c5a8635c"
    rng = random.Random(46)
    covers, broken = [], 0
    for _ in range(300):
        verts = tuple(sorted(rng.sample(range(1, 40), rng.randint(1, 12))))
        density = rng.choice([0.1, 0.3, 0.6, 0.9])
        arcs = tuple((u, v) for u in verts for v in verts
                     if u != v and rng.random() < density)
        cover = path_cover(arc_digraph(verts, arcs))
        covers.append((cover.paths, cover.cycles_broken))
        broken += cover.cycles_broken
    assert broken > 100  # the cycle branch runs
    for family, n in (("arbitrary", 60), ("big", 80)):
        for seed in range(1, 21):
            charts = gen_random(n, seed, family).charts
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(charts)))
                covers.append((cover.paths, cover.cycles_broken))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == pinned


def test_path_cover_is_pinned_at_benchmark_scale():
    # covers taken before the digraph moved to positions and the layering
    # learned to stop early, on the benchmark's big-n500 and arbitrary-n200
    pinned = "57f9b1578178f030cb679017b41ccabb4066aa82c6f1bfd04f90411893957367"
    covers = []
    for family, n in (("big", 500), ("arbitrary", 200)):
        for seed in (1, 2, 3):
            charts = gen_random(n, seed, family, 10**6).charts
            for form in (form_big_scan, form_big_matchings):
                cover = path_cover(build_arc_digraph(form(charts)))
                covers.append((cover.paths, cover.cycles_broken))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == pinned


def test_bipartite_mates_equal_the_dict_reference():
    rng = random.Random(47)
    unmatched = 0
    for trial in range(300):
        n = rng.randint(1, 60)
        ids = sorted(rng.sample(range(1, 4 * n + 1), n))
        if trial % 2:
            density = rng.choice([0.02, 0.1, 0.3, 0.7])
            adj = [[j for j in range(n) if j != i and rng.random() < density]
                   for i in range(n)]
        else:  # threshold-shaped like the 1-union digraph: first[j] <= cap[i]
            first = [rng.randint(1, 20) for _ in range(n)]
            cap = [rng.randint(0, 20) for _ in range(n)]
            adj = [[j for j in range(n) if j != i and first[j] <= cap[i]]
                   for i in range(n)]
        mates = _max_bipartite_matching(adj)
        expected = reference_bipartite_matching(
            list(ids), {ids[i]: [ids[j] for j in heads] for i, heads in enumerate(adj)})
        assert {ids[i]: ids[j] for i, j in enumerate(mates) if j >= 0} == expected
        unmatched += len(expected) < n
    assert unmatched > 100  # the phases end with free left vertices


def test_pipeline_all_big_chain():
    instance = inst((9, 2), (7, 6), (8, 3))
    for variant in ("A1", "A2"):
        res = SOLVERS[variant](instance)
        assert res.length == 4
        ev = evaluate_packing(instance, res.placement)
        assert ev.feasible and ev.length == 4
    assert oracle_opt(instance) == 4


def test_pipeline_a2_merges_boundary_pair():
    res = solve_big_pipeline(form_big_matchings(inst((5, 5), (5, 5)).charts))
    assert res.length == 2


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
        formed = {"A1": form_big_scan(instance.charts),
                  "A2": form_big_matchings(instance.charts)}
        for variant in ("A1", "A2"):
            res = SOLVERS[variant](instance)
            formation_unions = instance.n - len(formed[variant])
            cover = path_cover(build_arc_digraph(formed[variant]))
            expect = 2 * instance.n - 2 * formation_unions - cover.arc_count
            assert res.length == expect
            ev = evaluate_packing(instance, res.placement)
            assert ev.feasible and ev.length == res.length
            assert res.length >= lower_bounds(instance).combined

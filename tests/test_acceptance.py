"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen; without ``-s`` pytest shows captured output for any
failing criterion.
"""

import random
import time
from fractions import Fraction

from bcpp import (SuiteConfig, UnionEdge, evaluate_packing,
                  format_records_csv, ga_lo, gen_bpp_fullbins, gen_random,
                  lower_bounds, max_cardinality_matching, max_weight_matching,
                  oracle_opt, run_algorithm, run_suite, solve_big_pipeline,
                  solve_exact, solve_mw, transform_bpp)
from bcpp.blp import export_lp
from bcpp.harness import GenSpec
from bcpp.model import parse_instance

from helpers import brute_force_matching, union_graph

APPROX = ("GA_LO", "M1w", "Mw", "A1", "A2")

_shared: dict[str, list] = {"traces": []}
_criterion_lines: list[str] = []  # echoed in the terminal summary by conftest


def gate(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _criterion_lines.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


def test_c1_oracle_equivalence_feasibility_and_bounds():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for seed in range(200):
        n = 2 + seed % 6
        instance = gen_random(n, seed, "arbitrary", 20)
        opt = oracle_opt(instance)
        for name in APPROX + ("EXACT",):
            res = run_algorithm(instance, name)
            length = res.length
            ev = evaluate_packing(instance, res.placement)
            assert ev.feasible, (seed, name)
            assert ev.length == length, (seed, name)
            assert length >= opt, (seed, name, length, opt)
            if name == "GA_LO":
                assert length <= 2 * opt + 1, (seed, length, opt)
                worst_gap = max(worst_gap, length / opt)
        _shared["traces"].extend(e for m in solve_mw(instance).unions for e in m.edges)
    elapsed = time.perf_counter() - t0
    gate("C1 oracle-equivalence", elapsed < 60,
         f"200 instances, worst GA_LO/opt {worst_gap:.3f}, {elapsed:.1f}s")


def test_c2_three_halves_bound_on_big_charts():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for seed in range(200):
        n = 2 + seed % 6
        instance = gen_random(n, seed, "big", 20)
        opt = oracle_opt(instance)
        res = solve_mw(instance)
        _shared["traces"].extend(e for m in res.unions for e in m.edges)
        assert 2 * res.length <= 3 * opt, (seed, res.length, opt)
        worst = max(worst, Fraction(res.length, opt))
    elapsed = time.perf_counter() - t0
    gate("C2 Mw-3/2-on-big", elapsed < 60,
         f"200 instances, worst Mw/opt {float(worst):.3f}, {elapsed:.1f}s")


def test_c3_only_small_overlaps_ever_constructed():
    bad = [e for e in _shared["traces"] if e.weight not in (1, 2)]
    gate("C3 union-overlaps", len(_shared["traces"]) > 0 and not bad,
         f"{len(_shared['traces'])} unions recorded, {len(bad)} violations")


def test_c4_matching_exactness_against_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randint(2, 10)
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    w = rng.choice([1, 2])
                    edges.append(UnionEdge(u=u, v=v, weight=w, left=u, right=v))
        g = union_graph(range(1, n + 1), edges)
        best_weight, best_card = brute_force_matching(
            [(e.u, e.v, e.weight) for e in edges])
        assert max_weight_matching(g).total_weight == best_weight
        assert len(max_cardinality_matching(g).edges) == best_card
    elapsed = time.perf_counter() - t0
    gate("C4 matching-exactness", elapsed < 10,
         f"100 graphs vs brute force, {elapsed:.1f}s")


def test_c5_mean_error_ordering_at_n200():
    t0 = time.perf_counter()
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 200, 30, 1000, 10 ** 6)],
                      algorithms=APPROX)
    records, summary, errors = run_suite(cfg)
    assert not errors
    mean = {row.algorithm: row.err_av for row in summary}
    elapsed = time.perf_counter() - t0
    ok = (mean["GA_LO"] < mean["Mw"] <= mean["M1w"]
          and mean["GA_LO"] < mean["A2"] < mean["A1"]
          and elapsed < 600)
    gate("C5 error-ordering-n200", ok,
         "mean abs err " + " ".join(f"{a}={mean[a]:.1f}" for a in APPROX)
         + f", {elapsed:.1f}s")


def test_c6_big_family_ratio_band_at_n500():
    # The band was measured against an area-style bound, so R uses area_lb.
    # `combined` is not the reference: on this family it equals big_lb, which
    # is nearly tight, and no correct packing could reach the band against it.
    ratios = []
    combined_ratios = []
    slowest = 0.0
    for seed in range(30):
        instance = gen_random(500, 2000 + seed, "big", 10 ** 6)
        t0 = time.perf_counter()
        res = ga_lo(instance)
        slowest = max(slowest, time.perf_counter() - t0)
        bounds = lower_bounds(instance)
        ratios.append(res.length / bounds.area_lb)
        combined_ratios.append(res.length / bounds.combined)
    assert slowest < 1.0, f"GA_LO took {slowest:.2f}s on one instance"
    mean_r = sum(ratios) / len(ratios)
    mean_combined = sum(combined_ratios) / len(combined_ratios)
    gate("C6 big-ratio-band-n500", 1.10 <= mean_r <= 1.30,
         f"mean R vs area LB {mean_r:.4f}, vs combined LB {mean_combined:.4f}, "
         f"slowest call {slowest:.2f}s")


def test_c7_bpp_derived_instances():
    t0 = time.perf_counter()
    instances = []
    for seed in range(150):
        bins = 20 + seed % 21
        capacity = (50, 75, 100, 120, 150)[seed % 5]
        bpp, sol = gen_bpp_fullbins(bins, capacity, seed, max_parts=2)
        instances.append(transform_bpp(bpp, sol, label=f"bpp-m{seed}"))
    for seed in range(12):
        bpp, sol = gen_bpp_fullbins(3 + seed % 2, 12, 10_000 + seed, max_parts=2)
        instances.append(transform_bpp(bpp, sol, label=f"bpp-t{seed}"))
    assert len(instances) >= 100

    means = {}
    for algo in ("GA_LO", "A1", "A2"):
        vals = []
        for instance in instances:
            res = run_algorithm(instance, algo)
            assert evaluate_packing(instance, res.placement).feasible
            vals.append(res.length / instance.known_opt)
        means[algo] = sum(vals) / len(vals)

    # every instance records an opt, proved by its construction's packing
    assert all(instance.known_opt is not None for instance in instances)
    oracle_checked = 0
    for instance in instances:
        if instance.n <= 7:
            assert oracle_opt(instance) == instance.known_opt, instance.label
            oracle_checked += 1
    assert oracle_checked > 0

    elapsed = time.perf_counter() - t0
    ok = means["GA_LO"] <= 1.10 and means["A1"] >= means["A2"]
    gate("C7 bpp-derived", ok,
         f"{len(instances)} instances, GA_LO {means['GA_LO']:.3f}, "
         f"A1 {means['A1']:.3f} >= A2 {means['A2']:.3f}, "
         f"{oracle_checked} oracle-checked tiny, {elapsed:.1f}s")


def test_c8_exact_solver_consistency():
    t0 = time.perf_counter()
    for seed in range(100):
        n = 2 + seed % 6
        instance = gen_random(n, 30_000 + seed, "arbitrary", 20)
        opt = oracle_opt(instance)
        res = solve_exact(instance)
        assert res.status == "optimal" and res.length == opt, (seed, res)
        limited = solve_exact(instance, node_limit=1)
        if limited.status == "bounded":
            assert limited.lower_bound <= opt <= limited.length
        else:
            assert limited.length == opt
    elapsed = time.perf_counter() - t0
    gate("C8 exact-consistency", elapsed < 120,
         f"100 instances optimal + 1-node bounded, {elapsed:.1f}s")


def test_c9_determinism(tmp_path):
    config = tmp_path / "suite.bench"
    config.write_text(
        "generate = family=arbitrary n=30 count=10 seed=77 D=1000000\n"
        "generate = family=big n=20 count=5 seed=11 D=1000000\n"
        "algorithms = GA_LO, M1w, Mw, A1, A2, EXACT\n"
        "exact_nodes = 2000\n"
        "output = results.csv\n")
    from bcpp.cli import main
    # --strict: a rerun that repeats the same failed solves is not a result
    assert main(["bench", str(config), "--strict"]) == 0
    first = (tmp_path / "results.csv").read_bytes()
    assert main(["bench", str(config), "--strict"]) == 0
    second = (tmp_path / "results.csv").read_bytes()

    import os
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    golden_ok = True
    for stem, horizon in (("tiny1", 2), ("tiny2", 3), ("tiny3", 3)):
        with open(os.path.join(fixtures, f"{stem}.inst")) as fh:
            instance = parse_instance(fh.read(), label=stem)
        with open(os.path.join(fixtures, f"{stem}.lp")) as fh:
            golden = fh.read()
        golden_ok &= export_lp(instance, horizon=horizon) == golden

    gate("C9 determinism", first == second and golden_ok,
         f"bench rerun identical={first == second}, goldens={golden_ok}")

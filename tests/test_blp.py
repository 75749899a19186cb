import hashlib
import math
import os
import random
import re
import time

import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from bcpp import (evaluate_packing, export_lp, format_instance,
                  format_placement, ga_lo, gen_random, lower_bounds, oracle_opt,
                  parse_instance, solve_exact)
from bcpp.cli import main
from helpers import inst, literal_opt

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def lp_binaries(text):
    """The variable names of the ``Binary`` section, one per line."""
    return text.split("Binary\n", 1)[1].split("\nEnd")[0].split()


def kind_counts(text):
    """How many ``x_`` and ``y_`` names the ``Binary`` section lists."""
    names = lp_binaries(text)
    return (sum(v.startswith("x_") for v in names),
            sum(v.startswith("y_") for v in names))


def test_model_counts_single_chart():
    text = export_lp(inst((6, 3)), horizon=2)
    assert kind_counts(text) == (1, 2)
    assert lp_binaries(text) == ["x_1_1", "y_1", "y_2"]


def test_model_counts_two_charts():
    text = export_lp(inst((6, 3), (4, 5)), horizon=4)
    assert kind_counts(text) == (6, 4)


def test_default_horizon_admits_greedy_length():
    for seed in range(20):
        instance = gen_random(seed % 5 + 1, seed, "arbitrary", 20)
        horizon = ga_lo(instance).length
        assert export_lp(instance) == export_lp(instance, horizon=horizon)
        assert horizon >= lower_bounds(instance).combined


def test_model_rejects_bad_horizons():
    with pytest.raises(ValueError, match="lower bound"):
        export_lp(inst((6, 3)), horizon=1)
    with pytest.raises(ValueError, match="lower bound"):
        export_lp(inst((9, 9), (8, 8)), horizon=3)


@pytest.mark.parametrize("stem,horizon", [("tiny1", 2), ("tiny2", 3),
                                          ("tiny3", 3)])
def test_export_matches_golden(stem, horizon):
    instance = parse_instance(load_fixture(f"{stem}.inst"), label=stem)
    text = export_lp(instance, horizon=horizon)
    assert text == load_fixture(f"{stem}.lp")


def test_export_is_deterministic():
    instance = gen_random(6, 3, "arbitrary", 20)
    assert export_lp(instance, horizon=8) == export_lp(instance, horizon=8)


def test_export_variable_count():
    text = export_lp(inst((6, 3), (4, 5)), horizon=4)
    binaries = lp_binaries(text)
    assert len(binaries) == sum(kind_counts(text)) == 2 * 3 + 4


def test_fixture_objectives_match_oracle():
    # the optimum documented next to each golden comes from the oracle
    expected = {"tiny1": 2, "tiny2": 2, "tiny3": 3}
    for stem, opt in expected.items():
        instance = parse_instance(load_fixture(f"{stem}.inst"), label=stem)
        assert oracle_opt(instance) == opt


def lp_rows(text):
    """The rows of exported LP text as (name, {variable: coefficient}, sense, rhs)."""
    body = text.split("Subject To\n", 1)[1].split("Binary\n", 1)[0]
    rows = []
    for line in body.splitlines():
        name, expr = line.strip().split(": ")
        *lhs, sense, rhs = expr.split()
        coeffs, sign, coeff = {}, 1, 1
        for tok in lhs:
            if tok in ("+", "-"):
                sign = -1 if tok == "-" else 1
            elif tok.isdigit():
                coeff = int(tok)
            else:
                coeffs[tok] = sign * coeff
                sign, coeff = 1, 1
        rows.append((name, coeffs, sense, int(rhs)))
    return rows


def lp_accepts(text, instance, placement):
    """Whether x from ``placement`` and y_j = 1 on its occupied cells satisfy
    every row of ``text``, in exact integer arithmetic."""
    occupied = evaluate_packing(instance, placement).occupancy
    binaries = lp_binaries(text)
    values = {var: 0 for var in binaries}
    values.update({f"x_{cid}_{cell}": 1 for cid, cell in placement.items()})
    values.update({f"y_{cell}": 1 for cell in occupied})
    assert set(values) == set(binaries)  # every cell lies inside the horizon
    for name, coeffs, sense, rhs in lp_rows(text):
        assert name.startswith(("assign_", "cap_")) and sense in ("=", "<=")
        lhs = sum(c * values[var] for var, c in coeffs.items())
        if not (lhs == rhs if sense == "=" else lhs <= rhs):
            return False
    return True


def test_lp_rows_hold_exactly_when_the_placement_is_feasible():
    rng = random.Random(53)
    seen = {True: 0, False: 0}
    for trial in range(80):
        den = (3, 10, 20, 10 ** 6)[trial % 4]
        instance = gen_random(rng.randint(1, 5), trial, "arbitrary", den)
        horizon = ga_lo(instance).length + 1
        text = export_lp(instance, horizon=horizon)
        for _ in range(40):
            placement = {ch.id: rng.randint(1, horizon - 1)
                         for ch in instance.charts}
            feasible = evaluate_packing(instance, placement).feasible
            assert lp_accepts(text, instance, placement) == feasible
            seen[feasible] += 1
    assert min(seen.values()) > 100
    # one unit over D in cell 1 is rejected; exactly D is accepted
    for second, feasible in ((400001, False), (400000, True)):
        instance = inst((600000, 1), (second, 1), den=10 ** 6)
        text = export_lp(instance, horizon=3)
        assert evaluate_packing(instance, {1: 1, 2: 1}).feasible == feasible
        assert lp_accepts(text, instance, {1: 1, 2: 1}) == feasible


def highs_opt(text):
    """The optimum of exported LP text, every ``y_j`` at cost 1, found by HiGHS
    through ``scipy.optimize.milp``."""
    names = lp_binaries(text)
    column = {name: k for k, name in enumerate(names)}
    matrix, low, high = [], [], []
    for _name, coeffs, sense, rhs in lp_rows(text):
        row = [0] * len(names)
        for var, coeff in coeffs.items():
            row[column[var]] = coeff
        matrix.append(row)
        low.append(rhs if sense == "=" else -math.inf)
        high.append(rhs)
    cost = [int(name.startswith("y_")) for name in names]
    res = milp(cost, constraints=LinearConstraint(matrix, low, high),
               integrality=[1] * len(names), bounds=Bounds(0, 1))
    assert res.success, res.message
    return round(res.fun)


def test_highs_solves_the_exported_model_to_the_oracle_optimum():
    # the paper solved this 0/1 model with CPLEX; any MILP solver must agree;
    # seeds 0-39 give every pair of n <= 5 and D twice per family
    for family in ("arbitrary", "big"):
        for seed in range(40):
            instance = gen_random(seed % 5 + 1, seed, family,
                                  (3, 10, 100, 10 ** 6)[seed % 4])
            assert highs_opt(export_lp(instance)) == oracle_opt(instance), \
                (family, seed)


def test_exact_blocked_pair():
    res = solve_exact(inst((10, 10), (10, 10)))
    assert (res.status, res.length) == ("optimal", 4)


def test_exact_perfect_stack():
    res = solve_exact(inst((5, 5), (5, 5)))
    assert (res.status, res.length) == ("optimal", 2)


def test_exact_big_pair():
    res = solve_exact(inst((6, 6), (6, 6)))
    assert (res.status, res.length) == ("optimal", 4)
    assert res.length == oracle_opt(inst((6, 6), (6, 6)))


def test_exact_beats_greedy_when_possible():
    instance = inst((5, 9), (7, 2), (7, 4))
    assert ga_lo(instance).length == 5
    res = solve_exact(instance)
    assert res.status == "optimal"
    assert res.length == 4  # frozen from the exhaustive oracle


def test_exact_equals_oracle_on_random_instances():
    rng = random.Random(51)
    for trial in range(80):
        n = rng.randint(1, 7)
        family = rng.choice(["arbitrary", "big"])
        instance = gen_random(n, trial, family, 20)
        res = solve_exact(instance)
        assert res.status == "optimal"
        assert res.length == res.lower_bound == oracle_opt(instance)


def test_exact_respects_node_limit():
    instance = inst((5, 9), (7, 2), (7, 4))
    res = solve_exact(instance, node_limit=1)
    assert res.status == "bounded"
    assert res.lower_bound <= 4 <= res.length
    assert res.lower_bound >= lower_bounds(instance).combined


def test_exact_rejects_a_negative_nan_or_infinite_limit():
    # 0 is the only "no limit", and every other limit must be one to reach
    instance = inst((5, 9), (7, 2), (7, 4))
    for name, limit in (("node_limit", -1), ("time_limit", -1.0),
                        ("time_limit", float("nan")), ("time_limit", float("inf")),
                        ("node_limit", float("inf"))):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0"):
            solve_exact(instance, **{name: limit})


def test_exact_search_matches_pinned_nodes_and_placements():
    # status, lengths, node counts and placements of the recursive search,
    # pinned before it moved onto an explicit stack
    pinned = "7d1e51d6de1915bc8f04d804873bebfe8304cd710935f0704b854de5b7908b48"
    text = []
    for trial in range(40):
        family = ("arbitrary", "big")[trial % 2]
        instance = gen_random(6 + trial % 7, 700 + trial, family,
                              20 + 30 * (trial % 3))
        r = solve_exact(instance, node_limit=3000)
        text.append(f"{r.status} {r.length} {r.lower_bound} "
                    f"{r.node_count}\n{format_placement(r.placement)}")
    assert hashlib.sha256("".join(text).encode()).hexdigest() == pinned


def test_exact_node_limit_holds_at_large_n():
    # one chart per search level: the recursive search raised RecursionError
    instance = gen_random(1200, 2, "arbitrary", 10**6)
    res = solve_exact(instance, node_limit=5000, time_limit=20)
    assert res.status == "bounded"
    assert res.node_count == 5000
    ev = evaluate_packing(instance, res.placement)
    assert ev.feasible and res.lower_bound <= ev.length == res.length


def test_exact_time_limit_holds_at_large_n():
    # a time limit alone stops the search cleanly, with a feasible incumbent
    instance = gen_random(1200, 2, "arbitrary", 10**6)
    t0 = time.perf_counter()
    res = solve_exact(instance, time_limit=0.05)
    assert time.perf_counter() - t0 < 10
    assert res.status == "bounded" and res.node_count > 0
    ev = evaluate_packing(instance, res.placement)
    assert ev.feasible and res.lower_bound <= ev.length == res.length


def test_cli_prints_the_exact_report_line(tmp_path, capsys):
    # "status best lb nodes elapsed_ms", the first four read off the result
    lines = {}
    for name, instance, node_limit in (("two", inst((5, 5), (5, 5)), 0),
                                       ("three", inst((5, 9), (7, 2), (7, 4)), 1)):
        path = tmp_path / f"{name}.inst"
        path.write_text(format_instance(instance))
        assert main(["solve", str(path), "-a", "EXACT",
                     "--node-limit", str(node_limit)]) == 0
        lines[name] = parts = capsys.readouterr().out.split()
        res = solve_exact(instance, node_limit=node_limit)
        assert parts[:4] == [res.status, str(res.length), str(res.lower_bound),
                             str(res.node_count)]
        assert len(parts) == 5 and re.fullmatch(r"\d+\.\d", parts[4])
    assert lines["two"][0] == "optimal"
    assert lines["two"][1] == lines["two"][2] == "2"
    assert lines["three"][0] == "bounded"


def test_oracle_examples():
    assert oracle_opt(inst((9, 1), (8, 3))) == 3
    assert oracle_opt(inst((3, 7))) == 2
    assert oracle_opt(inst((5, 5), (5, 5), (5, 5))) == 4


def test_oracle_refuses_large_instances():
    instance = gen_random(11, 0, "arbitrary", 20)
    with pytest.raises(ValueError, match="refuses"):
        oracle_opt(instance)


def test_oracle_matches_literal_enumeration():
    rng = random.Random(52)
    for trial in range(40):
        n = rng.randint(1, 4)
        den = rng.choice([7, 10, 13, 20])
        instance = gen_random(n, trial, "arbitrary", den)
        assert oracle_opt(instance) == literal_opt(instance)

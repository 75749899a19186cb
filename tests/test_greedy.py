import hashlib
import random

from bcpp import (evaluate_packing, ga_lo, gen_random, lex_order, lower_bounds,
                  oracle_opt)
from bcpp.generators import FAMILIES
from helpers import inst, naive_ga_lo


def test_lex_order_examples():
    assert lex_order(inst((5, 9), (7, 2), (7, 4))) == (3, 2, 1)
    assert lex_order(inst((4, 4), (4, 4))) == (1, 2)
    assert lex_order(inst((10, 1))) == (1,)


def test_interleaving_trace():
    # (7,4) starts; (5,9) slides into cell 2 next to the 4; (7,2) lands at 4
    res = ga_lo(inst((5, 9), (7, 2), (7, 4)))
    assert res.placement == {3: 1, 1: 2, 2: 4}
    assert res.length == 5
    # the exhaustive oracle finds 4 here via a 1-union chain, so the greedy
    # result stays within the 2*opt+1 guarantee without being optimal
    assert oracle_opt(inst((5, 9), (7, 2), (7, 4))) == 4


def test_exact_full_stack():
    res = ga_lo(inst((5, 5), (5, 5)))
    assert res.length == 2
    assert res.placement == {1: 1, 2: 1}


def test_single_chart():
    res = ga_lo(inst((3, 7)))
    assert res.placement == {1: 1}
    assert res.length == 2


def test_matches_round_based_reference():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randint(1, 12)
        den = rng.choice([7, 10, 20, 100])
        family = rng.choice(["arbitrary", "big", "big_nonincreasing"])
        instance = gen_random(n, trial, family, den)
        assert ga_lo(instance).placement == naive_ga_lo(instance)


def test_feasible_and_above_lower_bound():
    for seed in range(50):
        instance = gen_random(seed % 9 + 1, seed, "arbitrary", 20)
        res = ga_lo(instance)
        assert evaluate_packing(instance, res.placement).feasible
        assert res.length >= lower_bounds(instance).combined


def test_two_opt_plus_one_bound_at_desk_scale():
    for seed in range(120):
        instance = gen_random(seed % 6 + 2, seed, "arbitrary", 20)
        assert ga_lo(instance).length <= 2 * oracle_opt(instance) + 1


def test_deterministic():
    instance = gen_random(120, 5, "arbitrary", 1000)
    first = ga_lo(instance)
    second = ga_lo(instance)
    assert first.placement == second.placement
    assert first.probes == second.probes


def test_probe_count_stays_quadratic():
    for n in (50, 120, 250):
        instance = gen_random(n, 1, "arbitrary", 1000)
        res = ga_lo(instance)
        assert res.probes <= 6 * n * n


def test_ga_lo_is_pinned():
    # placements taken before GA_LO became a left-to-right cell sweep: the
    # sweep must put every chart at the same cell and reach the same length
    pinned = "109c82ad6878535634a2d33b078506b9ee837b1dc4b80cd5ac9258ba0c8b94de"
    results = []
    for family in FAMILIES:
        for n in range(1, 31):
            for den in (2, 3, 10, 100, 10 ** 6):
                res = ga_lo(gen_random(n, n + den, family, den))
                results.append((sorted(res.placement.items()), res.length))
    for family, n in (("big", 500), ("arbitrary", 200)):
        for seed in (1, 2, 3):
            res = ga_lo(gen_random(n, seed, family))
            results.append((sorted(res.placement.items()), res.length))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == pinned

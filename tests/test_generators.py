import hashlib
import random

import pytest

from bcpp import (BppInstance, BppSolution, FormatError, bpp_witness_placement,
                  evaluate_packing, format_bpp_instance, format_bpp_solution,
                  gen_bpp_fullbins, gen_random, lower_bounds, oracle_opt,
                  parse_bpp, parse_bpp_instance, transform_bpp)


def test_family_constraints_hold():
    for seed in range(10):
        big = gen_random(200, seed, "big", 1000)
        assert all(2 * max(c.bars) > 1000 for c in big.charts)
        noninc = gen_random(200, seed, "big_nonincreasing", 1000)
        assert all(c.bars[0] >= c.bars[1] and 2 * c.bars[0] > 1000
                   for c in noninc.charts)
        arb = gen_random(200, seed, "arbitrary", 1000)
        assert all(1 <= h <= 1000 for c in arb.charts for h in c.bars)


def test_generation_is_reproducible():
    for family in ("arbitrary", "big", "big_nonincreasing"):
        a = gen_random(37, 5, family, 100)
        b = gen_random(37, 5, family, 100)
        assert a == b
        c = gen_random(37, 6, family, 100)
        assert a != c


def test_generation_validates_arguments():
    with pytest.raises(ValueError):
        gen_random(0, 1, "arbitrary")
    with pytest.raises(ValueError):
        gen_random(5, 1, "arbitrary", den=1)
    with pytest.raises(ValueError):
        gen_random(5, 1, "unknown-family")
    with pytest.raises(ValueError, match="capacity must be positive"):
        BppInstance(sizes=(1,), capacity=0)
    with pytest.raises(ValueError, match=r"item 1: size 6 outside \(0, capacity\]"):
        BppInstance(sizes=(5, 6), capacity=5)
    with pytest.raises(ValueError, match="need num_bins >= 1"):
        gen_bpp_fullbins(0, 10, 1)


def test_parse_bpp_round_trip():
    bpp, sol = parse_bpp("3\n10\n6\n5\n4\n", "2\n0\n1 2\n")
    assert bpp.sizes == (6, 5, 4)
    assert bpp.capacity == 10
    assert sol.bins == ((0,), (1, 2))
    assert format_bpp_instance(bpp) == "3\n10\n6\n5\n4\n"
    assert format_bpp_solution(sol) == "2\n0\n1 2\n"


def test_parse_bpp_detects_missing_item():
    with pytest.raises(FormatError, match="misses items"):
        parse_bpp("3\n10\n6\n5\n4\n", "2\n0\n1\n")


def test_parse_bpp_detects_capacity_violation():
    with pytest.raises(FormatError, match="exceeds"):
        parse_bpp("3\n10\n6\n5\n6\n", "2\n0\n1 2\n")


def test_parse_bpp_detects_duplicates_and_bad_indices():
    with pytest.raises(FormatError, match="already in"):
        parse_bpp("3\n10\n2\n5\n4\n", "2\n0 0\n1 2\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_bpp("3\n10\n6\n5\n4\n", "2\n0\n1 7\n")


def test_bpp_errors_name_their_own_line():
    cases = [
        (lambda: parse_bpp_instance("4\n10\n3\n4\n5\n11\n"), "line 6:"),
        (lambda: parse_bpp_instance("3\n0\n1\n1\n1\n"), "line 2:"),
        (lambda: parse_bpp("3\n10\n6\n5\n4\n", "3\n0\n\n1\n\n7\n"), "line 6:"),
        (lambda: parse_bpp("3\n10\n6\n5\n4\n", "2\n\n\n0\n1 2 2\n"), "line 5:"),
        (lambda: parse_bpp_instance("4\n"), "line 1:"),  # no capacity line
        # spaces around a number are ignored, but not between two
        (lambda: parse_bpp_instance("2 \n 10 5\n1\n1\n"), "line 2:"),
        (lambda: parse_bpp("3\n10\n6\n5\n4\n", ""), "line 1:"),  # no solution
    ]
    for parse, line in cases:
        with pytest.raises(FormatError) as info:
            parse()
        assert str(info.value).startswith(line)


def test_transform_chained_bins():
    bpp = BppInstance(sizes=(6, 5, 4, 3, 3, 2), capacity=10)
    sol = BppSolution(bins=((0,), (1, 2), (3, 4, 5)))
    instance = transform_bpp(bpp, sol)
    assert [c.bars for c in instance.charts] == [(6, 5), (4, 3)]
    assert instance.den == 10
    witness = bpp_witness_placement(bpp, sol)
    ev = evaluate_packing(instance, witness)
    assert ev.feasible
    assert ev.length == len(sol.bins)
    # the witness takes 3 cells against a bound of 2, and 2 is the optimum,
    # so nothing is proved and no opt is recorded
    assert (lower_bounds(instance).combined, oracle_opt(instance)) == (2, 2)
    assert instance.known_opt is None


def test_transform_two_singleton_bins():
    instance = transform_bpp(BppInstance(sizes=(5, 5), capacity=10),
                             BppSolution(bins=((0,), (1,))))
    assert [c.bars for c in instance.charts] == [(5, 5)]
    # a single chart always occupies two cells, so the construction length
    # meets the width bound and is the recorded optimum
    assert instance.known_opt == oracle_opt(instance) == 2


def test_transform_rejects_an_overfull_bin():
    # bin (1, 2) holds 5 + 6 > 10, and the chained packing puts both in cell 2
    with pytest.raises(ValueError, match="overfills a cell"):
        transform_bpp(BppInstance(sizes=(6, 5, 6, 3, 3, 2), capacity=10),
                      BppSolution(bins=((0,), (1, 2), (3, 4, 5))))


def test_transform_needs_two_bins():
    with pytest.raises(ValueError, match="two bins"):
        transform_bpp(BppInstance(sizes=(5,), capacity=10),
                      BppSolution(bins=((0,),)))


def test_transform_heights_bounded_by_capacity():
    rng = random.Random(62)
    for seed in range(30):
        bpp, sol = gen_bpp_fullbins(rng.randint(2, 8), rng.choice([20, 50, 75]),
                                    seed)
        instance = transform_bpp(bpp, sol)
        assert instance.known_opt is not None
        assert all(h <= bpp.capacity for c in instance.charts for h in c.bars)
        witness = bpp_witness_placement(bpp, sol)
        assert evaluate_packing(instance, witness).feasible


def test_transform_chart_count_identity():
    rng = random.Random(63)
    for seed in range(30):
        bpp, sol = gen_bpp_fullbins(rng.randint(2, 8), 50, 100 + seed)
        counts = sorted(len(b) for b in sol.bins)
        residual = 0
        expected = 0
        for c in counts[:-1]:
            residual = c - residual
            expected += residual
        instance = transform_bpp(bpp, sol)
        assert instance.n == expected


def test_fullbin_generator_area_bound():
    for seed in range(20):
        bpp, sol = gen_bpp_fullbins(7, 100, seed)
        assert sum(bpp.sizes) == 7 * 100
        assert gen_bpp_fullbins(7, 100, seed) == (bpp, sol)
        # the planted bins are an optimal solution: each item once, each bin
        # full, as many bins as the area bound
        assert sorted(i for b in sol.bins for i in b) == list(range(len(bpp.sizes)))
        assert all(sum(bpp.sizes[i] for i in b) == 100 for b in sol.bins)
        assert len(sol.bins) == 7 == -(-sum(bpp.sizes) // bpp.capacity)
        assert parse_bpp(format_bpp_instance(bpp),
                         format_bpp_solution(sol)) == (bpp, sol)
    # the sizes drawn before the generator returned its bins, pinned
    text = "".join(f"{b} {c} {s} {p}: {gen_bpp_fullbins(b, c, s, p)[0].sizes}\n"
                   for b in range(1, 7) for c in (2, 3, 12, 100, 10 ** 6)
                   for s in range(10) for p in (2, 3, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2f505f33b458e7ad490dd7c9fb4457e346d32eb55a89a188b0d0e6d7e661a512")


def test_transformed_witness_respects_lower_bound():
    for seed in range(20):
        bpp, sol = gen_bpp_fullbins(5, 50, 200 + seed, max_parts=2)
        instance = transform_bpp(bpp, sol)
        n_bins = len(sol.bins)
        assert lower_bounds(instance).combined <= n_bins


def test_bpp_optimum_is_the_bin_count_unless_items_are_dropped():
    # A cell holds at most height 1, so a packing of length L packs the used
    # items into L bins: with nothing dropped L >= N, the optimal bin count;
    # the dropped items fit one bin, so otherwise L >= N - 1.  The chained
    # witness has length at most N, and transform_bpp records it only where
    # it meets the combined bound: here it does on every instance.
    full = dropped = 0
    for s in range(200):
        bpp, sol = gen_bpp_fullbins(2 + s % 3, 12 + s % 7, s, max_parts=2 + s % 3)
        instance = transform_bpp(bpp, sol)
        assert instance.n <= 8  # keeps the oracle calls small
        n_bins = len(sol.bins)
        opt = oracle_opt(instance)
        assert instance.known_opt == opt
        if 2 * instance.n == len(bpp.sizes):
            assert opt == n_bins
            full += 1
        else:
            assert opt in (n_bins - 1, n_bins)
            dropped += 1
    assert (full, dropped) == (80, 120)

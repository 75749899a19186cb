import random

import pytest

from bcpp import BarChart, merge_union, union_feasible
from helpers import mk, pair_weight


def test_two_union_of_smalls():
    assert union_feasible(mk(1, 3, 4), mk(2, 5, 5), 2)


def test_one_union_across_middle():
    assert union_feasible(mk(1, 6, 3), mk(2, 6, 8), 1)


def test_wide_chart_two_union_infeasible():
    left = BarChart(id=1, bars=(6, 9, 8), den=10)
    assert not union_feasible(left, mk(2, 2, 1), 2)


def test_union_t_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        union_feasible(mk(1, 3, 3), mk(2, 3, 3), 3)
    with pytest.raises(ValueError, match="out of range"):
        merge_union(mk(1, 3, 3), mk(2, 3, 3), 0)
    with pytest.raises(ValueError, match="share one denominator"):
        union_feasible(mk(1, 3, 3), mk(2, 3, 3, den=20), 1)


def test_wide_overlaps_validated_even_though_unused_by_algorithms():
    left = BarChart(id=1, bars=(6, 9, 8), den=10)
    right = BarChart(id=2, bars=(1, 1, 2), den=10)
    assert union_feasible(left, right, 3)
    merged = merge_union(left, right, 3)
    assert merged.bars == (7, 10, 10)
    assert merged.width == 3


def test_merge_two_union():
    merged = merge_union(mk(1, 3, 4), mk(2, 5, 5), 2)
    assert merged.bars == (8, 9)
    assert merged.width == 2
    assert [oid for oid, _ in merged.origins] == [1, 2]


def test_merge_one_union():
    merged = merge_union(mk(1, 6, 3), mk(2, 6, 8), 1)
    assert merged.bars == (6, 9, 8)
    assert merged.width == 3
    assert merged.origins == ((1, 0), (2, 1))


def test_merge_boundary_sum_exactly_one():
    merged = merge_union(mk(1, 5, 5), mk(2, 5, 5), 2)
    assert merged.bars == (10, 10)


def test_merge_infeasible_reports_cell():
    with pytest.raises(ValueError, match="^cell 1 of the union holds 17/10 > 1$"):
        merge_union(mk(1, 9, 9), mk(2, 8, 2), 1)
    # t=2: the first overlapped cell fits, the second overflows
    with pytest.raises(ValueError, match="^cell 1 of the union holds 14/10 > 1$"):
        merge_union(mk(1, 3, 9), mk(2, 5, 5), 2)


def test_pair_weight_examples():
    assert pair_weight(mk(1, 40, 45, 100), mk(2, 50, 50, 100)).weight == 2
    pw = pair_weight(mk(1, 6, 3), mk(2, 6, 8))
    assert (pw.weight, pw.left, pw.right, pw.t) == (1, 1, 2, 1)
    assert pair_weight(mk(1, 9, 9), mk(2, 8, 2)).weight == 0


def test_pair_weight_orientation_when_only_reverse_fits():
    # 1-union works only with chart 2 on the left
    pw = pair_weight(mk(1, 3, 9), mk(2, 9, 7))
    assert (pw.weight, pw.left, pw.right) == (1, 2, 1)


def test_width_and_mass_conservation():
    rng = random.Random(3)
    for _ in range(200):
        den = rng.choice([10, 20, 100])
        left = mk(1, rng.randint(1, den), rng.randint(1, den), den)
        right = mk(2, rng.randint(1, den), rng.randint(1, den), den)
        for t in (1, 2):
            if not union_feasible(left, right, t):
                continue
            merged = merge_union(left, right, t)
            assert merged.width == left.width + right.width - t
            assert sum(merged.bars) == sum(left.bars) + sum(right.bars)


def test_two_union_feasibility_is_orientation_symmetric_for_pairs():
    rng = random.Random(8)
    for _ in range(200):
        left = mk(1, rng.randint(1, 20), rng.randint(1, 20), 20)
        right = mk(2, rng.randint(1, 20), rng.randint(1, 20), 20)
        assert union_feasible(left, right, 2) == union_feasible(right, left, 2)


def test_pair_weight_prefers_two_unions():
    rng = random.Random(9)
    for _ in range(200):
        left = mk(1, rng.randint(1, 20), rng.randint(1, 20), 20)
        right = mk(2, rng.randint(1, 20), rng.randint(1, 20), 20)
        pw = pair_weight(left, right)
        if union_feasible(left, right, 2):
            assert pw.weight == 2

import random
from dataclasses import replace

import pytest

from bcpp import (BarChart, BppInstance, FormatError, Instance, assemble_placement,
                  compact, evaluate_packing, format_instance, format_placement,
                  gen_random, lower_bounds, parse_instance, solve_mw, transform_bpp)
from helpers import area_lb, as_rows, big_lb, inst, mk, reference_layout, row_charts


def test_evaluate_shared_cell():
    ev = evaluate_packing(inst((6, 3), (4, 5)), {1: 1, 2: 2})
    assert ev.feasible
    assert ev.length == 3
    assert ev.occupancy == {1: 6, 2: 7, 3: 5}


def test_evaluate_overloaded_cell():
    ev = evaluate_packing(inst((6, 6), (5, 5)), {1: 1, 2: 2})
    assert not ev.feasible
    assert ev.occupancy[2] == 11


def test_evaluate_leading_gap_not_counted():
    ev = evaluate_packing(inst((10, 10)), {1: 5})
    assert ev.feasible
    assert ev.length == 2
    assert set(ev.occupancy) == {5, 6}


def test_evaluate_rejects_unknown_and_missing_ids():
    instance = inst((6, 3), (4, 5))
    with pytest.raises(ValueError, match="unknown"):
        evaluate_packing(instance, {1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError, match="misses"):
        evaluate_packing(instance, {1: 1})
    with pytest.raises(ValueError, match="chart 2: cell 0 is not positive"):
        evaluate_packing(instance, {1: 1, 2: 0})


def test_assemble_placement_shares_one_cell_per_step_of_a_path():
    rows = inst((6, 3), (4, 5), (7, 2)).rows
    # chart 2's first bar shares chart 1's last cell (3 + 4 <= 10)
    assert assemble_placement([(1, 2), (3,)], rows, 10) == ({1: 1, 2: 2, 3: 4}, 5)
    with pytest.raises(ValueError, match="strip cell 4 holds 12/10 > 1"):
        assemble_placement([(1,), (2, 3)], rows, 10)  # 5 + 7 in chart 2's last


@pytest.mark.parametrize("paths", [[(1,), (2, 2)], [(1,), (2, 2), (3,)], [(1, 2)]],
                         ids=["a row repeated in place of another",
                              "a row repeated", "a row missed"])
def test_assemble_placement_lays_each_row_once(paths):
    with pytest.raises(ValueError, match="place every original chart once"):
        assemble_placement(paths, inst((6, 3), (4, 5), (7, 2)).rows, 10)


def test_assemble_placement_of_one_row_paths_is_left_to_right():
    # Mw's merged rows, one per path: each from the cell after the last
    for seed in range(6):
        instance = gen_random(12, seed, "arbitrary", 20)
        rows = solve_mw(instance).rows
        assert assemble_placement([r[:1] for r in rows], rows, instance.den) == (
            reference_layout(row_charts(rows, instance.den)), sum(r[5] for r in rows))


def test_lower_bounds_big_pair():
    i = inst((6, 6), (6, 6))
    assert (area_lb(i), big_lb(i), lower_bounds(i)) == (3, 4, 4)


def test_lower_bounds_single_small():
    i = inst((2, 2))
    assert (area_lb(i), big_lb(i), lower_bounds(i)) == (1, 0, 2)


def test_lower_bounds_chainable_bigs():
    i = inst((9, 1), (8, 3))
    assert (area_lb(i), big_lb(i), lower_bounds(i)) == (3, 2, 3)


def test_translation_covariance():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        instance = inst(*[(rng.randint(1, 10), rng.randint(1, 10))
                          for _ in range(n)])
        placement = {i + 1: rng.randint(1, 2 * n) for i in range(n)}
        base = evaluate_packing(instance, placement)
        shifted = evaluate_packing(instance,
                                   {k: v + 3 for k, v in placement.items()})
        assert shifted.feasible == base.feasible
        assert shifted.length == base.length


def test_length_never_exceeds_two_n():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 7)
        instance = inst(*[(rng.randint(1, 10), rng.randint(1, 10))
                          for _ in range(n)])
        placement = {i + 1: rng.randint(1, 2 * n) for i in range(n)}
        assert evaluate_packing(instance, placement).length <= 2 * n


def _random_feasible_placement(instance, rng):
    """Place charts one by one at a random feasible cell, leaving gaps."""
    den = instance.den
    occ: dict[int, int] = {}
    placement = {}
    for ch in instance.charts:
        a, b = ch.bars
        candidates = [c for c in range(1, 3 * instance.n + 2)
                      if occ.get(c, 0) + a <= den and occ.get(c + 1, 0) + b <= den]
        cell = rng.choice(candidates)
        placement[ch.id] = cell
        occ[cell] = occ.get(cell, 0) + a
        occ[cell + 1] = occ.get(cell + 1, 0) + b
    return placement


def test_compaction_preserves_feasibility_and_length():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        instance = inst(*[(rng.randint(1, 10), rng.randint(1, 10))
                          for _ in range(n)])
        placement = _random_feasible_placement(instance, rng)
        before = evaluate_packing(instance, placement)
        assert before.feasible
        packed = compact(instance, placement)
        after = evaluate_packing(instance, packed)
        assert after.feasible
        assert after.length == before.length
        assert sorted(after.occupancy) == list(range(1, after.length + 1))


def test_instance_text_round_trip():
    instance = inst((6, 3), (4, 5), known_opt=2)
    text = format_instance(instance)
    assert text == "2 10\n6 3\n4 5\nopt 2\n"
    back = parse_instance(text)
    assert [c.bars for c in back.charts] == [(6, 3), (4, 5)]
    assert back.den == 10
    assert back.known_opt == 2
    # rows are no field: made on the first read, they change no comparison,
    # hash or repr, and a replaced or transformed instance makes its own
    assert back.rows == as_rows(back.charts)[0]
    assert (back, hash(back), repr(back)) == (instance, hash(instance), repr(instance))
    assert instance.rows == back.rows and back == instance
    other = replace(back, known_opt=3)
    assert other != back and other.rows == as_rows(other.charts)[0]
    bpp = transform_bpp(BppInstance(sizes=(6, 4, 5, 5, 3, 7), capacity=10),
                        ((0, 1), (2, 3), (4, 5)))
    assert bpp.n == 2 and bpp.rows == as_rows(bpp.charts)[0]


def test_parse_instance_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_instance("nonsense\n")
    with pytest.raises(FormatError, match="^line 1: empty instance file"):
        parse_instance("")
    with pytest.raises(FormatError, match="line 3"):
        parse_instance("2 10\n3 4\noops\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_instance("1 10\n11 3\n")  # height above the denominator
    with pytest.raises(FormatError,
                       match=r"^line 3: chart 2: bar height 0/10 outside \(0, 1\]$"):
        parse_instance("2 10\n3 4\n5 0\n")
    with pytest.raises(FormatError, match="line 4"):
        parse_instance("2 10\n3 4\n5 5\ntrailing junk\n")
    for opt in ("0", "-3"):
        with pytest.raises(FormatError, match="^line 4: opt must be at least 1"):
            parse_instance(f"2 10\n3 4\n5 5\nopt {opt}\n")
    with pytest.raises(FormatError, match="^line 5: a second opt line$"):
        parse_instance("2 10\n1 2\n3 4\nopt 2\nopt 3\n")


def test_placement_text_round_trip():
    placement = {2: 4, 1: 1, 3: 2}
    text = format_placement(placement)
    assert text == "1 1\n2 4\n3 2\n"


def test_chart_validation():
    with pytest.raises(ValueError):
        mk(1, 0, 5)
    with pytest.raises(ValueError):
        mk(1, 11, 5)
    with pytest.raises(ValueError):
        inst((3, 3), den=1)
    with pytest.raises(ValueError, match="denominator must be positive"):
        BarChart(id=1, bars=(1,), den=0)
    with pytest.raises(ValueError, match="needs at least one bar"):
        BarChart(id=1, bars=(), den=10)
    bad_instances = {
        ((), ()): "instance needs at least one chart$",
        ((3, 3), (3,)): "2 first bars but 1 second bars$",
        ((3,), (3, 3)): "1 first bars but 2 second bars$",
        ((3, 0), (3, 3)): r"chart 2: bar height 0/10 outside \(0, 1\]$",
        ((3, 3), (3, 11)): r"chart 2: bar height 11/10 outside \(0, 1\]$",
        ((3, 11), (3, 12)): r"chart 2: bar height 11/10 outside \(0, 1\]$",
    }
    for (a, b), message in bad_instances.items():
        with pytest.raises(ValueError, match=f"^{message}"):
            Instance(a=a, b=b, den=10)
    # every reader and generator needs D >= 2, so an Instance does too
    with pytest.raises(ValueError, match="^denominator 1 must be at least 2$"):
        Instance(a=(1,), b=(1,), den=1)

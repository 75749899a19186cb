"""One-line mutations of valid files: every text reader names the faulty line.

Each case builds a valid instance, bin-packing instance or bin-packing
solution text, with blank lines wherever its format allows them and, in the
bin-packing texts, spaces or a tab around some lines, corrupts exactly one
line k and expects a ``FormatError`` whose message starts with
``line k:``.  Any other exception fails the test.
"""

import random

import pytest

from bcpp import (FormatError, format_bpp_instance, gen_bpp_fullbins,
                  parse_bpp, parse_bpp_instance, parse_instance)
from bcpp.model import read_float, read_int

# an underscore or a non-ASCII digit, which int() alone reads, is no integer
BAD_TOKENS = ("x", "1.5", "0x1", "--2", "1e3", "7/10", "opt", "1_0", "１０", "١٠")


def text_of(lines):
    return "".join(line + "\n" for line in lines)


def spread(rng, head, body):
    """``head``, then ``body`` with blank lines around and between its lines."""
    lines = list(head)
    for line in body + [None]:
        while rng.random() < 0.3:
            lines.append(rng.choice(("", "  ")))
        if line is not None:
            lines.append(line)
    return lines


def padded(rng, line):
    """``line``, or in some draws ``line`` with spaces or a tab around it."""
    if rng.random() < 0.3:
        return rng.choice(("", " ", "\t")) + line + rng.choice(("", "  ", "\t"))
    return line


def filled(lines, first=1):
    """1-based numbers of the non-blank lines from line ``first`` on."""
    return [no for no, line in enumerate(lines, start=1)
            if no >= first and line.strip()]


def bad_token(rng, lines):
    """Make one token of a random line, or a blank line, a non-integer."""
    k = rng.randint(1, len(lines))
    tokens = lines[k - 1].split() or [""]
    i = rng.randrange(len(tokens))
    tokens[i] = rng.choice([bad for bad in BAD_TOKENS if bad != tokens[i]])
    lines[k - 1] = " ".join(tokens)
    return k


def instance_case(rng):
    n, den = rng.randint(1, 6), rng.randint(2, 20)
    charts = [[rng.randint(1, den), rng.randint(1, den)] for _ in range(n)]
    opt = [f"opt {rng.randint(1, 2 * n)}"] if rng.random() < 0.5 else []
    # the chart block holds no blank lines; the trailing section may
    lines = spread(rng, [f"{n} {den}"] + [f"{a} {b}" for a, b in charts], opt)
    valid = list(lines)
    fault = rng.choice(("token", "size", "count"))
    if fault == "token":
        k = bad_token(rng, lines)
    elif fault == "size":
        k = rng.randint(1, n + 1)
        if k == 1:
            lines[0] = f"{n} {rng.randint(-1, 1)}"
        else:
            bars = charts[k - 2]
            bars[rng.randrange(2)] = rng.choice((0, -1, den + 1))
            lines[k - 1] = f"{bars[0]} {bars[1]}"
    else:
        header = n + rng.choice((-1, 1)) if n > 1 else n + 1
        lines[0] = f"{header} {den}"
        # the reader notices at the first line past the shorter chart block
        k = min(len(lines), min(n, header) + 2)
    return parse_instance, valid, lines, k


def bpp_instance_case(rng):
    capacity = rng.randint(1, 20)
    sizes = [rng.randint(1, capacity) for _ in range(rng.randint(0, 6))]
    lines = spread(rng, [padded(rng, str(len(sizes))), padded(rng, str(capacity))],
                   [padded(rng, str(s)) for s in sizes])
    valid = list(lines)
    fault = rng.choice(("token", "size", "count"))
    if fault == "token":
        k = bad_token(rng, lines)
    elif fault == "size":
        k = rng.choice(filled(lines, first=3) + [2])
        bad = (0, -1) if k == 2 else (0, -3, capacity + 1)
        lines[k - 1] = str(rng.choice(bad))
    else:
        lines[0] = str(len(sizes) + rng.choice((-1, 1)))
        k = len(lines)
    return parse_bpp_instance, valid, lines, k


def bpp_solution_case(rng):
    # the planted bins are full, so any extra item overflows
    bpp, sol = gen_bpp_fullbins(rng.randint(2, 4), rng.randint(2, 12),
                                rng.randrange(10 ** 6), max_parts=rng.randint(2, 4))
    bins = [list(b) for b in sol.bins]
    rng.shuffle(bins)
    for items in bins:
        rng.shuffle(items)
    lines = spread(rng, [padded(rng, str(len(bins)))],
                   [padded(rng, " ".join(map(str, b))) for b in bins])
    valid = list(lines)
    rows = filled(lines, first=2)
    fault = rng.choice(("token", "range", "repeat", "overfull", "count", "missing"))
    if fault == "token":
        k = bad_token(rng, lines)
    elif fault == "range":
        k = rng.choice(rows)
        tokens = lines[k - 1].split()
        tokens[rng.randrange(len(tokens))] = str(
            rng.choice((-1, -7, len(bpp.sizes), len(bpp.sizes) + 5)))
        lines[k - 1] = " ".join(tokens)
    elif fault in ("repeat", "overfull"):
        k = rng.choice(rows[:-1] if fault == "overfull" else rows)
        pool = [no for no in rows if (no > k if fault == "overfull" else no <= k)]
        item = rng.choice(lines[rng.choice(pool) - 1].split())
        lines[k - 1] += f" {item}"
    elif fault == "count":
        lines[0] = str(len(bins) + rng.choice((-1, 1)))
        k = len(lines)
    else:
        k = rng.choice(rows)
        tokens = lines[k - 1].split()
        del tokens[rng.randrange(len(tokens))]
        lines[k - 1] = " ".join(tokens)
        k = len(lines)
    instance_text = format_bpp_instance(bpp)
    return (lambda text: parse_bpp(instance_text, text)), valid, lines, k


CASES = (instance_case, bpp_instance_case, bpp_solution_case)


def test_one_line_mutations_name_their_line():
    rng = random.Random(71)
    for _ in range(600):
        for case in CASES:
            parse, valid, mutated, k = case(rng)
            parse(text_of(valid))
            with pytest.raises(FormatError) as info:
                parse(text_of(mutated))
            assert str(info.value).startswith(f"line {k}:"), (
                case.__name__, valid, mutated, str(info.value))


def test_number_readers_take_no_surrounding_whitespace():
    # int() and float() strip it; a file token never carries any, but a CLI
    # argument such as --n ' 7' can
    for token in (" 7", "7\n", *BAD_TOKENS):
        with pytest.raises(FormatError, match="^line 3: expected an integer$"):
            read_int(token, 3)
    for token in (" 7", "7\n", "1_0", "１٠"):
        with pytest.raises(ValueError):
            read_float(token)
    assert (read_int("-7"), read_float("7")) == (-7, 7.0)

"""Instance generation: random families and bin-packing derived instances.

Three random families are supported.  ``arbitrary`` draws both bar heights
uniformly from {1..D}/D; ``big`` picks one bar per chart uniformly at
random, draws it from (1/2, 1] and the other from (0, 1]; and
``big_nonincreasing`` additionally swaps bars so the first is the higher
one.  Generation is a pure function of (n, seed, family, D).

A bin-packing instance with a solution converts into a packing
instance: bins are sorted by item count,
leftover items of each bin pair up with items of the next bin into one
chart per pair, unused items of the last bin are dropped, and heights are
item sizes over the bin capacity.  The chained construction places the
bin-i/bin-(i+1) charts in cell i; ``transform_bpp`` records its length as
the optimum only when it meets ``combined`` = max(L2, adjacency).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from .model import (FormatError, Instance, Placement, evaluate_packing, lower_bounds,
                    read_int)

FAMILIES = ("arbitrary", "big", "big_nonincreasing")


def _rng(tag: str) -> random.Random:
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def gen_random(n: int, seed: int, family: str, den: int = 10 ** 6) -> Instance:
    if n < 1:
        raise ValueError("need n >= 1")
    if den < 2:
        raise ValueError("need D >= 2")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = _rng(f"{family}:{n}:{den}:{seed}")
    a, b = [], []
    for _ in range(n):
        if family == "arbitrary":
            x, y = rng.randint(1, den), rng.randint(1, den)
        else:
            big_first = rng.randint(0, 1) == 0
            big = rng.randint(den // 2 + 1, den)
            other = rng.randint(1, den)
            x, y = (big, other) if big_first else (other, big)
            if family == "big_nonincreasing" and x < y:
                x, y = y, x
        a.append(x)
        b.append(y)
    a = tuple(a)  # frees the list before the next tuple: 8 MB less at n=10**6
    return Instance(a=a, b=tuple(b), den=den, label=f"{family}-n{n}-d{den}-s{seed}",
                    family=family)


# --- bin packing side --------------------------------------------------------


@dataclass(frozen=True)
class BppInstance:
    sizes: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        for k, s in enumerate(self.sizes):
            if not 0 < s <= self.capacity:
                raise ValueError(f"item {k}: size {s} outside (0, capacity]")


Bins = tuple[tuple[int, ...], ...]  # a bin-packing solution: item indices per bin


def parse_bpp_instance(text: str) -> BppInstance:
    lines = text.splitlines()
    if len(lines) < 2:
        raise FormatError("line 1: expected item count and capacity lines")
    count = read_int(lines[0].strip(), 1, "the item count")
    capacity = read_int(lines[1].strip(), 2, "the bin capacity")
    if capacity < 1:
        raise FormatError("line 2: capacity must be positive")
    sizes: list[int] = []
    for no, raw in enumerate(lines[2:], start=3):
        if raw.strip():
            size = read_int(raw.strip(), no, "an item size")
            if not 0 < size <= capacity:
                raise FormatError(f"line {no}: item {len(sizes)}: size {size} "
                                  f"outside (0, capacity]")
            sizes.append(size)
    if len(sizes) != count:
        raise FormatError(f"line {len(lines)}: got {len(sizes)} sizes, "
                          f"header says {count}")
    return BppInstance(sizes=tuple(sizes), capacity=capacity)


def parse_bpp(instance_text: str, solution_text: str) -> tuple[BppInstance, Bins]:
    """Parse a bin-packing instance and a solution, checking each solution
    line as it is read; bin count and item coverage are checked last."""
    bpp = parse_bpp_instance(instance_text)
    lines = solution_text.splitlines()
    if not lines:
        raise FormatError("line 1: empty solution file")
    count = read_int(lines[0].strip(), 1, "the bin count")
    bins = []
    seen: dict[int, int] = {}  # item -> line it first appeared on
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        items = tuple(read_int(tok, no, "item indices") for tok in raw.split())
        for item in items:
            if not 0 <= item < len(bpp.sizes):
                raise FormatError(f"line {no}: item index {item} out of range")
            if item in seen:
                raise FormatError(f"line {no}: item {item} already in line "
                                  f"{seen[item]}")
            seen[item] = no
        load = sum(bpp.sizes[item] for item in items)
        if load > bpp.capacity:
            raise FormatError(f"line {no}: bin load {load} exceeds "
                              f"capacity {bpp.capacity}")
        bins.append(items)
    if len(bins) != count:
        raise FormatError(f"line {len(lines)}: got {len(bins)} bins, "
                          f"header says {count}")
    if len(seen) != len(bpp.sizes):
        missing = sorted(set(range(len(bpp.sizes))) - set(seen))
        raise FormatError(f"line {len(lines)}: solution misses items {missing}")
    return bpp, tuple(bins)


def _chain(bpp: BppInstance, bins: Bins,
           ) -> tuple[tuple[int, ...], tuple[int, ...], Placement]:
    """Bars ``a`` and ``b`` of the chained construction with its own packing:
    bins ranked by non-decreasing item count, and the chart pairing bins i
    and i+1 starts in cell i, giving length at most the bin count."""
    if len(bins) < 2:
        raise ValueError("need at least two bins to pair items")
    items = sorted(i for items in bins for i in items)  # each below the next
    if bad := [i for i, j in zip(items, items[1:] + [len(bpp.sizes)]) if not 0 <= i < j]:
        raise ValueError(f"item {bad[0]} is out of range or repeated")
    # a stable sort keeps tied bins in order; pair ascending item indices
    ranked = [sorted(items) for items in sorted(bins, key=len)]
    a, b = [], []
    witness: Placement = {}
    used_right = 0  # items of the current bin consumed as right bars
    for rank in range(len(ranked) - 1):
        left_items = ranked[rank][used_right:]
        right_items = ranked[rank + 1][:len(left_items)]
        a += [bpp.sizes[i] for i in left_items]
        b += [bpp.sizes[i] for i in right_items]
        witness.update((cid, rank + 1) for cid in range(len(witness) + 1, len(a) + 1))
        used_right = len(left_items)
    return tuple(a), tuple(b), witness


def transform_bpp(bpp: BppInstance, bins: Bins, label: str = "") -> Instance:
    """Build the packing instance of a bin-packing solution, dropping the
    unused items of the last bin.  The chained packing is audited, and its
    length becomes ``known_opt`` only when it meets ``combined`` = max(L2,
    adjacency), which proves it optimal; an overfull cell raises ``ValueError``.
    """
    a, b, witness = _chain(bpp, bins)
    instance = Instance(a=a, b=b, den=bpp.capacity,
                        label=label or f"bpp-c{bpp.capacity}-n{len(a)}",
                        family="bpp")
    check = evaluate_packing(instance, witness)
    if not check.feasible:
        raise ValueError("the chained packing overfills a cell")
    if check.length == lower_bounds(instance):
        instance = replace(instance, known_opt=check.length)
    return instance


def gen_bpp_fullbins(num_bins: int, capacity: int, seed: int, max_parts: int = 4,
                     ) -> tuple[BppInstance, Bins]:
    """Random bin-packing instance built from exactly-full bins, with those
    bins as its solution.

    Each bin's capacity is split into 2..max_parts item sizes, so the area
    bound equals ``num_bins`` and the planted bins are optimal.  They come in
    the order drawn, each listing its item indices ascending.
    """
    if num_bins < 1 or capacity < 2 or max_parts < 2:
        raise ValueError("need num_bins >= 1, capacity >= 2, max_parts >= 2")
    rng = _rng(f"bpp:{num_bins}:{capacity}:{max_parts}:{seed}")
    items: list[tuple[int, int]] = []  # (bin, size), then shuffled
    for b in range(num_bins):
        parts = rng.randint(2, min(max_parts, capacity))
        cuts = sorted(rng.sample(range(1, capacity), parts - 1))
        prev = 0
        for cut in cuts + [capacity]:
            items.append((b, cut - prev))
            prev = cut
    rng.shuffle(items)
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    for k, (b, _) in enumerate(items):
        bins[b].append(k)
    return (BppInstance(sizes=tuple(size for _, size in items), capacity=capacity),
            tuple(map(tuple, bins)))

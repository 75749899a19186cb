"""Core domain model for two-bar chart strip packing.

A bar chart is a row of unit-width bars with heights in (0, 1]; an instance
is a set of two-bar charts that must be packed into a unit-height strip so
that no strip cell accumulates more than height 1.  All heights are exact
rationals num/den with one shared denominator per instance, so feasibility
at exactly 1.0 is decided with integer arithmetic and never with a float
tolerance.

Chart ids are 1-based.  A placement maps each chart id to the cell of its
first bar; the packing length counts occupied cells only, so placements may
contain gaps.

An ``Instance`` is two bar tuples, ``a`` and ``b``, as in the paper's model;
no solver builds a ``BarChart``.  The heuristics merge and lay out flat
``ChartRow`` tuples: a t-union (t <= 2) reads no bar but a chart's first two
and last two, so a row keeps those, its width and the original charts it
holds.  ``Instance.rows`` makes them once, for every heuristic to start from.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .matching import Matching


class FormatError(ValueError):
    """Malformed instance, BPP or config text; message carries the line number."""


def read_int(token: str, line_no: int = 0, what: str = "an integer") -> int:
    """``token`` as an optional sign and ASCII digits, else
    ``FormatError("line <line_no>: expected <what>")``; ``int`` alone would
    also read ``1_0``, non-ASCII digits such as ``１０`` or ``" 7"``."""
    if token.isascii() and "_" not in token and token == token.strip():
        try:
            return int(token)
        except ValueError:
            pass
    raise FormatError(f"line {line_no}: expected {what}")


def read_float(token: str) -> float:
    """``float(token)`` for ASCII text without ``_`` or surrounding
    whitespace, else ``ValueError``: ``float`` alone would also read
    ``1_0``, digits such as ``１٠`` or ``" 7"``."""
    if not token.isascii() or "_" in token or token != token.strip():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def find(links: list[int], k: int) -> int:
    """The first slot on the links from ``k`` that links to itself; each slot
    passed is pointed two links on (path halving, Tarjan & van Leeuwen 1984)."""
    while links[k] != k:
        links[k] = k = links[links[k]]
    return k


@dataclass(frozen=True)
class BarChart:
    """A chart of ``len(bars)`` unit-width bars; heights are ``bars[i]/den``."""

    id: int
    bars: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError(f"chart {self.id}: denominator must be positive")
        if len(self.bars) < 1:
            raise ValueError(f"chart {self.id}: needs at least one bar")
        for h in self.bars:
            if not 0 < h <= self.den:
                raise ValueError(
                    f"chart {self.id}: bar height {h}/{self.den} outside (0, 1]")

    @property
    def width(self) -> int:
        return len(self.bars)


@dataclass(frozen=True)
class Instance:
    """Two-bar charts 1..n: chart i's bars are ``a[i - 1]/den`` and ``b[i - 1]/den``."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    den: int
    label: str = ""
    family: str = ""
    known_opt: int | None = None

    def __post_init__(self) -> None:
        if len(self.a) < 1:
            raise ValueError("instance needs at least one chart")
        if len(self.a) != len(self.b):
            raise ValueError(f"{len(self.a)} first bars but {len(self.b)} second bars")
        if (den := self.den) < 2:
            raise ValueError(f"denominator {den} must be at least 2")
        for cid, (x, y) in enumerate(zip(self.a, self.b), start=1):
            if not (0 < x <= den and 0 < y <= den):
                raise ValueError(f"chart {cid}: bar height {y if 0 < x <= den else x}"
                                 f"/{den} outside (0, 1]")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def charts(self) -> tuple[BarChart, ...]:
        """The charts as ``BarChart``s, built anew on each read; only the benchmark's
        input writer and the tests read them (ROADMAP.md item 1 can drop it)."""
        return tuple(BarChart(id=cid, bars=bars, den=self.den)
                     for cid, bars in enumerate(zip(self.a, self.b), start=1))

    @cached_property
    def rows(self) -> tuple[ChartRow, ...]:
        """The charts as rows in id order, each its own origin at offset 0;
        not a field, so made on the first read, kept, and never compared."""
        return tuple((cid, a, b, a, b, 2, ((cid, 0),))
                     for cid, (a, b) in enumerate(zip(self.a, self.b), start=1))


# A placement assigns each chart id the 1-based cell of its first bar.
Placement = dict[int, int]

# What every heuristic merges and lays out: (id, bars[0], bars[1], bars[-2],
# bars[-1], width, origins), where origins pairs each original chart id in
# the chart with the offset of its first bar, and id is the least of them.
ChartRow = tuple[int, int, int, int, int, int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Evaluation:
    feasible: bool
    length: int
    occupancy: dict[int, int]


@dataclass(frozen=True)
class Solved:
    """The result of every solver, EXACT included.

    ``probes`` counts the unplaced charts GA_LO's cell sweep tests (it
    skips placed ones through next-unplaced links); ``rounds`` counts the
    union graphs Mw built, the final edgeless one included; ``unions`` holds
    Mw's matchings, one per round that merged, so ``unions[0]`` is M1w's,
    and ``rows`` the rows its last round left, from which Mw can go on
    (``()`` on the other solvers).  ``lower_bound`` and ``node_count`` are
    EXACT's: the bound it proved and the nodes it expanded, ``None`` on a
    heuristic.
    """

    placement: Placement
    length: int
    probes: int = 0
    rounds: int | None = None
    unions: tuple[Matching, ...] = ()
    rows: tuple[ChartRow, ...] = ()
    lower_bound: int | None = None
    node_count: int | None = None

    @property
    def status(self) -> str:
        """``optimal`` exactly when the length meets the proven bound."""
        return "optimal" if self.length == self.lower_bound else "bounded"


def evaluate_packing(instance: Instance, placement: Placement) -> Evaluation:
    """Evaluate feasibility and length of ``placement`` on ``instance``.

    The occupancy map accumulates exact numerator sums per cell; a packing is
    feasible iff every cell sum is at most ``den``.  Empty cells between
    occupied ones do not count toward the length.
    """
    ids = set(range(1, instance.n + 1))
    if extra := set(placement) - ids:
        raise ValueError(f"placement references unknown chart ids {sorted(extra)}")
    if missing := ids - set(placement):
        raise ValueError(f"placement misses chart ids {sorted(missing)}")

    occupancy: dict[int, int] = {}
    for cid, (a, b) in enumerate(zip(instance.a, instance.b), start=1):
        pos = placement[cid]
        if pos < 1:
            raise ValueError(f"chart {cid}: cell {pos} is not positive")
        occupancy[pos] = occupancy.get(pos, 0) + a
        occupancy[pos + 1] = occupancy.get(pos + 1, 0) + b

    feasible = all(total <= instance.den for total in occupancy.values())
    return Evaluation(feasible=feasible, length=len(occupancy), occupancy=occupancy)


def _adjacent(tails, partners, starts: list[int], den: int) -> int:
    """nu by ``lower_bounds``' sweep; it uses sorted ``starts`` up, partners as (y, x)."""
    partners, k, nu = sorted([(x, y) for y, x in partners]), 0, 0
    for x, y in sorted(tails, reverse=True):
        while k < len(partners) and partners[k][0] <= den - x:
            insort(starts, partners[k][1])
            k += 1
        if p := bisect_right(starts, den - y):
            del starts[p - 1]
            nu += 1
    return nu


def lower_bounds(instance: Instance) -> int:
    """The length's lower bound over the 2n bars, each cell a bin of size D.

    This is ``combined``, the largest of 2, a chart's cells, L2 and adjacency,
    never below area (total bar height rounded up) or big (the bars above 1/2,
    which cannot share a cell).  L2 (Martello & Toth, Discrete Appl. Math.
    1990): for K <= D/2, bars above D - K and bars in (D/2, D - K] need a bin
    each, and bars in [K, D/2] fit only into the latter's room or new bins.
    K = 0 gives max(area, big); past it only sizes <= D/2 need trying, and as
    K grows the cursor ``low`` rises and ``top`` falls: one sort, an O(n) sweep.

    Adjacency: the length is big plus the cells with no big bar.  A BS chart i
    (only a_i big) in cell c meets at most one big bar in c + 1: a_j of a
    chart starting there, b_i + a_j <= D, or b_k of an SB chart (only b_k big)
    also in c, a_i + a_k <= D and b_i + b_k <= D.  BS charts start in distinct
    cells, so |BS| - nu cells hold none, nu a maximum matching of them to such
    bars; SB charts and the cells before them mirror it.  Tail i fits the
    points (0, a_j) and (a_k, b_k) up to (D - a_i, D - b_i), and its own (0,
    a_i): an edge more never lowers nu.  By ascending first cap, each tail
    takes the free point that fits it with the largest y.  If a maximum
    matching M agrees before tail i, which takes p, but gives i p' and p to a
    later k, k fits p' (in x as i does, in y below p): swap them; if M leaves
    p or i free, give i p.  A tail left free fits no free point, in M too.
    Without partners Hall's count over the starts is exact, and with them no
    lower: a side is swept only if that count passes.
    """
    den, h = instance.den, instance.den // 2
    sizes = sorted((firsts := sorted(instance.a)) + (seconds := sorted(instance.b)))
    half = bisect_right(sizes, h)  # sizes[half:] are above D/2
    small = sum(sizes[:half])  # the sum of sizes[low:half], those in [K, D/2]
    big = sum(sizes[half:])  # the sum of sizes[half:top], those in (D/2, D - K]
    area_lb = -(-(small + big) // den)
    big_lb, top = len(sizes) - half, len(sizes)
    combined = max(area_lb, big_lb, 2)
    # K = sizes[low], dropped from small once tried; a repeated size tries
    # K again with less in small, which never raises the bound
    for k in sizes[:half]:
        while sizes[top - 1] > den - k:
            top -= 1
            big -= sizes[top]
        # big_lb, plus the bins [K, D/2] fills past the room (D/2, D - K] leaves
        need = big_lb - ((top - half) * den - big - small) // den
        if need > combined:
            combined = need
        small -= k
    bs, sb = [], []  # charts with only the first bar big, and only the second as (b, a)
    for x, y in zip(instance.a, instance.b):
        if y <= h < x:
            bs.append((x, y))
        elif x <= h < y:
            sb.append((y, x))
    for tails, partners, bars in ((bs, sb, firsts), (sb, bs, seconds)):
        if big_lb + len(tails) > combined:
            starts, caps = bars[bisect_right(bars, h):], sorted(den - y for _, y in tails)
            fits = map(bisect_right, [starts] * len(caps), caps)  # starts under each cap
            free = max(k - c for k, c in enumerate(fits, 1))
            if partners and big_lb + free > combined:
                free = len(tails) - _adjacent(tails, partners, starts, den)
            combined = max(combined, big_lb + free)
    return combined


def compact(instance: Instance, placement: Placement) -> Placement:
    """Shift occupied runs together so the occupied cells become 1..length.

    Adjacent occupied cells keep their relative order and distance, so each
    chart's bars stay adjacent; per-cell occupancy values are merely relabeled
    and both feasibility and length are preserved.
    """
    occupied = {placement[cid] + off
                for cid in range(1, instance.n + 1) for off in (0, 1)}
    new_cell = {cell: rank for rank, cell in enumerate(sorted(occupied), start=1)}
    return {cid: new_cell[pos] for cid, pos in placement.items()}


def assemble_placement(paths: list[tuple[int, ...]], rows: list[ChartRow],
                       den: int) -> tuple[Placement, int]:
    """Lay ``paths`` of row ids out, each from a new cell, each later row sharing
    its first cell with the last of the row before; the placement and length.
    An overfull cell, or paths not laying each row once, raise ``ValueError``."""
    by_id = {row[0]: row for row in rows}
    placement: Placement = {}
    end = 0  # the last strip cell used
    for path in paths:
        top, end = 0, end + 1  # the height in cell ``end`` the next row shares
        for cid in path:
            _, first, _, _, last, width, origins = by_id[cid]
            top += first
            if top > den:
                raise ValueError(f"strip cell {end} holds {top}/{den} > 1")
            for oid, off in origins:
                placement[oid] = end + off
            top, end = last, end + width - 1
    if (len(placement) != sum(len(row[6]) for row in rows)
            or sum(map(len, paths)) != len(rows)):
        raise ValueError("the path cover must place every original chart once")
    return placement, end


# --- instance / placement text formats -------------------------------------
#
# Instance file: line 1 "n D", then n lines "a_num b_num", optionally one
# trailing "opt <int>" line.  Placement file: one "id cell" line per chart,
# written by ``format_placement``.


def format_instance(instance: Instance) -> str:
    lines = [f"{instance.n} {instance.den}"]
    lines += [f"{x} {y}" for x, y in zip(instance.a, instance.b)]
    if instance.known_opt is not None:
        lines.append(f"opt {instance.known_opt}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str, label: str = "") -> Instance:
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1: empty instance file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("line 1: expected 'n D'")
    n, den = (read_int(tok, 1, "two integers") for tok in head)
    if n < 1 or den < 2:
        raise FormatError("line 1: need n >= 1 and D >= 2")
    if len(lines) < n + 1:
        raise FormatError(f"line {len(lines)}: expected {n} chart lines")

    a, b = [], []
    for k in range(1, n + 1):
        parts = lines[k].split()
        if len(parts) != 2:
            raise FormatError(f"line {k + 1}: expected 'a_num b_num'")
        # two plain calls: unpacking a generator here slowed parsing by ~10%
        x = read_int(parts[0], k + 1, "two integers")
        y = read_int(parts[1], k + 1, "two integers")
        if not (0 < x <= den and 0 < y <= den):
            raise FormatError(f"line {k + 1}: chart {k}: bar height "
                              f"{y if 0 < x <= den else x}/{den} outside (0, 1]")
        a.append(x)
        b.append(y)

    known_opt = None
    for extra_no, raw in enumerate(lines[n + 1:], start=n + 2):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "opt" and len(parts) == 2:
            if known_opt is not None:
                raise FormatError(f"line {extra_no}: a second opt line")
            known_opt = read_int(parts[1], extra_no, "an integer opt value")
            if known_opt < 1:
                raise FormatError(f"line {extra_no}: opt must be at least 1")
        else:
            raise FormatError(f"line {extra_no}: unexpected trailing line")

    return Instance(a=tuple(a), b=tuple(b), den=den, label=label, known_opt=known_opt)


def format_placement(placement: Placement) -> str:
    return "".join(f"{cid} {cell}\n" for cid, cell in sorted(placement.items()))

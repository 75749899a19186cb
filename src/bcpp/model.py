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

A ``BarChart`` is what parsing and generation make.  The heuristics merge
and lay out flat ``ChartRow`` tuples instead: a t-union (t <= 2) reads no
bar but a chart's first two and last two, so a row keeps those, its width
and the original charts it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def is_big(self) -> bool:
        """True when some bar is strictly higher than 1/2."""
        return 2 * max(self.bars) > self.den


@dataclass(frozen=True)
class Instance:
    """An ordered set of two-bar charts with ids 1..n and a shared denominator."""

    charts: tuple[BarChart, ...]
    den: int
    label: str = ""
    family: str = ""
    known_opt: int | None = None

    def __post_init__(self) -> None:
        if len(self.charts) < 1:
            raise ValueError("instance needs at least one chart")
        if self.den < 2:
            raise ValueError(f"denominator {self.den} must be at least 2")
        for k, ch in enumerate(self.charts, start=1):
            if ch.id != k:
                raise ValueError(f"chart ids must be 1..n, got {ch.id} at slot {k}")
            if ch.width != 2:
                raise ValueError(f"chart {ch.id}: raw instances hold 2-bar charts only")
            if ch.den != self.den:
                raise ValueError(f"chart {ch.id}: denominator {ch.den} != {self.den}")

    @property
    def n(self) -> int:
        return len(self.charts)


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
    Mw's matchings, one per round that merged, so ``unions[0]`` is M1w's.
    ``lower_bound`` and ``node_count`` are EXACT's: the bound it proved and
    the nodes it expanded, ``None`` on a heuristic.
    """

    placement: Placement
    length: int
    probes: int = 0
    rounds: int | None = None
    unions: tuple[Matching, ...] = ()
    lower_bound: int | None = None
    node_count: int | None = None

    @property
    def status(self) -> str:
        """``optimal`` exactly when the length meets the proven bound."""
        return "optimal" if self.length == self.lower_bound else "bounded"


@dataclass(frozen=True)
class Bounds:
    area_lb: int
    big_lb: int
    combined: int


def evaluate_packing(instance: Instance, placement: Placement) -> Evaluation:
    """Evaluate feasibility and length of ``placement`` on ``instance``.

    The occupancy map accumulates exact numerator sums per cell; a packing is
    feasible iff every cell sum is at most ``den``.  Empty cells between
    occupied ones do not count toward the length.
    """
    ids = {ch.id for ch in instance.charts}
    extra = set(placement) - ids
    if extra:
        raise ValueError(f"placement references unknown chart ids {sorted(extra)}")
    missing = ids - set(placement)
    if missing:
        raise ValueError(f"placement misses chart ids {sorted(missing)}")

    occupancy: dict[int, int] = {}
    for ch in instance.charts:
        pos = placement[ch.id]
        if pos < 1:
            raise ValueError(f"chart {ch.id}: cell {pos} is not positive")
        for off, h in enumerate(ch.bars):
            cell = pos + off
            occupancy[cell] = occupancy.get(cell, 0) + h

    feasible = all(total <= instance.den for total in occupancy.values())
    return Evaluation(feasible=feasible, length=len(occupancy), occupancy=occupancy)


def lower_bounds(instance: Instance) -> Bounds:
    """Two cheap combinatorial lower bounds and their maximum with 2.

    area: total bar height rounded up.  big: bars above 1/2 cannot share a
    cell, so their count bounds the length.  Every chart is 2 bars wide, so
    one chart alone already occupies 2 cells.
    """
    total = sum(h for ch in instance.charts for h in ch.bars)
    area_lb = -(-total // instance.den)
    big_lb = sum(1 for ch in instance.charts for h in ch.bars if 2 * h > instance.den)
    return Bounds(area_lb=area_lb, big_lb=big_lb,
                  combined=max(area_lb, big_lb, 2))


def compact(instance: Instance, placement: Placement) -> Placement:
    """Shift occupied runs together so the occupied cells become 1..length.

    Adjacent occupied cells keep their relative order and distance, so each
    chart's bars stay adjacent; per-cell occupancy values are merely relabeled
    and both feasibility and length are preserved.
    """
    occupied: set[int] = set()
    for ch in instance.charts:
        pos = placement[ch.id]
        occupied.update(pos + off for off in range(ch.width))
    new_cell = {cell: rank for rank, cell in enumerate(sorted(occupied), start=1)}
    return {cid: new_cell[pos] for cid, pos in placement.items()}


def assemble_placement(rows: list[ChartRow]) -> Placement:
    """Lay the rows out left to right, in the given order (ascending id, as
    ``merge_matched`` returns them), placing each origin at its offset."""
    placement: Placement = {}
    base = 1
    for *_, width, origins in rows:
        for oid, off in origins:
            placement[oid] = base + off
        base += width
    return placement


# --- instance / placement text formats -------------------------------------
#
# Instance file: line 1 "n D", then n lines "a_num b_num", optionally one
# trailing "opt <int>" line.  Placement file: one "id cell" line per chart,
# written by ``format_placement``.


def format_instance(instance: Instance) -> str:
    lines = [f"{instance.n} {instance.den}"]
    lines += [f"{ch.bars[0]} {ch.bars[1]}" for ch in instance.charts]
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

    charts = []
    for k in range(1, n + 1):
        parts = lines[k].split()
        if len(parts) != 2:
            raise FormatError(f"line {k + 1}: expected 'a_num b_num'")
        # two plain calls: unpacking a generator here slowed parsing by ~10%
        a = read_int(parts[0], k + 1, "two integers")
        b = read_int(parts[1], k + 1, "two integers")
        try:
            charts.append(BarChart(id=k, bars=(a, b), den=den))
        except ValueError as exc:
            raise FormatError(f"line {k + 1}: {exc}") from None

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

    return Instance(charts=tuple(charts), den=den, label=label, known_opt=known_opt)


def format_placement(placement: Placement) -> str:
    return "".join(f"{cid} {cell}\n" for cid, cell in sorted(placement.items()))

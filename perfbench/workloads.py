"""Workload definitions and their inputs.

A workload is a list of suites.  Each suite is one bench config (the
documented ``key = value`` format) that names its algorithms and takes its
instances from files written to a scratch directory or, for suites of many
small instances, from ``generate`` lines.  Every algorithm runs in
exactly one suite of a workload, so each per-algorithm metric comes from one
instance population.

A run is split into passes.  Pass ``k`` runs every suite of the workload
once, on its own instances: the inputs of a run are a pure function of the
seed and the pass count, and the pass count is a pure function of the run
length, so a run never picks its inputs by how fast the code is.  Many short
passes give the median pass time many samples.

On the two large workloads, the cheap algorithms (GA_LO, A1) run in a
``fast`` suite on more instances per pass than the costly ones, so their
medians rest on more samples; and a ``cover`` suite of tiny instances runs
the algorithms the workload is not about, so that every workload reports
every metric; its share of a pass is small.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from bcpp import generators, harness

ALL_ALGORITHMS = ("GA_LO", "M1w", "Mw", "A1", "A2", "EXACT")
HEURISTICS = ("GA_LO", "M1w", "Mw", "A1", "A2")

# Node budget for every EXACT solve, reference solves included.  An exact
# instance that the search cannot close costs two full budgets (reference
# and algorithm), so the budget sets how many instances fit in a pass.
EXACT_NODES = 5000

# Every run makes at least this many passes; the records digest covers them.
MIN_PASSES = 3


@dataclass(frozen=True)
class Group:
    """One ``generate``-style instance group: ``count`` instances per pass."""

    family: str
    n: int
    count: int
    den: int


@dataclass(frozen=True)
class Suite:
    name: str
    groups: tuple[Group, ...]
    algorithms: tuple[str, ...]
    settings: tuple[str, ...]  # further config lines
    generated: bool = False    # ``generate`` lines instead of instance files


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[Suite, ...]
    pass_seconds: float  # nominal pass length on a 2-core machine

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_seconds))


_BIG_D = 10 ** 6
_SMALL_D = 100
_LB_ONLY = ("reference = lb",)
_WITH_EXACT = ("reference = auto", f"exact_nodes = {EXACT_NODES}")

_COVER_GROUPS = (Group("arbitrary", 5, 20, _SMALL_D), Group("big", 5, 20, _SMALL_D))

WORKLOADS = {w.name: w for w in (
    Workload("arbitrary-n200", (
        Suite("main", (Group("arbitrary", 200, 1, _BIG_D),), ("M1w", "Mw", "A2"),
              _LB_ONLY),
        Suite("fast", (Group("arbitrary", 200, 4, _BIG_D),), ("GA_LO", "A1"),
              _LB_ONLY),
        Suite("cover", _COVER_GROUPS, ("EXACT",), _WITH_EXACT, generated=True),
    ), pass_seconds=2.5),
    Workload("big-n500", (
        Suite("main", (Group("big", 500, 1, _BIG_D),), ("A2",), _LB_ONLY),
        Suite("fast", (Group("big", 500, 3, _BIG_D),), ("GA_LO", "A1"), _LB_ONLY),
        Suite("cover", _COVER_GROUPS, ("M1w", "Mw", "EXACT"), _WITH_EXACT,
              generated=True),
    ), pass_seconds=4.3),
    Workload("exact-small", (
        Suite("main", (Group("arbitrary", 10, 30, _SMALL_D),
                       Group("big", 12, 30, _SMALL_D)),
              ALL_ALGORITHMS, _WITH_EXACT, generated=True),
    ), pass_seconds=2.2),
)}


@dataclass(frozen=True)
class ChartData:
    """Bar numerators of one instance, kept by the benchmark for its checks."""

    den: int
    bars: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PassInput:
    index: int
    configs: tuple[tuple[Suite, harness.SuiteConfig], ...]


def instance_seed(seed: int, pass_index: int, k: int) -> int:
    return seed * 1_000_000 + pass_index * 1_000 + k


def _write_instance(path: str, den: int, bars: tuple[tuple[int, int], ...]) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(bars)} {den}\n" + "".join(f"{a} {b}\n" for a, b in bars))


def write_inputs(workload: Workload, seed: int, passes: int, base_dir: str,
                 ) -> tuple[list[PassInput], dict[str, ChartData]]:
    """Generate, write and configure every pass; return the parsed configs
    and the bars of every instance, keyed by label.  A ``generated`` suite
    gets ``generate`` lines, which make ``run_suite`` draw the same
    instances itself; its instances are still drawn here for the checks."""
    inputs: list[PassInput] = []
    charts: dict[str, ChartData] = {}
    for p in range(passes):
        configs = []
        k = 0  # instance index within the pass, across suites
        for suite in workload.suites:
            rel = os.path.join(f"p{p}", suite.name)
            if not suite.generated:
                os.makedirs(os.path.join(base_dir, rel), exist_ok=True)
            lines = []
            for group in suite.groups:
                if suite.generated:
                    lines.append(f"generate = family={group.family} n={group.n} "
                                 f"count={group.count} seed={instance_seed(seed, p, k)} "
                                 f"D={group.den}")
                for _ in range(group.count):
                    inst = generators.gen_random(
                        group.n, instance_seed(seed, p, k), group.family, group.den)
                    k += 1
                    if inst.label in charts:
                        raise ValueError(f"instance label {inst.label} repeats")
                    bars = tuple((ch.bars[0], ch.bars[1]) for ch in inst.charts)
                    charts[inst.label] = ChartData(den=inst.den, bars=bars)
                    if not suite.generated:
                        _write_instance(os.path.join(base_dir, rel, inst.label + ".inst"),
                                        inst.den, bars)
            if not suite.generated:
                lines.append(f"instances = {rel}/*.inst")
            text = "\n".join(lines + [
                "algorithms = " + ", ".join(suite.algorithms),
                "timing = on",
                *suite.settings]) + "\n"
            configs.append((suite, harness.parse_config(text)))
        inputs.append(PassInput(index=p, configs=tuple(configs)))
    return inputs, charts


def trace_passes(passes: int) -> int:
    """A traced run repeats each of its passes untraced, so it runs half as
    many passes to keep to the run length."""
    return max(2, math.ceil(passes / 2))

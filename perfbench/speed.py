"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-core host the same pure-Python work can take anywhere from
1x to 2x its usual time, and the slowdown drifts over seconds to minutes;
process CPU time drifts with it, so it is not a way out.  The benchmark
therefore times a fixed kernel that uses no bcpp code right before and
right after every timed call (one timing serves as the "after" of one call
and the "before" of the next), and scales the call's times by
``NOMINAL_S / (mean kernel time)``.  A change to bcpp cannot move the
kernel, so a scaled time still moves one for one with the code's speed; it
reads in seconds at the speed where the kernel takes ``NOMINAL_S``.

Over ten 30-second runs of each workload on such a host, the spread
(interquartile range over median) of ``wall_s`` and the per-algorithm
timings was 0.11-0.35 (median 0.23) unscaled and 0.06-0.14 (median 0.08)
scaled.
"""

from __future__ import annotations

import gc
import time

# Kernel time at the reference speed; scaled times read as if measured there.
NOMINAL_S = 0.04

# fixed two-bar "charts" for the pair loop, numerators over 1000
_CHARTS = tuple(((i * 7919) % 1000 + 1, (i * 104729) % 1000 + 1) for i in range(260))


class _Edge:
    __slots__ = ("u", "v", "w")

    def __init__(self, u: int, v: int, w: int):
        self.u, self.v, self.w = u, v, w


def _kernel() -> None:
    # dict, sort and integer arithmetic
    table = {}
    for i in range(20_000):
        table[i * 7 % 1009, i] = i * i
    total = 0
    for (a, b), v in sorted(table.items(), key=lambda kv: (kv[0][1] % 97, kv[1])):
        total += a * b - v % 13
    # pair classification into small objects, adjacency dicts, sort: the
    # shape of union-graph building
    edges = []
    for i, (a0, a1) in enumerate(_CHARTS):
        for j in range(i + 1, len(_CHARTS)):
            b0, b1 = _CHARTS[j]
            if a0 + b0 <= 1000 and a1 + b1 <= 1000:
                edges.append(_Edge(i, j, 2))
            elif a1 + b0 <= 1000 or b1 + a0 <= 1000:
                edges.append(_Edge(i, j, 1))
    adjacency: dict[int, dict[int, int]] = {}
    for e in edges:
        adjacency.setdefault(e.u, {})[e.v] = e.w
        adjacency.setdefault(e.v, {})[e.u] = e.w
    edges.sort(key=lambda e: (-e.w, e.u, e.v))


def kernel_seconds() -> float:
    """Time the fixed kernel (about 40 ms) with the garbage collector off,
    so that its time does not grow with the heap the run has built up."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings into a
    time at the reference speed."""
    return 2 * NOMINAL_S / (before + after)

"""Per-instance lengths pinned across versions.

C9 checks that two runs of one version agree; this pins the answers
themselves.  A faster union graph, matching or path cover that feeds
networkx a different edge order or breaks ties another way changes some of
these lengths.  The values were recorded before pair classification moved
to flat chart rows and must not move unless a change means to alter the
answers, and says so.
"""

import pytest

from bcpp import gen_random, run_algorithm

ALGORITHMS = ("GA_LO", "M1w", "Mw", "A1", "A2")

# (family, n, seed) -> lengths in ALGORITHMS order, D = 10**6
GOLDEN = {
    ("arbitrary", 60, 3): (69, 74, 74, 76, 74),
    ("arbitrary", 60, 4): (68, 71, 69, 69, 69),
    ("arbitrary", 60, 6): (59, 64, 62, 64, 64),
    ("arbitrary", 60, 10): (64, 70, 70, 65, 67),
    ("big", 80, 2): (119, 121, 121, 119, 121),
    ("big", 80, 6): (124, 124, 124, 124, 125),
    ("big", 80, 9): (125, 124, 124, 124, 124),
}


@pytest.mark.parametrize("family, n, seed", sorted(GOLDEN))
def test_pinned_lengths(family, n, seed):
    instance = gen_random(n, seed, family, 10**6)
    lengths = tuple(run_algorithm(instance, name).length for name in ALGORITHMS)
    assert lengths == GOLDEN[(family, n, seed)]

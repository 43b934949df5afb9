"""Coverage of the Monte Carlo error bars over many seeds.

`McEstimate.within` claims that v2 lies within three standard errors of
the estimate.  If the standard error is right and the estimate is near
normal, a run misses with probability p0 = P(|N(0,1)| > 3) = 0.0027, so
the misses over n independent runs are Binomial(n, p0).  The bound on the
miss count is fixed from that law alone, as the smallest k with
P(misses >= k) <= 1e-3, before any estimate is drawn: a heavy tail that
makes the standard error too small shows as too many misses.
"""

import math

from casson.mcint import v2_mc
from casson.plane import polyknot_from_braid

KNOTS = (([1, 1, 1], 1), ([1, -2, 1, -2], -1), ([1] * 7, 6))
SEEDS = range(1, 61)
SAMPLES = 1 << 14
P0 = math.erfc(3 / math.sqrt(2))
LEVEL = 1e-3


def _binomial_bound(n: int, p: float, level: float) -> int:
    """The smallest k with P(Binomial(n, p) >= k) <= level."""
    tail = 1.0
    for k in range(n + 1):
        if tail <= level:
            return k
        tail -= math.comb(n, k) * p ** k * (1 - p) ** (n - k)
    return n + 1


def test_binomial_bound():
    assert _binomial_bound(180, P0, LEVEL) == 5
    assert _binomial_bound(10, 0.5, 1e-3) == 10


def test_within_covers_v2_over_many_seeds():
    runs = misses = 0
    for word, v2 in KNOTS:
        knot = polyknot_from_braid(word)
        for seed in SEEDS:
            runs += 1
            misses += not v2_mc(knot, SAMPLES, seed).within(v2)
    bound = _binomial_bound(runs, P0, LEVEL)
    assert misses < bound, f"{misses} of {runs} runs missed v2 by 3 SE"

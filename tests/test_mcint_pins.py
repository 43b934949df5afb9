"""Frozen Monte Carlo estimates at fixed seeds.

Each estimator is deterministic for a fixed (seed, samples) pair, so a
refactor of the sampling loop must reproduce these numbers: `samples`,
`rejected` and `seed` exactly, `value` and `std_error` to a relative 1e-9
(float summation order is the only freedom).  The counts cover one sample,
a few, one chunk per stream and, at 140001, a second chunk for every
stream; the series checkpoints show the chunk-boundary rounding (every
checkpoint reached inside the first chunk reports that whole chunk).
T(7,2), the integral benchmark's largest knot (49 parameter slots against
the 25 of 3_1 and the 40 of 4_1), is pinned for v2_mc only.
"""

import math

import pytest

from casson.mcint import linking_mc, v2_mc, v2_mc_series
from casson.plane import polyknot_from_braid

HOPF_A = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
HOPF_B = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]
KNOTS = {"3_1": [1, 1, 1], "4_1": [1, -2, 1, -2], "T7_2": [1] * 7}
COUNTS = (1, 5, 40001, 70001, 140001)

# (value, std_error, samples, rejected) at each of COUNTS
V2_MC_SEED7 = {
    "3_1": [
        (1.3112569419230973, 2e+18, 4, 0),
        (0.7387955715362119, 0.460667077760447, 8, 0),
        (0.7090486355827205, 0.15573226609741156, 40004, 0),
        (0.9466916845560174, 0.18510358780114244, 70004, 0),
        (1.001463255028757, 0.13686937177195443, 140004, 0),
    ],
    "4_1": [
        (-5.790347086335914, 2e+18, 4, 0),
        (-2.3964250172635575, 2.093254388881803, 8, 0),
        (-0.3433071834314785, 1.0821781230922847, 40004, 0),
        (-0.6359932073169369, 0.6697464052368941, 70004, 0),
        (-1.4488158752404379, 0.4271429521413281, 140004, 0),
    ],
    "T7_2": [
        (-10.108272042439818, 2e+18, 4, 0),
        (-2.367834029673393, 4.838730015100452, 8, 0),
        (7.697576850930371, 1.7410650392085127, 40004, 0),
        (6.117483916451895, 1.224711557917287, 70004, 0),
        (5.9067007194994465, 0.9731985550752754, 140004, 0),
    ],
}
V2_MC_SERIES_SEED3 = {
    "3_1": [
        (1.0450035082236595, 0.17463929203605338, 131072, 0),
        (1.0450035082236595, 0.17463929203605338, 131072, 0),
        (1.0450035082236595, 0.17463929203605338, 131072, 0),
        (1.0450035082236595, 0.17463929203605338, 131072, 0),
        (1.0582464913033822, 0.1648677399379335, 140004, 0),
    ],
    "4_1": [
        (-0.9631623225758446, 0.2708821196012885, 131072, 0),
        (-0.9631623225758446, 0.2708821196012885, 131072, 0),
        (-0.9631623225758446, 0.2708821196012885, 131072, 0),
        (-0.9631623225758446, 0.2708821196012885, 131072, 0),
        (-1.7412858883109106, 0.7622845237153982, 140004, 0),
    ],
}
LINKING_MC_SEED11 = [
    (-3.4040214835969445, math.inf, 1, 0),
    (-0.7820047271287637, 0.7675458403459823, 5, 0),
    (-0.9965869683229963, 0.008348410161217068, 40001, 0),
    (-1.0005604190345005, 0.006315434660883368, 70001, 0),
    (-1.0015104540179187, 0.004462213539457708, 140001, 0),
]


def _check(est, pinned, seed):
    value, std_error, samples, rejected = pinned
    assert (est.samples, est.rejected, est.seed) == (samples, rejected, seed)
    assert math.isclose(est.value, value, rel_tol=1e-9)
    assert math.isclose(est.std_error, std_error, rel_tol=1e-9)


@pytest.mark.parametrize("name", sorted(V2_MC_SEED7))
def test_v2_mc_pinned(name):
    knot = polyknot_from_braid(KNOTS[name])
    for count, pinned in zip(COUNTS, V2_MC_SEED7[name]):
        _check(v2_mc(knot, count, seed=7), pinned, 7)


@pytest.mark.parametrize("name", sorted(V2_MC_SERIES_SEED3))
def test_v2_mc_series_pinned(name):
    series = v2_mc_series(polyknot_from_braid(KNOTS[name]), list(COUNTS),
                          seed=3)
    assert len(series) == len(COUNTS)
    for est, pinned in zip(series, V2_MC_SERIES_SEED3[name]):
        _check(est, pinned, 3)


def test_linking_mc_pinned():
    for count, pinned in zip(COUNTS, LINKING_MC_SEED11):
        _check(linking_mc(HOPF_A, HOPF_B, count, seed=11), pinned, 11)

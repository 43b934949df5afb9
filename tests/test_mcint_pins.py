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
        (1.3332606776919576, 2e+18, 4, 0),
        (-2.331926509457098, 1.967790436948722, 8, 0),
        (0.6810671887017219, 0.163163932352256, 39931, 73),
        (0.80501913906888, 0.11611293550007432, 69868, 136),
        (1.009867264636971, 0.0810461084198669, 139769, 235),
    ],
    "4_1": [
        (-4.3143914592365995, 2e+18, 4, 0),
        (-1.8875237434583032, 1.531604281640495, 8, 0),
        (-0.4100216050075994, 1.0923087048078077, 39921, 83),
        (-0.7784096380613861, 0.6730111188446507, 69843, 161),
        (-1.3287833732082228, 0.42527967919635373, 139701, 303),
    ],
    "T7_2": [
        (-10.00380263968931, 2e+18, 4, 0),
        (-2.1330172322523286, 4.867136468543567, 8, 0),
        (8.039565385893503, 1.717773938967338, 39991, 13),
        (6.563851137617592, 1.1536922016735354, 69983, 21),
        (5.980872087087107, 0.9571969553824546, 139956, 48),
    ],
}
V2_MC_SERIES_SEED3 = {
    "3_1": [
        (0.9191997310958706, 0.07404119942366744, 130823, 249),
        (0.9191997310958706, 0.07404119942366744, 130823, 249),
        (0.9191997310958706, 0.07404119942366744, 130823, 249),
        (0.9191997310958706, 0.07404119942366744, 130823, 249),
        (0.9394921473566862, 0.07273616269216401, 139738, 266),
    ],
    "4_1": [
        (-1.1069100001883954, 0.2618755143737009, 130789, 283),
        (-1.1069100001883954, 0.2618755143737009, 130789, 283),
        (-1.1069100001883954, 0.2618755143737009, 130789, 283),
        (-1.1069100001883954, 0.2618755143737009, 130789, 283),
        (-1.1229953100372678, 0.2525598032698324, 139701, 303),
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

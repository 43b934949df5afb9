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
        (1.2828586292997943, 2e+18, 4, 0),
        (-1.8510882285859969, 1.9155295294153767, 8, 0),
        (0.9410002155793439, 0.08454253838796681, 40003, 1),
        (0.9355276557307559, 0.062155544648590105, 70003, 1),
        (0.9574605252681483, 0.04057921908136547, 140003, 1),
    ],
    "4_1": [
        (-5.3224428329746285, 2e+18, 4, 0),
        (-2.895575117196332, 1.531604281640495, 8, 0),
        (-0.9464326316732515, 0.23497747045512996, 40004, 0),
        (-1.0192017842078067, 0.16269103302359803, 70004, 0),
        (-0.9931242208542378, 0.11067658653062924, 140004, 0),
    ],
    "T7_2": [
        (7.73045623448434, 2e+18, 4, 0),
        (8.137629414127806, 1.1146140735497345, 8, 0),
        (6.1240131948043075, 0.3397600369105123, 40004, 0),
        (5.8903727878722805, 0.2855951284356016, 70004, 0),
        (5.849468319093602, 0.2523523868840094, 140004, 0),
    ],
}
V2_MC_SERIES_SEED3 = {
    "3_1": [
        (1.0192197511209917, 0.03702406049976157, 131072, 0),
        (1.0192197511209917, 0.03702406049976157, 131072, 0),
        (1.0192197511209917, 0.03702406049976157, 131072, 0),
        (1.0192197511209917, 0.03702406049976157, 131072, 0),
        (1.003598683932434, 0.03635025963819824, 140004, 0),
    ],
    "4_1": [
        (-0.9873869331219227, 0.11509950374899665, 131072, 0),
        (-0.9873869331219227, 0.11509950374899665, 131072, 0),
        (-0.9873869331219227, 0.11509950374899665, 131072, 0),
        (-0.9873869331219227, 0.11509950374899665, 131072, 0),
        (-0.9818463233504251, 0.11007223780480746, 140004, 0),
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

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
        (1.3188618357222972, 1e+18, 4, 0),
        (-1.3426383243063633, 2.4778816332282165, 8, 0),
        (0.9523992726106686, 0.04942051693400234, 40004, 0),
        (0.9609314031201264, 0.0418012438033968, 70004, 0),
        (1.0007518214273103, 0.029983406458136717, 140004, 0),
    ],
    "4_1": [
        (0.1886063618128595, 1e+18, 4, 0),
        (-0.5389111144134293, 0.5813820030012261, 8, 0),
        (-1.0394283524498347, 0.15279397526803856, 40004, 0),
        (-1.0307692922677076, 0.11045971513580916, 70004, 0),
        (-1.0133556856184447, 0.07904002133582967, 140004, 0),
    ],
    "T7_2": [
        (6.921545944699918, 1e+18, 4, 0),
        (6.770399628701453, 0.6320618626176033, 8, 0),
        (6.176937969684675, 0.30990841994995566, 40004, 0),
        (6.070161212455423, 0.2609118708476077, 70004, 0),
        (5.75154635042486, 0.21345774437816, 140004, 0),
    ],
}
V2_MC_SERIES_SEED3 = {
    "3_1": [
        (0.97787360276592, 0.02955249457501479, 131072, 0),
        (0.97787360276592, 0.02955249457501479, 131072, 0),
        (0.97787360276592, 0.02955249457501479, 131072, 0),
        (0.97787360276592, 0.02955249457501479, 131072, 0),
        (0.981722688559117, 0.028669482739827414, 140004, 0),
    ],
    "4_1": [
        (-1.0836883879970658, 0.08695319949029746, 131072, 0),
        (-1.0836883879970658, 0.08695319949029746, 131072, 0),
        (-1.0836883879970658, 0.08695319949029746, 131072, 0),
        (-1.0836883879970658, 0.08695319949029746, 131072, 0),
        (-1.0902664850957415, 0.08382884892140939, 140004, 0),
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

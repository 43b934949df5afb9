import math
import random

import pytest

from casson.mcint import (McEstimate, linking_mc, lk_combinatorial, v2_mc,
                          v2_mc_series)
from casson.plane import PolyKnot, polyknot_from_braid

HOPF_A = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
HOPF_B = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]


def test_hopf_combinatorial():
    assert abs(lk_combinatorial(HOPF_A, HOPF_B)) == 1


def test_combinatorial_tilts_a_non_generic_projection():
    # b's first edge projects through the corner (1, -1) of HOPF_A, so the
    # xy-projection is not generic; a slightly tilted projection is
    b = [(0, -0.5, -1), (2, -1.5, -1), (2, 0.5, 1), (0, 0.5, 1)]
    assert lk_combinatorial(HOPF_A, b) == -1
    assert lk_combinatorial(HOPF_A, list(reversed(b))) == 1
    assert linking_mc(HOPF_A, b, 50_000, seed=4).within(-1)


def test_linking_converges_to_hopf():
    target = lk_combinatorial(HOPF_A, HOPF_B)
    est = linking_mc(HOPF_A, HOPF_B, 200_000, seed=1)
    assert est.within(target)
    assert est.std_error < 0.02


def test_linking_unlink_near_zero():
    far = [(10, 0, 10), (12, 0, 10), (12, 0.3, 12), (10, 0.3, 12)]
    est = linking_mc(HOPF_A, far, 50_000, seed=2)
    assert abs(est.value) < 0.01


def test_linking_orientation_antisymmetry():
    fwd = linking_mc(HOPF_A, HOPF_B, 50_000, seed=3)
    rev = linking_mc(HOPF_A, list(reversed(HOPF_B)), 50_000, seed=3)
    assert math.isclose(fwd.value, -rev.value, rel_tol=0.2)
    assert lk_combinatorial(HOPF_A, list(reversed(HOPF_B))) == \
        -lk_combinatorial(HOPF_A, HOPF_B)


def test_linking_deterministic():
    a = linking_mc(HOPF_A, HOPF_B, 100_000, seed=9)
    b = linking_mc(HOPF_A, HOPF_B, 100_000, seed=9)
    assert a == b


def test_random_two_component_calibration():
    rng = random.Random(5)
    for trial in range(5):
        # loop B threads the square loop A `w` times through random tilts
        w = rng.choice((1, -1))
        tilt = rng.uniform(0.1, 0.4)
        b = [(0, -tilt, -1), (2, -tilt, -1), (2, tilt, 1), (0, tilt, 1)]
        if w < 0:
            b = list(reversed(b))
        target = lk_combinatorial(HOPF_A, b)
        est = linking_mc(HOPF_A, b, 150_000, seed=trial)
        assert est.within(target)


def test_v2_mc_straight_line_zero():
    line = PolyKnot(((0, 0, 0), (0, 1, 0)), shape="long")
    est = v2_mc(line, 20_000, seed=1)
    assert abs(est.value) < 1e-9


def test_v2_mc_deterministic():
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    a = v2_mc(tref, 40_000, seed=4)
    b = v2_mc(tref, 40_000, seed=4)
    assert a == b


def test_v2_mc_reports_rejections_field():
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    est = v2_mc(tref, 20_000, seed=2)
    assert est.rejected >= 0 and est.samples > 0
    assert isinstance(est, McEstimate)


def test_v2_mc_series_prefix_consistent():
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    series = v2_mc_series(tref, [50_000, 100_000], seed=6)
    assert len(series) == 2
    single = v2_mc(tref, 100_000, seed=6)
    assert math.isclose(series[-1].value, single.value, rel_tol=1e-12)


def test_v2_mc_trefoil_rough_value():
    # the integrands have infinite variance, so a single run can spike;
    # the median over seeds is the robust statistic used throughout
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    values = sorted(v2_mc(tref, 400_000, seed=s).value for s in (1, 2, 3))
    assert abs(values[1] - 1.0) < 0.5


def test_v2_mc_requires_long():
    with pytest.raises(ValueError):
        v2_mc(polyknot_from_braid([1, 1, 1], closed=True), 1000, seed=0)

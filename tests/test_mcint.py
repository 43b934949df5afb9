import math
import random
from fractions import Fraction

import numpy as np
import pytest

from casson import mcint
from casson.mcint import (McEstimate, linking_mc, lk_combinatorial, v2_mc,
                          v2_mc_series)
from casson.plane import (GenericityError, PolyKnot, polyknot_from_braid,
                          segment_crossing)

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


def test_linking_far_from_the_origin():
    # the Hopf pair moved 1e16 along y, in exact coordinates (the float sum
    # 0.3 + 1e16 is already flat before linking_mc sees it): the vertex
    # subtracted before the conversion to doubles leaves the same doubles
    def moved(loop):
        return [(Fraction(x), Fraction(y) + 10 ** 16, Fraction(z))
                for x, y, z in loop]

    a, b = moved(HOPF_A), moved(HOPF_B)
    assert lk_combinatorial(a, b) == -1
    est = linking_mc(a, b, 200_000, seed=1)
    assert est.within(-1) and est.std_error < 0.02
    assert est == linking_mc(HOPF_A, HOPF_B, 200_000, seed=1)


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
    # the median over seeds is the robust statistic used throughout: the
    # sampled coincident simplex rows are not bounded, so a single run can
    # still spike
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    values = sorted(v2_mc(tref, 400_000, seed=s).value for s in (1, 2, 3))
    assert abs(values[1] - 1.0) < 0.5


def test_v2_mc_requires_long():
    with pytest.raises(ValueError):
        v2_mc(polyknot_from_braid([1, 1, 1], closed=True), 1000, seed=0)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_counts_below_one_are_rejected(count):
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    with pytest.raises(ValueError, match="at least 1"):
        v2_mc(tref, count)
    with pytest.raises(ValueError, match="at least 1"):
        v2_mc_series(tref, [count, 1000])
    with pytest.raises(ValueError, match="at least 1"):
        linking_mc(HOPF_A, HOPF_B, count)


def test_empty_checkpoint_list_is_rejected():
    tref = polyknot_from_braid([1, 1, 1], closed=False)
    with pytest.raises(ValueError, match="checkpoint list is empty"):
        v2_mc_series(tref, [])


# -- the shared polygon primitives against the copies they replaced ---------

def _all_pairs_lk(a, b, shear):
    """Reference: the exact segment test on every edge pair of the two
    projected loops, one edge from each."""
    def edges(loop):
        pts = [((x, y + shear * z), z) for x, y, z in loop]
        return list(zip(pts, pts[1:] + pts[:1]))

    total = 0
    for i, ((p, zp), (p2, zp2)) in enumerate(edges(a)):
        for j, ((q, zq), (q2, zq2)) in enumerate(edges(b)):
            hit = segment_crossing(p, p2, q, q2, i, j)
            if hit is None:
                continue
            t, u = hit
            z1 = zp + t * (zp2 - zp)
            z2 = zq + u * (zq2 - zq)
            if z1 == z2:
                raise GenericityError("double point with equal heights")
            if z1 > z2:
                r = (p2[0] - p[0], p2[1] - p[1])
                s = (q2[0] - q[0], q2[1] - q[1])
                total += 1 if r[0] * s[1] > r[1] * s[0] else -1
    return total


def _lk_outcome(fn, a, b, shear):
    try:
        return fn(a, b, shear)
    except GenericityError:
        return "not generic"


def _random_loop(rng):
    """3-7 vertices on a coarse grid with three heights, so that shared
    endpoints, overlaps and equal heights occur next to clean crossings;
    consecutive vertices (the last and the first too) project apart."""
    g, n = rng.choice((2, 4, 9)), rng.randint(3, 7)
    pts = []
    while len(pts) < n or pts[-1][:2] == pts[0][:2]:
        p = (rng.randint(0, g), rng.randint(0, g), rng.randint(-1, 1))
        if not pts or p[:2] != pts[-1][:2]:
            pts.append(p)
    return [tuple(Fraction(c) for c in p) for p in pts]


def test_lk_sweep_matches_all_pairs():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(600):
        a, b = _random_loop(rng), _random_loop(rng)
        for shear in mcint._LK_SHEARS:
            got = _lk_outcome(mcint._lk_projected, a, b, shear)
            assert got == _lk_outcome(_all_pairs_lk, a, b, shear)
            outcomes.add(got)
    assert "not generic" in outcomes and {-1, 0, 1} <= outcomes


def _lk_or_error(a, b):
    try:
        return lk_combinatorial(a, b)
    except ValueError as exc:
        return str(exc)


def test_lk_repeated_vertex():
    square = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
    post = [(1, 1, -1), (1, 1, 1), (1, 3, 1), (1, 3, -1)]
    far = [(x + 10, y, z) for x, y, z in square]
    for loop, lk in ((square, 1), (far, 0)):
        for doubled in (loop + loop[-1:], loop + loop[:1],
                        loop[:2] + loop[1:]):
            assert lk_combinatorial(doubled, post) == lk
            assert lk_combinatorial(post, doubled) == lk
        assert lk_combinatorial(loop, post) == lk
    assert abs(linking_mc(square, post, 20_000, seed=1).value - 1) < 0.05
    # a vertex written twice changes nothing, not even whether a generic
    # projection is found
    rng = random.Random(6)
    for _ in range(300):
        a, b = _random_loop(rng), _random_loop(rng)
        k = rng.randrange(len(a))
        assert _lk_or_error(a[:k + 1] + a[k:], b) == _lk_or_error(a, b)


def _poly_arrays(vertices):
    v = np.asarray([[float(c) for c in p] for p in vertices], dtype=float)
    return v, np.roll(v, -1, axis=0) - v


def _sample_closed(v, edges, t):
    """Reference: a closed loop, one equal parameter slot per edge."""
    n = len(v)
    x = t * n
    seg = np.minimum(x.astype(int), n - 1)
    frac = x - seg
    return v[seg] + frac[:, None] * edges[seg], edges[seg] * n


def _long_eval(vertices, t):
    """Reference: a long knot, its two tails compactified onto the first and
    last slots, each slot filled through its own boolean mask."""
    v = np.asarray([[float(c) for c in p] for p in vertices])
    L = max(float(np.linalg.norm(v.max(axis=0) - v.min(axis=0))), 1.0)
    d_lo, d_hi = np.array([0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0])
    n = len(v) + 1
    x = t * n
    seg = np.minimum(x.astype(int), n - 1)
    s = x - seg
    pos = np.empty(t.shape + (3,))
    deriv = np.empty_like(pos)
    lo = seg == 0
    s0 = np.clip(s[lo], 1e-12, 1.0)
    pos[lo] = v[0] + d_lo * (L * (1.0 - s0) / s0)[:, None]
    deriv[lo] = -d_lo * (L / s0 ** 2)[:, None] * n
    hi = seg == n - 1
    s1 = np.clip(s[hi], 0.0, 1.0 - 1e-12)
    pos[hi] = v[-1] + d_hi * (L * s1 / (1.0 - s1))[:, None]
    deriv[hi] = d_hi * (L / (1.0 - s1) ** 2)[:, None] * n
    mid = ~(lo | hi)
    e = seg[mid] - 1
    edge = v[e + 1] - v[e]
    pos[mid] = v[e] + s[mid][:, None] * edge
    deriv[mid] = edge * n
    return pos, deriv


def _fixed_t(n_slots):
    """Uniform draws plus every slot boundary and its two neighbours."""
    edges = np.arange(n_slots + 1) / n_slots
    near = np.concatenate((edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, 1.0)))
    u = np.random.default_rng(3).random(4000)
    return np.clip(np.concatenate((u, near)), 1e-9, 1 - 1e-9)


def test_param_matches_closed_and_long_copies():
    for loop in (HOPF_A, HOPF_B, [(0, 0, 0), (3, 1, 2), (1, 4, -1)]):
        par = mcint._Param(loop, long=False)
        t = _fixed_t(len(loop))
        for got, want in zip(par.eval(t), _sample_closed(*_poly_arrays(loop),
                                                         t)):
            assert np.array_equal(got, want)
    for word in ([1, 1, 1], [1, -2, 1, -2], [1]):
        knot = polyknot_from_braid(word)
        par = mcint._Param(knot.vertices, long=True)
        # the integrands evaluate (samples, points) arrays of parameters
        t = _fixed_t(len(knot.vertices) + 1).reshape(-1, 1)
        t = np.concatenate((t, t[::-1], np.sort(t, axis=0)), axis=1)
        for got, want in zip(par.eval(t), _long_eval(knot.vertices, t)):
            assert np.array_equal(got, want)


def test_linking_rejects_a_long_knot():
    long_knot = polyknot_from_braid([1, 1, 1])
    square = [(10, 0, 0), (12, 0, 0), (12, 2, 0), (10, 2, 0)]
    with pytest.raises(ValueError, match="long knot"):
        lk_combinatorial(long_knot, square)
    with pytest.raises(ValueError, match="long knot"):
        linking_mc(square, long_knot, 1000)

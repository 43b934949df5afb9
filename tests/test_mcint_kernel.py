"""The per-coordinate solid-angle kernel against the vectorized formula.

`mcint._omega_hat` takes coordinate triples, (3, ...) arrays as `_Param`
gives them, and writes the norm, the cross product and the dot product out
one coordinate at a time.  `_reference` is the formula it replaced:
np.linalg.norm, np.cross and einsum over the last axis of (..., 3) arrays,
which `_check` hands to `_omega_hat` component-major.  The rejection masks
must be equal.  The values may differ only in the order in which the dot
product's three terms are added (einsum's order depends on the numpy
version), so they must agree to a few ulps of |v| |a x b| / (4 pi |v|^3).

The tripod stratum draws a pair of curve points and one slot k, and
integrates the third point over slot k and the line parameter in closed
form, as a Gauss integral J_k of a straight piece of the pair's line
against the slot (`mcint._chord_gauss`).  J_k is checked against
Gauss-Legendre quadrature of `_omega_hat` over the point in the slot and
the line parameter, its two outer rays against `_gauss` with corners at
infinity, and |J| <= 1 on drawn rows.

The simplex stratum over four distinct slots is a sum of products of Gauss
integrals I(p, q) of two straight slots of `_Param`'s slot table
(`mcint._gauss_block`), summed in O(n^2) (`mcint._simplex_exact`).  I is
checked against Gauss-Legendre quadrature of `_omega_hat` through `_Param`,
the sum against the literal sum over all slot quadruples, and Sigma I over
the segment pairs of two closed loops against their linking number.  The
rest of the stratum is sampled from `mcint._coincident_points`, whose
patterns are checked against their measures.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from casson import mcint
from casson.mcint import lk_combinatorial, v2_mc
from casson.plane import PolyKnot, polyknot_from_braid

KNOTS = ([1, 1, 1], [1, -2, 1, -2], [1] * 7)


def _reference(v, a, b, scale):
    norm = np.linalg.norm(v, axis=-1)
    valid = norm > mcint._REJECT_EPS * scale
    safe = np.where(valid, norm, 1.0)
    num = np.einsum("...i,...i->...", v, np.cross(a, b))
    return num / (4.0 * math.pi * safe ** 3), valid


def _omega(v, a, b, scale):
    """mcint._omega_hat of (..., 3) arrays, passed component-major."""
    return mcint._omega_hat(*(np.moveaxis(x, -1, 0) for x in (v, a, b)),
                            scale)


def _eval(par, t):
    """par.eval's position and derivative as (..., 3) arrays."""
    return (np.moveaxis(x, 0, -1) for x in par.eval(t))


def _check(v, a, b, scale=1.0):
    got, ok = _omega(v, a, b, scale)
    want, valid = _reference(v, a, b, scale)
    assert got.shape == ok.shape == v.shape[:-1]
    assert np.array_equal(ok, valid)
    norm = np.linalg.norm(v, axis=-1)
    safe = np.where(valid, norm, 1.0)
    size = norm * np.linalg.norm(np.cross(a, b), axis=-1)
    tol = 4 * np.finfo(float).eps * size / (4.0 * math.pi * safe ** 3)
    assert np.all(np.abs(got - want) <= tol)


def test_random_rows():
    rng = np.random.default_rng(5)
    for magnitude in (1e-3, 1.0, 1e4):
        v, a, b = magnitude * rng.standard_normal((3, 5000, 3))
        _check(v, a, b, scale=magnitude)


def test_component_major_views():
    # eval returns (3, ...) arrays; the integrands slice points out of them
    # and subtract
    rng = np.random.default_rng(6)
    pos, der = (np.moveaxis(rng.standard_normal((3, 4000, 4)), 0, -1)
                for _ in range(2))
    _check(pos[:, 0] - pos[:, 2], der[:, 0], der[:, 2])
    _check(pos, der, der[:, ::-1])
    par = mcint._Param(polyknot_from_braid([1] * 7).vertices, long=True)
    pos, der = par.eval(np.sort(rng.random((4000, 3)), axis=1))
    assert pos.shape == der.shape == (3, 4000, 3)
    assert pos[1].flags.c_contiguous
    # _check hands _omega_hat these (3, 4000) slices back
    pos, der = np.moveaxis(pos, 0, -1), np.moveaxis(der, 0, -1)
    _check(pos[:, 0] - pos[:, 1], der[:, 0], der[:, 1], par.scale)
    _check(pos[:, 1] - pos[:, 2] + 0.5 * (pos[:, 0] - pos[:, 1]),
           der[:, 2], pos[:, 0] - pos[:, 1], par.scale)
    # one slot table: each slot starts where the one before it ends, and
    # the tails end FAR out along y, at their end vertices' x and z
    far = np.array([0.0, mcint.FAR, 0.0])
    assert np.array_equal(par.lo[:, 1:], par.hi[:, :-1])
    assert np.array_equal(par.lo[:, 0], par.hi[:, 0] - far)
    assert np.array_equal(par.hi[:, -1], par.lo[:, -1] + far)
    assert np.array_equal(par.edge, par.hi - par.lo)
    assert not par.edge[::2, [0, -1]].any()


def test_rejection_threshold():
    # norms exactly at _REJECT_EPS * scale and up to 3 ulps to either side
    rng = np.random.default_rng(7)
    scale = 3.0
    edge = mcint._REJECT_EPS * scale
    radii = edge + np.arange(-3, 4) * np.spacing(edge)
    axes = np.concatenate((np.eye(3), -np.eye(3)))
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for unit in (dirs, axes):
        v = (unit[:, None, :] * radii[:, None]).reshape(-1, 3)
        a, b = rng.standard_normal((2,) + v.shape)
        _check(v, a, b, scale)
    # along an axis the norm is exact, so only the radii above the edge pass
    _, ok = _omega(v, a, b, scale)
    assert np.array_equal(ok, np.tile(radii > edge, len(axes)))


# -- the blocked chunk and the sorting network ---------------------------------

def test_sorting_network_matches_np_sort():
    rng = np.random.default_rng(8)
    uniform = rng.random((5000, 4))
    # a small grid, so that many rows hold tied values
    tied = rng.integers(0, 3, (5000, 4)) / 2.0
    for t in (uniform, tied, uniform[:, ::-1]):
        got = mcint._sort_columns(list(t.T))
        assert got.shape == t.shape
        assert np.array_equal(got, np.sort(t, axis=1))
    assert (np.diff(tied, axis=1) == 0).any(axis=1).mean() > 0.5


_ROWS = (1, mcint.BLOCK - 1, mcint.BLOCK, mcint.BLOCK + 1, mcint.CHUNK)


def _same_blocked_and_whole(integrand, key, shape, *args):
    # _blocked draws block by block from the generator keyed by `key`; the
    # whole draw is that generator's one (rows, cols) draw
    vals, ok = mcint._blocked(integrand, mcint._rng(*key), *shape, *args)
    want_vals, want_ok = integrand(mcint._rng(*key).random(shape), *args)
    assert vals.shape == ok.shape == (shape[0],)
    assert np.array_equal(vals, want_vals) and np.array_equal(ok, want_ok)


def test_strata_blocked_match_whole_draw():
    knot = polyknot_from_braid([1, 1, 1])
    par = mcint._Param(knot.vertices, long=True)
    for m in _ROWS:
        _same_blocked_and_whole(mcint._coincident, (0, 1, 0), (m, 4), par)
        for k in (2, 3, 4):
            _same_blocked_and_whole(mcint._tripods, (0, k, 0), (m, 3), par)


def test_linking_blocked_matches_whole_draw():
    loop_a = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    loop_b = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]
    par_a = mcint._Param(loop_a, long=False)
    par_b = mcint._Param(loop_b, long=False)
    for m in _ROWS:
        _same_blocked_and_whole(mcint._linking, (1, 0, 0), (m, 2),
                                par_a, par_b)


# -- the tripods: one slot and the line parameter in closed form -------------

def _quadrature_chord(par, xa, xb, k, rays, nodes):
    """Gauss-Legendre quadrature of J_k, the integral of
    omega_hat(y - x)(w, x') over x in slot k, through _Param.eval, and
    over y = xa + s w on the segment (s in (0,1)) or, if `rays`, on its two
    outer rays (s = -u/(1-u) and s = 1/(1-u) for u in (0,1))."""
    n = par.lo.shape[1]
    x, weights = np.polynomial.legendre.leggauss(nodes)
    u = (x + 1.0) / 2.0
    if rays:
        s = np.concatenate((-u / (1.0 - u), 1.0 / (1.0 - u)))
        line_weights = np.tile(weights / (1.0 - u) ** 2, 2)
    else:
        s, line_weights = u, weights
    pos, der = _eval(par, (k + u) / n)
    w = xb - xa
    y = xa + s[:, None] * w
    shape = (len(s), nodes, 3)
    vals, ok = _omega(y[:, None] - pos[None], np.broadcast_to(w, shape),
                      np.broadcast_to(der[None], shape), 1.0)
    assert ok.all()
    return line_weights @ vals @ weights / (4 * n)


@pytest.mark.parametrize("word", KNOTS, ids=["3_1", "4_1", "T7_2"])
def test_tripod_slots_match_quadrature(word):
    # every slot other than the pair's: the segment before and after the
    # pair, its outer rays between.  A pair whose factor
    # omega_hat(xa - xb)(x'a, x'b) is 0 is skipped: its points and tangents
    # may lie in one plane with a slot, whose J then jumps by 1/2 where the
    # slot crosses the line.  A slot is well conditioned when the
    # quadrature has converged on it: 32 and 48 nodes agree to 1e-12.
    knot = polyknot_from_braid(word)
    par = mcint._Param(knot.vertices, long=True)
    n = par.lo.shape[1]
    t = np.sort(np.random.default_rng(10).random((12, 2)), axis=1)
    pos, der = _eval(par, t)
    factor, _ = _omega(pos[:, 0] - pos[:, 1], der[:, 0], der[:, 1], 1.0)
    seg, _ = par.slots(t)
    checked = total = 0
    inside = set()
    for (xa, xb), (sa, sb) in zip(pos[factor != 0], seg[factor != 0]):
        k = np.array([q for q in range(n) if q not in (sa, sb)])
        rays = (sa < k) & (k < sb)
        got = mcint._chord_gauss(xa[:, None] - par.lo[:, k],
                                 xa[:, None] - par.hi[:, k],
                                 (xb - xa)[:, None], rays)
        for q, ray, j in zip(k, rays, got):
            total += 1
            fine = _quadrature_chord(par, xa, xb, q, ray, 48)
            if abs(fine - _quadrature_chord(par, xa, xb, q, ray, 32)) > 1e-12:
                continue
            checked += 1
            inside.add(bool(ray))
            assert abs(j - fine) <= 1e-13, (sa, sb, q)
    assert total > 5 * n and checked > 0.8 * total
    assert inside == {False, True}


def test_rays_are_the_line_less_the_segment():
    # the two outer rays by `_gauss`, each with its corners at infinity
    # given as the direction -w or +w
    rng = np.random.default_rng(11)
    a, d, w = rng.standard_normal((3, 3, 2000))
    b, c = a + w, d + w
    rays = mcint._gauss(-w, a, d, -w) + mcint._gauss(b, w, w, c)
    got = mcint._chord_gauss(a, d, w, np.ones(2000, bool))
    assert np.all(np.abs(got - rays) <= 1e-13 * np.abs(rays).max())
    segment = mcint._chord_gauss(a, d, w, np.zeros(2000, bool))
    assert np.all(np.abs(segment - mcint._gauss(a, b, c, d)) <= 1e-13)


def test_tripod_slot_integrals_are_bounded(monkeypatch):
    # |J| <= 1 on every drawn row: the segment and the line each give at
    # most 1/2 in size
    seen = []
    chord = mcint._chord_gauss

    def recorded(*args):
        seen.append(chord(*args))
        return seen[-1]

    monkeypatch.setattr(mcint, "_chord_gauss", recorded)
    for word in KNOTS:
        knot = polyknot_from_braid(word)
        par = mcint._Param(knot.vertices, long=True)
        vals, _ = mcint._blocked(mcint._tripods, mcint._rng(4, 2, 0), 1 << 20,
                                 3, par)
        assert np.all(np.isfinite(vals))
    j = np.concatenate(seen)
    assert j.size == 3 << 20 and np.all(np.abs(j) <= 1.0)


def test_collinear_and_coincident_tripods_are_rejected():
    # a pair in one edge or tail, or on the two tails, which share the y
    # axis, gives 0 exactly (its factor's tangents are parallel) and is
    # accepted; a pair at one point is rejected with a finite value
    knot = polyknot_from_braid([1, 1, 1])
    par = mcint._Param(knot.vertices, long=True)
    n = par.lo.shape[1]
    slots = np.arange(n)
    one_slot = np.column_stack(((slots + 0.7) / n, (slots + 0.2) / n,
                                np.full(n, 0.5)))
    tails = np.array([[0.1, n - 0.5, 0.3], [n - 0.2, 0.5, 0.9]]) / [n, n, 1]
    t = np.random.default_rng(9).random((200, 2))
    coincident = np.column_stack((t[:, 0], t[:, 0], t[:, 1]))
    with np.errstate(all="raise"):
        for rows in (one_slot, tails):
            vals, ok = mcint._tripods(rows, par)
            assert ok.all() and np.all(vals == 0.0)
        vals, ok = mcint._tripods(coincident, par)
    assert np.all(np.isfinite(vals)) and not ok.any()


# -- the simplex stratum: the distinct slots in closed form ---------------------

def _quadrature_gauss(par, p, q, nodes):
    """Gauss-Legendre quadrature of I(p, q) over the two slots, through
    _Param.eval, its tails' projective stretch included."""
    n = par.lo.shape[1]
    x, weights = np.polynomial.legendre.leggauss(nodes)
    u = (x + 1.0) / 2.0
    pos_p, der_p = _eval(par, (p + u) / n)
    pos_q, der_q = _eval(par, (q + u) / n)
    shape = (nodes, nodes, 3)
    vals, ok = _omega(pos_p[:, None] - pos_q[None],
                      np.broadcast_to(der_p[:, None], shape),
                      np.broadcast_to(der_q[None], shape), 1.0)
    assert ok.all()
    return weights @ vals @ weights / (4 * n * n)


@pytest.mark.parametrize("word", KNOTS[:2], ids=["3_1", "4_1"])
def test_gauss_integral_matches_quadrature(word):
    knot = polyknot_from_braid(word)
    par = mcint._Param(knot.vertices, long=True)
    n = par.lo.shape[1]
    got = mcint._gauss_block(par, n, 0, n)
    assert got[0, n - 1] == 0.0
    checked = 0
    for p in range(n):
        for q in range(p + 2, n):
            fine = _quadrature_gauss(par, p, q, 48)
            # a pair is well conditioned when the quadrature has converged
            # on it: 32 and 48 nodes agree to 1e-12
            if abs(fine - _quadrature_gauss(par, p, q, 32)) > 1e-12:
                continue
            checked += 1
            assert abs(got[p, q] - fine) <= 1e-13, (p, q)
    assert checked > 0.95 * (n - 1) * (n - 2) / 2
    assert np.all(np.tril(got, 1) == 0.0)


@pytest.mark.parametrize("word", KNOTS, ids=["3_1", "4_1", "T7_2"])
def test_simplex_sum_matches_all_quadruples(monkeypatch, word):
    par = mcint._Param(polyknot_from_braid(word).vertices, long=True)
    n = par.lo.shape[1]
    gauss = mcint._gauss_block(par, n, 0, n)
    want = sum(gauss[a, c] * gauss[b, d]
               for a, b, c, d in itertools.combinations(range(n), 4))
    assert abs(mcint._simplex_exact(par) - want) <= 1e-12
    # blocks of one column, of a few, and of part of the columns
    for block in (1, 3 * n, 20 * n):
        monkeypatch.setattr(mcint, "PAIR_BLOCK", block)
        assert abs(mcint._simplex_exact(par) - want) <= 1e-12


def _loop_gauss_sum(loop1, loop2):
    """Sigma I(p, q) over the edges p of loop1 and q of loop2."""
    p0, q0 = (np.array(loop, dtype=float) for loop in (loop1, loop2))
    p1, q1 = np.roll(p0, -1, axis=0), np.roll(q0, -1, axis=0)
    corners = [[x[:, None, k] - y[None, :, k] for k in range(3)]
               for x, y in ((p0, q0), (p1, q0), (p1, q1), (p0, q1))]
    return float(mcint._gauss(*corners).sum())


def test_gauss_sum_is_the_linking_number():
    # the deterministic twin of linking_mc
    hopf_a = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    pairs = [(hopf_a, [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1),
                       (0, 0.3, 1)])]
    # the loops of test_mcint.py's test_random_two_component_calibration
    rng = random.Random(5)
    for _ in range(5):
        w = rng.choice((1, -1))
        tilt = rng.uniform(0.1, 0.4)
        b = [(0, -tilt, -1), (2, -tilt, -1), (2, tilt, 1), (0, tilt, 1)]
        pairs.append((hopf_a, b if w > 0 else b[::-1]))
    seen = set()
    for a, b in pairs:
        lk = lk_combinatorial(a, b)
        seen.add(lk)
        assert abs(_loop_gauss_sum(a, b) - lk) <= 1e-9
        assert abs(_loop_gauss_sum(b, a) - lk) <= 1e-9
    assert seen == {-1, 1}


def test_coincident_patterns_match_their_measures():
    # slot patterns of the sorted draw: which consecutive points share a slot
    n, m = 5, 400_000
    t = mcint._coincident_points(mcint._rng(3, 1, 0).random((m, 4)), n)
    seg = np.floor(t).astype(int)
    assert np.all(np.diff(t, axis=1) >= 0) and seg.min() >= 0
    assert seg.max() < n
    tied = np.diff(seg, axis=1) == 0
    pattern = tied @ np.array([1, 2, 4])
    # x=x<y<z, x<y=y<z, x<y<z=z and x=x<y=y, weighted by their measures
    measure = {1: 2 * n * (n - 1) * (n - 2), 2: 2 * n * (n - 1) * (n - 2),
               4: 2 * n * (n - 1) * (n - 2), 5: 3 * n * (n - 1)}
    total = sum(measure.values())
    assert set(np.unique(pattern)) == set(measure)
    for key, weight in measure.items():
        p = weight / total
        count = np.count_nonzero(pattern == key)
        assert abs(count - m * p) <= 5 * math.sqrt(m * p * (1 - p))
    # every slot tuple of a pattern equally often: chi-square over the 40
    # tuples against their expected counts, P(chi2_39 > 80) ~ 1e-4
    tuples, counts = np.unique(seg, axis=0, return_counts=True)
    expected = np.array([m * measure[int(k)] / total
                         / (math.comb(n, 3) if k != 5 else math.comb(n, 2))
                         for k in (np.diff(tuples, axis=1) == 0)
                         @ np.array([1, 2, 4])])
    assert len(tuples) == 3 * math.comb(n, 3) + math.comb(n, 2)
    assert ((counts - expected) ** 2 / expected).sum() < 80
    # offsets: uniform in a slot of its own, the order statistics of two
    # uniforms in a shared one
    off = t - seg
    first = pattern == 1
    for k, mean in enumerate((1 / 3, 2 / 3, 1 / 2, 1 / 2)):
        col = off[first, k]
        assert abs(col.mean() - mean) <= 5 * col.std() / math.sqrt(col.size)


def test_far_from_origin_knot_keeps_its_shape():
    knot = polyknot_from_braid([1, 1, 1])
    want = v2_mc(knot, 40_000, seed=1)
    for shift in (10 ** 14, 10 ** 20):
        moved = PolyKnot(tuple((x, y + shift, z) for x, y, z in knot.vertices),
                         "long")
        assert v2_mc(moved, 40_000, seed=1) == want


@pytest.mark.parametrize("exponent", [100, -60])
def test_v2_mc_is_scale_invariant(exponent):
    # v2_mc samples a power-of-two copy of the knot of diameter in [0.5, 1),
    # so a knot far outside the unit size keeps D = |a x w|^2 in the doubles
    knot = polyknot_from_braid([1, 1, 1])
    want = v2_mc(knot, 20_000, seed=1)
    factor = Fraction(10) ** exponent
    scaled = PolyKnot(tuple(tuple(c * factor for c in v)
                            for v in knot.vertices), "long")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = v2_mc(scaled, 20_000, seed=1)
    assert (got.samples, got.rejected) == (want.samples, want.rejected)
    assert math.isclose(got.value, want.value, rel_tol=1e-9)
    assert math.isclose(got.std_error, want.std_error, rel_tol=1e-9)

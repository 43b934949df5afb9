"""The per-coordinate solid-angle kernel against the vectorized formula.

`mcint._omega_hat` writes the norm, the cross product and the dot product
out one coordinate at a time.  `_reference` is the formula it replaced:
np.linalg.norm, np.cross and einsum over the last axis.  The rejection
masks must be equal.  The values may differ only in the order in which the
dot product's three terms are added (einsum's order depends on the numpy
version), so they must agree to a few ulps of |v| |a x b| / (4 pi |v|^3).

The tripod strata integrate their line parameter in closed form
(`mcint._line_omega`).  Their reference is `_sampled_tripod`, the
integrand with that parameter sampled, integrated over it by Gauss-Legendre
quadrature.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from casson import mcint
from casson.mcint import v2_mc
from casson.plane import PolyKnot, polyknot_from_braid

KNOTS = ([1, 1, 1], [1, -2, 1, -2], [1] * 7)


def _reference(v, a, b, scale):
    norm = np.linalg.norm(v, axis=-1)
    valid = norm > mcint._REJECT_EPS * scale
    safe = np.where(valid, norm, 1.0)
    num = np.einsum("...i,...i->...", v, np.cross(a, b))
    return num / (4.0 * math.pi * safe ** 3), valid


def _check(v, a, b, scale=1.0):
    got, ok = mcint._omega_hat(v, a, b, scale)
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
    # eval returns (..., 3) views of (3, ...) buffers; the integrands slice
    # points out of them and subtract
    rng = np.random.default_rng(6)
    pos, der = (np.moveaxis(rng.standard_normal((3, 4000, 4)), 0, -1)
                for _ in range(2))
    _check(pos[:, 0] - pos[:, 2], der[:, 0], der[:, 2])
    _check(pos, der, der[:, ::-1])
    par = mcint._Param(polyknot_from_braid([1] * 7).vertices, long=True)
    pos, der = par.eval(np.sort(rng.random((4000, 3)), axis=1))
    assert pos.shape == (4000, 3, 3) and pos[..., 1].flags.c_contiguous
    _check(pos[:, 0] - pos[:, 1], der[:, 0], der[:, 1], par.scale)
    _check(pos[:, 1] - pos[:, 2] + 0.5 * (pos[:, 0] - pos[:, 1]),
           der[:, 2], pos[:, 0] - pos[:, 1], par.scale)


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
    _, ok = mcint._omega_hat(v, a, b, scale)
    assert np.array_equal(ok, np.tile(radii > edge, len(axes)))


# -- the blocked chunk and the sorting network ---------------------------------

def test_sorting_network_matches_np_sort():
    rng = np.random.default_rng(8)
    for k in (3, 4):
        uniform = rng.random((5000, k))
        # a small grid, so that many rows hold tied values
        tied = rng.integers(0, 3, (5000, k)) / 2.0
        for t in (uniform, tied, uniform[:, ::-1]):
            got = mcint._sort_rows(t)
            assert got.shape == t.shape
            assert np.array_equal(got, np.sort(t, axis=1))
        assert (np.diff(tied, axis=1) == 0).any(axis=1).mean() > 0.5


_ROWS = (1, mcint.BLOCK - 1, mcint.BLOCK, mcint.BLOCK + 1, mcint.CHUNK)


def _same_blocked_and_whole(integrand, draw, *args):
    vals, ok = mcint._blocked(integrand, draw, *args)
    want_vals, want_ok = integrand(draw, *args)
    assert vals.shape == ok.shape == (len(draw),)
    assert np.array_equal(vals, want_vals) and np.array_equal(ok, want_ok)


def test_strata_blocked_match_whole_draw():
    par = mcint._Param(polyknot_from_braid([1, 1, 1]).vertices, long=True)
    for m in _ROWS:
        _same_blocked_and_whole(mcint._integrand_x,
                                mcint._rng(0, 1, 0).random((m, 4)), par)
        for k in (2, 3, 4):
            _same_blocked_and_whole(mcint._tripod,
                                    mcint._rng(0, k, 0).random((m, 3)), par, k)


def test_linking_blocked_matches_whole_draw():
    loop_a = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    loop_b = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]
    par_a = mcint._Param(loop_a, long=False)
    par_b = mcint._Param(loop_b, long=False)
    for m in _ROWS:
        _same_blocked_and_whole(mcint._linking,
                                mcint._rng(1, 0, 0).random((m, 2)),
                                par_a, par_b)


# -- the tripods' line parameter, integrated in closed form --------------------

def _sampled_tripod(r, par, which):
    """The tripod integrand with the line parameter sampled, as the kernel
    had it before that integral was taken in closed form: r is an (m, 4)
    draw, three curve parameters and the line parameter u."""
    t = np.sort(r[:, :3], axis=1)
    u = np.clip(r[:, 3], 0.0, 1 - 1e-9)
    pos, der = par.eval(t)
    x1, x2, x3 = pos[:, 0], pos[:, 1], pos[:, 2]
    d1, d2, d3 = der[:, 0], der[:, 1], der[:, 2]
    if which == 2:
        w = x1 - x2
        ga, ok1 = mcint._omega_hat(w, d1, d2, par.scale)
        line = (x2 - x3) + u[:, None] * w
        gb, ok2 = mcint._omega_hat(line, d3, w, par.scale)
        return ga * gb / 6.0, ok1 & ok2
    if which == 3:
        w = x2 - x3
        ga, ok1 = mcint._omega_hat(w, d2, d3, par.scale)
        line = (x1 - x2) + u[:, None] * w
        gb, ok2 = mcint._omega_hat(line, d1, w, par.scale)
        return -(ga * gb) / 6.0, ok1 & ok2
    # the complement of (0,1), as t = -u/(1-u) and t = 1/(1-u)
    w = x3 - x1
    ga, ok1 = mcint._omega_hat(w, d1, d3, par.scale)
    base = x1 - x2
    jac = 1.0 / (1.0 - u) ** 2
    t_neg = -u / (1.0 - u)
    t_pos = 1.0 / (1.0 - u)
    gb_n, ok2 = mcint._omega_hat(base + t_neg[:, None] * w, d2, w, par.scale)
    gb_p, ok3 = mcint._omega_hat(base + t_pos[:, None] * w, d2, w, par.scale)
    return -(ga * (gb_n + gb_p) * jac) / 6.0, ok1 & ok2 & ok3


def _quadrature(t, par, which, nodes):
    """Gauss-Legendre quadrature of _sampled_tripod over u in (0,1), and
    whether every node was accepted, at each row of t."""
    x, weights = np.polynomial.legendre.leggauss(nodes)
    r = np.column_stack((np.repeat(t, nodes, axis=0),
                         np.tile((x + 1.0) / 2.0, len(t))))
    vals, ok = _sampled_tripod(r, par, which)
    vals = vals.reshape(len(t), nodes) @ (weights / 2.0)
    return vals, ok.reshape(len(t), nodes).all(axis=1)


@pytest.mark.parametrize("word", KNOTS, ids=["3_1", "4_1", "T7_2"])
def test_tripods_match_quadrature_over_the_line(word):
    # a row is well conditioned when the quadrature has converged on it:
    # 64 and 128 nodes agree to 1e-12
    par = mcint._Param(polyknot_from_braid(word).vertices, long=True)
    for which in (2, 3, 4):
        t = mcint._rng(0, which, 0).random((1000, 3))
        got, ok = mcint._tripod(t, par, which)
        coarse, _ = _quadrature(t, par, which, 64)
        fine, fine_ok = _quadrature(t, par, which, 128)
        good = ok & fine_ok & (np.abs(coarse - fine) <= 1e-12 * np.abs(fine))
        assert good.mean() > 0.8
        assert np.all(np.abs(got - fine)[good] <= 1e-8 * np.abs(fine)[good])


def test_collinear_and_coincident_tripods_are_rejected():
    par = mcint._Param(polyknot_from_braid([1, 1, 1]).vertices, long=True)
    n = par.start.shape[1]
    slots = np.arange(n)[:, None]
    # three points on one straight edge or tail, then repeated points
    collinear = (slots + np.array([0.2, 0.5, 0.7])) / n
    t = np.random.default_rng(9).random((200, 1))
    coincident = np.concatenate((np.hstack((t, t, t[::-1])),
                                 np.hstack((t, t[::-1], t[::-1])),
                                 np.hstack((t, t, t))))
    for rows in (collinear, coincident):
        for which in (2, 3, 4):
            with np.errstate(all="raise"):
                vals, ok = mcint._tripod(rows, par, which)
            assert np.all(np.isfinite(vals)) and not ok.any()


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

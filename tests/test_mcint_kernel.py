"""The per-coordinate solid-angle kernel against the vectorized formula.

`mcint._omega_hat` writes the norm, the cross product and the dot product
out one coordinate at a time.  `_reference` is the formula it replaced:
np.linalg.norm, np.cross and einsum over the last axis.  The rejection
masks must be equal.  The values may differ only in the order in which the
dot product's three terms are added (einsum's order depends on the numpy
version), so they must agree to a few ulps of |v| |a x b| / (4 pi |v|^3).
"""

import math

import numpy as np

from casson import mcint
from casson.plane import polyknot_from_braid


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
                                    mcint._rng(0, k, 0).random((m, 4)), par, k)


def test_linking_blocked_matches_whole_draw():
    loop_a = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    loop_b = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]
    par_a = mcint._Param(loop_a, long=False)
    par_b = mcint._Param(loop_b, long=False)
    for m in _ROWS:
        _same_blocked_and_whole(mcint._linking,
                                mcint._rng(1, 0, 0).random((m, 2)),
                                par_a, par_b)

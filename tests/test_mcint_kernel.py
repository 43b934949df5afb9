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
